package raid

import (
	"errors"
	"fmt"
)

// FailDisk marks a drive as operationally failed: every block on it reads
// as an erasure until the disk is replaced and rebuilt.
func (a *Array) FailDisk(d int) error {
	if err := a.checkDisk(d); err != nil {
		return err
	}
	if a.disks[d].failed {
		return fmt.Errorf("raid: disk %d already failed", d)
	}
	a.disks[d].failed = true
	return nil
}

// FailedDisks lists currently failed drives.
func (a *Array) FailedDisks() []int {
	var out []int
	for d := range a.disks {
		if a.disks[d].failed {
			out = append(out, d)
		}
	}
	return out
}

// CorruptBlock silently corrupts the payload of (disk, set, row): the data
// changes but the stored checksum does not, exactly like a latent sector
// defect — invisible until the block is next read or scrubbed.
func (a *Array) CorruptBlock(d, set, row int) error {
	if err := a.checkBlock(d, set, row); err != nil {
		return err
	}
	if a.disks[d].failed {
		return fmt.Errorf("raid: disk %d is failed; nothing to corrupt", d)
	}
	b := &a.disks[d].blocks[a.blockIndex(set, row)]
	for i := range b.data {
		b.data[i] ^= 0xA5
	}
	return nil
}

// RebuildReport summarizes a disk replacement.
type RebuildReport struct {
	Disk int
	// LostSets lists stripe sets whose data could not be reconstructed —
	// each is a block-level double failure (e.g. a latent defect on a
	// surviving drive). Lost sets are zero-filled on the replacement.
	LostSets []int
	// RepairedBlocks counts blocks written to the replacement.
	RepairedBlocks int
}

// ReplaceDisk swaps in a fresh drive for a failed one and reconstructs its
// contents from the surviving drives. Stripe sets that cannot be
// reconstructed are reported as lost — the physical DDF the reliability
// model counts.
func (a *Array) ReplaceDisk(d int) (*RebuildReport, error) {
	if err := a.checkDisk(d); err != nil {
		return nil, err
	}
	if !a.disks[d].failed {
		return nil, fmt.Errorf("raid: disk %d has not failed", d)
	}
	report := &RebuildReport{Disk: d}
	rows := a.RowsPerSet()
	// Bring the disk back empty, then reconstruct set by set using the
	// remaining drives (the disk participates as an erasure during its own
	// reconstruction).
	for b := range a.disks[d].blocks {
		zero := make([]byte, a.blockSize)
		a.disks[d].blocks[b] = block{data: zero, sum: 0} // invalid checksum: still an erasure
	}
	a.disks[d].failed = false
	for set := 0; set < a.stripeSets; set++ {
		cells, err := a.recoverSet(set)
		if err != nil {
			var unrec *UnrecoverableError
			if errors.As(err, &unrec) {
				report.LostSets = append(report.LostSets, set)
				// Zero-fill with valid checksums so the array returns to a
				// consistent (if lossy) state.
				for r := 0; r < rows; r++ {
					a.writeRaw(d, set, r, make([]byte, a.blockSize))
				}
				continue
			}
			return nil, err
		}
		for r := 0; r < rows; r++ {
			a.writeRaw(d, set, r, cells[r][d])
			report.RepairedBlocks++
		}
	}
	// Re-encode parity for lost sets so subsequent reads are consistent.
	// With another disk still down the re-encode must wait: the lost sets
	// keep invalid checksums on this disk (visible erasures) and the final
	// rebuild — when the array is whole again — re-discovers and settles
	// them.
	if len(a.FailedDisks()) == 0 {
		for _, set := range report.LostSets {
			data := make([][]byte, a.DataBlocksPerSet())
			for i := range data {
				data[i] = make([]byte, a.blockSize)
			}
			if err := a.WriteStripe(set, data); err != nil {
				return nil, fmt.Errorf("raid: re-encode lost set %d: %w", set, err)
			}
		}
	} else {
		for _, set := range report.LostSets {
			for r := 0; r < rows; r++ {
				b := &a.disks[d].blocks[a.blockIndex(set, r)]
				b.sum = ^crcOf(b.data) // deliberately invalid: still an erasure
			}
		}
	}
	return report, nil
}

// RepairBlock reconstructs a single block from parity and rewrites it — a
// targeted scrub of one suspect location (the per-defect correction the
// reliability model's TTScrub samples). It fails if the stripe set is
// unrecoverable (e.g. another disk is down and the set has lost too much).
func (a *Array) RepairBlock(d, set, row int) error {
	if err := a.checkBlock(d, set, row); err != nil {
		return err
	}
	if a.disks[d].failed {
		return fmt.Errorf("raid: disk %d is failed; rebuild it instead", d)
	}
	cells, err := a.recoverSet(set)
	if err != nil {
		return err
	}
	a.writeRaw(d, set, row, cells[row][d])
	return nil
}
