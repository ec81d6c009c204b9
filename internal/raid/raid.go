// Package raid is an in-memory block-level RAID substrate. It exists to
// demonstrate, at the data level, exactly the failure semantics the
// reliability model counts: a latent sector error (silent corruption,
// detectable only by checksum) combined with a whole-disk loss makes a
// stripe unrecoverable under single parity, while scrubbing repairs the
// corruption first and the subsequent rebuild succeeds; double parity
// (row-diagonal parity, the paper's reference [24]) survives both.
//
// It holds the two layouts the model counts losses for, so that
// internal/cosim can replay model chronologies on real parity arithmetic:
//   - RAID5: rotating parity, XOR row parity, single-row stripes.
//   - RAID6: row-diagonal parity (RDP). For p prime the array has p+1
//     disks (p-1 data, row parity, diagonal parity) and stripes are sets
//     of p-1 rows.
//
// Scrubbing is per defect, as in the model: RepairBlock reconstructs one
// suspect block from parity and rewrites it.
package raid

import (
	"fmt"
	"hash/crc32"
)

// Level identifies the array layout.
type Level int

const (
	// RAID5 rotates XOR parity across disks.
	RAID5 Level = iota + 1
	// RAID6 uses NetApp-style row-diagonal parity (double parity).
	RAID6
)

// String implements fmt.Stringer.
func (l Level) String() string {
	switch l {
	case RAID5:
		return "RAID5"
	case RAID6:
		return "RAID6-RDP"
	default:
		return fmt.Sprintf("Level(%d)", int(l))
	}
}

// block is one on-disk block: payload plus the checksum written with it.
// Silent corruption mutates data without updating sum.
type block struct {
	data []byte
	sum  uint32
}

// disk is one drive: a column of blocks.
type disk struct {
	blocks []block
	failed bool
}

// Array is an in-memory RAID group.
type Array struct {
	level      Level
	disks      []disk
	blockSize  int
	stripeSets int
	prime      int // RAID6 only: the RDP prime p (disks == p+1)
}

// RowsPerSet returns the number of rows in one stripe set: p-1 for RAID6,
// 1 for RAID5. Block addresses are (disk, set, row) with row in
// [0, RowsPerSet()).
func (a *Array) RowsPerSet() int {
	if a.level == RAID6 {
		return a.prime - 1
	}
	return 1
}

// New creates an array. RAID5 needs >= 3 disks. RAID6 needs disks == p+1
// for a prime p >= 3 (e.g. 6, 8, 12, 14 disks).
func New(level Level, disks, stripeSets, blockSize int) (*Array, error) {
	if stripeSets < 1 {
		return nil, fmt.Errorf("raid: need >= 1 stripe set, got %d", stripeSets)
	}
	if blockSize < 1 {
		return nil, fmt.Errorf("raid: need positive block size, got %d", blockSize)
	}
	a := &Array{level: level, blockSize: blockSize, stripeSets: stripeSets}
	switch level {
	case RAID5:
		if disks < 3 {
			return nil, fmt.Errorf("raid: %v needs >= 3 disks, got %d", level, disks)
		}
	case RAID6:
		p := disks - 1
		if p < 3 || !isPrime(p) {
			return nil, fmt.Errorf("raid: RAID6-RDP needs p+1 disks with p prime >= 3, got %d disks", disks)
		}
		a.prime = p
	default:
		return nil, fmt.Errorf("raid: unknown level %d", int(level))
	}
	blocksPerDisk := stripeSets * a.RowsPerSet()
	a.disks = make([]disk, disks)
	for d := range a.disks {
		a.disks[d].blocks = make([]block, blocksPerDisk)
		for b := range a.disks[d].blocks {
			zero := make([]byte, blockSize)
			a.disks[d].blocks[b] = block{data: zero, sum: crc32.ChecksumIEEE(zero)}
		}
	}
	return a, nil
}

func isPrime(n int) bool {
	if n < 2 {
		return false
	}
	for d := 2; d*d <= n; d++ {
		if n%d == 0 {
			return false
		}
	}
	return true
}

// Level returns the array layout.
func (a *Array) Level() Level { return a.level }

// Disks returns the total drive count.
func (a *Array) Disks() int { return len(a.disks) }

// StripeSets returns the number of stripe sets.
func (a *Array) StripeSets() int { return a.stripeSets }

// DataBlocksPerSet returns how many user blocks one stripe set holds.
func (a *Array) DataBlocksPerSet() int {
	if a.level == RAID6 {
		return (a.prime - 1) * (a.prime - 1)
	}
	return len(a.disks) - 1
}

// Redundancy returns the number of simultaneous whole-disk losses the
// layout tolerates.
func (a *Array) Redundancy() int {
	if a.level == RAID6 {
		return 2
	}
	return 1
}

// parityDisk returns the column holding row parity for the given set:
// rotating under RAID5, fixed on column p-1 under RAID6.
func (a *Array) parityDisk(set int) int {
	if a.level == RAID6 {
		return a.prime - 1
	}
	return set % len(a.disks)
}

// dataDisks lists the columns holding user data for the given set, in
// logical order.
func (a *Array) dataDisks(set int) []int {
	if a.level == RAID6 {
		out := make([]int, a.prime-1)
		for i := range out {
			out[i] = i
		}
		return out
	}
	pd := a.parityDisk(set)
	out := make([]int, 0, len(a.disks)-1)
	for d := range a.disks {
		if d != pd {
			out = append(out, d)
		}
	}
	return out
}

// blockIndex maps (set, row) to the per-disk block index.
func (a *Array) blockIndex(set, row int) int { return set*a.RowsPerSet() + row }

// writeRaw stores payload into (disk, set, row) with a fresh checksum.
func (a *Array) writeRaw(d, set, row int, payload []byte) {
	b := &a.disks[d].blocks[a.blockIndex(set, row)]
	copy(b.data, payload)
	b.sum = crc32.ChecksumIEEE(b.data)
}

// readRaw returns the payload at (disk, set, row) and whether it is intact
// (disk alive and checksum valid).
func (a *Array) readRaw(d, set, row int) ([]byte, bool) {
	if a.disks[d].failed {
		return nil, false
	}
	b := &a.disks[d].blocks[a.blockIndex(set, row)]
	if crc32.ChecksumIEEE(b.data) != b.sum {
		return b.data, false
	}
	return b.data, true
}

// crcOf is the block checksum function.
func crcOf(data []byte) uint32 { return crc32.ChecksumIEEE(data) }

func xorInto(dst, src []byte) {
	for i := range dst {
		dst[i] ^= src[i]
	}
}

// checkSet validates a (set) index.
func (a *Array) checkSet(set int) error {
	if set < 0 || set >= a.stripeSets {
		return fmt.Errorf("raid: stripe set %d out of range [0,%d)", set, a.stripeSets)
	}
	return nil
}

// checkDisk validates a disk index.
func (a *Array) checkDisk(d int) error {
	if d < 0 || d >= len(a.disks) {
		return fmt.Errorf("raid: disk %d out of range [0,%d)", d, len(a.disks))
	}
	return nil
}

// checkBlock validates a (disk, set, row) block address.
func (a *Array) checkBlock(d, set, row int) error {
	if err := a.checkDisk(d); err != nil {
		return err
	}
	if err := a.checkSet(set); err != nil {
		return err
	}
	if row < 0 || row >= a.RowsPerSet() {
		return fmt.Errorf("raid: row %d out of range [0,%d)", row, a.RowsPerSet())
	}
	return nil
}
