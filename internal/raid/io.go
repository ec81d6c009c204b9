package raid

import (
	"fmt"
)

// WriteStripe writes one stripe set of user data and its parity. data must
// contain exactly DataBlocksPerSet blocks of the array's block size. For
// RAID6 the blocks fill the (p-1)×(p-1) data matrix in row-major order.
func (a *Array) WriteStripe(set int, data [][]byte) error {
	if err := a.checkSet(set); err != nil {
		return err
	}
	if len(data) != a.DataBlocksPerSet() {
		return fmt.Errorf("raid: stripe set needs %d blocks, got %d", a.DataBlocksPerSet(), len(data))
	}
	for i, blk := range data {
		if len(blk) != a.blockSize {
			return fmt.Errorf("raid: block %d has %d bytes, want %d", i, len(blk), a.blockSize)
		}
	}
	for d := range a.disks {
		if a.disks[d].failed {
			return fmt.Errorf("raid: cannot write with disk %d failed (degraded writes unsupported)", d)
		}
	}
	if a.level == RAID6 {
		return a.writeStripeRDP(set, data)
	}
	return a.writeStripeXOR(set, data)
}

// writeStripeXOR writes a single-row RAID5 stripe with XOR parity.
func (a *Array) writeStripeXOR(set int, data [][]byte) error {
	parity := make([]byte, a.blockSize)
	for i, d := range a.dataDisks(set) {
		a.writeRaw(d, set, 0, data[i])
		xorInto(parity, data[i])
	}
	a.writeRaw(a.parityDisk(set), set, 0, parity)
	return nil
}

// writeStripeRDP writes a p-1 row stripe set with row and diagonal parity.
//
// Geometry: columns 0..p-2 hold data, column p-1 holds row parity, column
// p holds diagonal parity. With a virtual all-zero row p-1, diagonal d
// (0 <= d <= p-1) collects the cells (r, c) of columns 0..p-1 with
// (r + c) mod p == d; diagonals 0..p-2 are stored on the diagonal-parity
// disk (row d), and diagonal p-1 is the unstored "missing" diagonal.
func (a *Array) writeStripeRDP(set int, data [][]byte) error {
	p := a.prime
	rows := p - 1
	// Write data and accumulate row parity.
	rowParity := make([][]byte, rows)
	for r := 0; r < rows; r++ {
		rowParity[r] = make([]byte, a.blockSize)
	}
	for r := 0; r < rows; r++ {
		for c := 0; c < p-1; c++ {
			blk := data[r*(p-1)+c]
			a.writeRaw(c, set, r, blk)
			xorInto(rowParity[r], blk)
		}
	}
	for r := 0; r < rows; r++ {
		a.writeRaw(p-1, set, r, rowParity[r])
	}
	// Diagonal parity over columns 0..p-1 (data + row parity).
	for d := 0; d < p-1; d++ {
		diag := make([]byte, a.blockSize)
		for c := 0; c <= p-1; c++ {
			r := ((d-c)%p + p) % p
			if r >= rows {
				continue // virtual zero row
			}
			cell, ok := a.readRaw(c, set, r)
			if !ok {
				return fmt.Errorf("raid: internal: freshly written cell (%d,%d) unreadable", r, c)
			}
			xorInto(diag, cell)
		}
		a.writeRaw(p, set, d, diag)
	}
	return nil
}

// ReadStripe returns the user data of a stripe set, reconstructing through
// parity when disks are failed or blocks are silently corrupt. It returns
// an error if the stripe has lost more blocks than the redundancy covers —
// the block-level double-disk failure.
func (a *Array) ReadStripe(set int) ([][]byte, error) {
	if err := a.checkSet(set); err != nil {
		return nil, err
	}
	cells, err := a.recoverSet(set)
	if err != nil {
		return nil, err
	}
	out := make([][]byte, 0, a.DataBlocksPerSet())
	for r := 0; r < a.RowsPerSet(); r++ {
		for _, d := range a.dataDisks(set) {
			out = append(out, cells[r][d])
		}
	}
	return out, nil
}

// UnrecoverableError reports stripe data loss: more blocks missing than
// parity can reconstruct. This is the physical manifestation of a DDF.
type UnrecoverableError struct {
	Set  int
	Rows []int // affected rows within the set
}

// Error implements error.
func (e *UnrecoverableError) Error() string {
	return fmt.Sprintf("raid: stripe set %d unrecoverable (rows %v)", e.Set, e.Rows)
}

// recoverSet returns the full cell matrix [row][column] of a stripe set
// with erasures reconstructed, or an UnrecoverableError.
func (a *Array) recoverSet(set int) ([][][]byte, error) {
	rows := a.RowsPerSet()
	cols := len(a.disks)
	cells := make([][][]byte, rows)
	missing := make([][]bool, rows)
	for r := 0; r < rows; r++ {
		cells[r] = make([][]byte, cols)
		missing[r] = make([]bool, cols)
		for c := 0; c < cols; c++ {
			payload, ok := a.readRaw(c, set, r)
			if ok {
				cells[r][c] = clone(payload)
			} else {
				cells[r][c] = make([]byte, a.blockSize)
				missing[r][c] = true
			}
		}
	}
	if err := a.solve(set, cells, missing); err != nil {
		return nil, err
	}
	return cells, nil
}

// solve reconstructs the missing cells of a stripe set in place by
// constraint propagation: any parity chain with exactly one missing cell
// determines it; iterate to fixpoint. A RAID5 row is one chain over every
// column. An RDP set has a chain per row over columns 0..p-1 (data + row
// parity) and one per stored diagonal; Corbett et al. prove two lost
// columns always converge for prime p, and the solver also handles
// scattered block corruption up to the same budget per chain.
func (a *Array) solve(set int, cells [][][]byte, missing [][]bool) error {
	rows := a.RowsPerSet()
	rowCols := len(a.disks)
	if a.level == RAID6 {
		rowCols = a.prime // column p holds diagonal parity, outside the rows
	}
	for progress := true; progress; {
		progress = false
		// Rows: the row's parity chain XORs to zero.
		for r := 0; r < rows; r++ {
			idx, n := -1, 0
			for c := 0; c < rowCols; c++ {
				if missing[r][c] {
					idx, n = c, n+1
				}
			}
			if n == 1 {
				rec := make([]byte, a.blockSize)
				for c := 0; c < rowCols; c++ {
					if c != idx {
						xorInto(rec, cells[r][c])
					}
				}
				cells[r][idx] = rec
				missing[r][idx] = false
				progress = true
			}
		}
		if a.level == RAID6 && a.solveDiagonals(cells, missing) {
			progress = true
		}
	}
	var lost []int
	for r := 0; r < rows; r++ {
		for c := 0; c < len(a.disks); c++ {
			if missing[r][c] {
				lost = append(lost, r)
				break
			}
		}
	}
	if lost != nil {
		return &UnrecoverableError{Set: set, Rows: lost}
	}
	return nil
}

// solveDiagonals is one pass over an RDP set's stored diagonals: the
// diagonal parity cell XOR its member cells is zero, so a diagonal with
// one missing cell determines it. It reports whether any cell was filled.
func (a *Array) solveDiagonals(cells [][][]byte, missing [][]bool) bool {
	p := a.prime
	rows := p - 1
	progress := false
	for d := 0; d < p-1; d++ {
		type cell struct{ r, c int }
		idx := cell{-1, -1}
		n := 0
		if missing[d][p] {
			idx, n = cell{d, p}, n+1
		}
		for c := 0; c <= p-1; c++ {
			r := ((d-c)%p + p) % p
			if r >= rows {
				continue
			}
			if missing[r][c] {
				idx, n = cell{r, c}, n+1
			}
		}
		if n == 1 {
			rec := make([]byte, a.blockSize)
			if !(idx.r == d && idx.c == p) {
				xorInto(rec, cells[d][p])
			}
			for c := 0; c <= p-1; c++ {
				r := ((d-c)%p + p) % p
				if r >= rows || (r == idx.r && c == idx.c) {
					continue
				}
				xorInto(rec, cells[r][c])
			}
			cells[idx.r][idx.c] = rec
			missing[idx.r][idx.c] = false
			progress = true
		}
	}
	return progress
}

func clone(b []byte) []byte {
	out := make([]byte, len(b))
	copy(out, b)
	return out
}
