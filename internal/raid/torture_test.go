package raid

import (
	"bytes"
	"cmp"
	"errors"
	"slices"
	"testing"

	"raidrel/internal/rng"
)

// tortureState tracks what the array's content must be: a shadow copy of
// every stripe set plus the corruptions currently outstanding.
type tortureState struct {
	shadow      [][][]byte      // set -> data blocks
	corruptions map[[3]int]bool // (disk, set, row) currently corrupt
	deadSets    map[int]bool    // sets declared lost (zero-filled)
}

// TestTortureRandomOperations drives each layout through long random
// sequences of writes, silent corruptions, block repairs, failures, and
// rebuilds, checking after every step that reads return exactly the
// shadow data (or a predicted loss) — never silent garbage.
func TestTortureRandomOperations(t *testing.T) {
	levels := []Level{RAID5, RAID6}
	for _, level := range levels {
		level := level
		t.Run(level.String(), func(t *testing.T) {
			r := rng.New(uint64(4242 + int(level)))
			const (
				disks      = 8
				sets       = 12
				blockSize  = 24
				operations = 400
			)
			a, err := New(level, disks, sets, blockSize)
			if err != nil {
				t.Fatal(err)
			}
			st := &tortureState{
				shadow:      make([][][]byte, sets),
				corruptions: make(map[[3]int]bool),
				deadSets:    make(map[int]bool),
			}
			// Initial content.
			for set := 0; set < sets; set++ {
				st.shadow[set] = randomStripe(a, r)
				if err := a.WriteStripe(set, st.shadow[set]); err != nil {
					t.Fatal(err)
				}
			}
			rows := a.RowsPerSet()
			for op := 0; op < operations; op++ {
				switch r.Intn(5) {
				case 0: // rewrite a stripe (only on a healthy array)
					if len(a.FailedDisks()) > 0 {
						continue
					}
					set := r.Intn(sets)
					st.shadow[set] = randomStripe(a, r)
					if err := a.WriteStripe(set, st.shadow[set]); err != nil {
						t.Fatalf("op %d write: %v", op, err)
					}
					delete(st.deadSets, set)
					// A full-stripe write overwrites any corruption in it.
					for key := range st.corruptions {
						if key[1] == set {
							delete(st.corruptions, key)
						}
					}
				case 1: // silent corruption on a live disk
					d := r.Intn(disks)
					if slices.Contains(a.FailedDisks(), d) {
						continue
					}
					key := [3]int{d, r.Intn(sets), r.Intn(rows)}
					if st.corruptions[key] {
						continue // double-XOR would self-cancel
					}
					if err := a.CorruptBlock(key[0], key[1], key[2]); err != nil {
						t.Fatalf("op %d corrupt: %v", op, err)
					}
					st.corruptions[key] = true
				case 2: // scrub reaches one recorded corruption
					if len(st.corruptions) == 0 {
						continue
					}
					key := pickCorruption(st, r)
					err := a.RepairBlock(key[0], key[1], key[2])
					var unrec *UnrecoverableError
					switch {
					case err == nil:
						delete(st.corruptions, key)
					case errors.As(err, &unrec):
						// Beyond redundancy: the corruption stays.
					default:
						t.Fatalf("op %d repair: %v", op, err)
					}
				case 3: // fail a disk (respect the layout's redundancy)
					if len(a.FailedDisks()) >= a.Redundancy() {
						continue
					}
					alive := aliveList(a)
					d := alive[r.Intn(len(alive))]
					if err := a.FailDisk(d); err != nil {
						t.Fatalf("op %d fail: %v", op, err)
					}
					// The dead disk's corruptions vanish with it.
					for key := range st.corruptions {
						if key[0] == d {
							delete(st.corruptions, key)
						}
					}
				case 4: // rebuild one failed disk
					failed := a.FailedDisks()
					if len(failed) == 0 {
						continue
					}
					d := failed[r.Intn(len(failed))]
					rep, err := a.ReplaceDisk(d)
					if err != nil {
						t.Fatalf("op %d rebuild: %v", op, err)
					}
					applyRebuild(st, a, rep)
				}
				verifyTorture(t, a, st, op)
			}
		})
	}
}

func randomStripe(a *Array, r *rng.RNG) [][]byte {
	data := make([][]byte, a.DataBlocksPerSet())
	for i := range data {
		blk := make([]byte, a.blockSize)
		for j := range blk {
			blk[j] = byte(r.Intn(256))
		}
		data[i] = blk
	}
	return data
}

func aliveList(a *Array) []int {
	failed := make(map[int]bool)
	for _, d := range a.FailedDisks() {
		failed[d] = true
	}
	var out []int
	for d := 0; d < a.Disks(); d++ {
		if !failed[d] {
			out = append(out, d)
		}
	}
	return out
}

// pickCorruption draws one outstanding corruption, deterministically
// for a given RNG state despite map iteration order.
func pickCorruption(st *tortureState, r *rng.RNG) [3]int {
	keys := make([][3]int, 0, len(st.corruptions))
	for key := range st.corruptions {
		keys = append(keys, key)
	}
	slices.SortFunc(keys, func(x, y [3]int) int {
		return cmp.Or(cmp.Compare(x[0], y[0]), cmp.Compare(x[1], y[1]), cmp.Compare(x[2], y[2]))
	})
	return keys[r.Intn(len(keys))]
}

// applyRebuild zero-fills shadows of lost sets and clears corruption
// records the rebuild settled.
func applyRebuild(st *tortureState, a *Array, rep *RebuildReport) {
	for _, set := range rep.LostSets {
		st.deadSets[set] = true
		zero := make([][]byte, a.DataBlocksPerSet())
		for i := range zero {
			zero[i] = make([]byte, a.blockSize)
		}
		st.shadow[set] = zero
		for key := range st.corruptions {
			if key[1] == set {
				delete(st.corruptions, key)
			}
		}
	}
	// Corruptions the reconstruction consumed: any corruption in a set the
	// rebuild visited stays unless the set was lost — reconstruction reads
	// around corrupt blocks but does not repair them. Nothing to do.
}

// verifyTorture reads every stripe set and checks the oracle.
func verifyTorture(t *testing.T, a *Array, st *tortureState, op int) {
	t.Helper()
	// Predict which sets might legitimately fail to read: erased blocks
	// (failed disks) plus corruptions beyond redundancy in that set.
	failed := len(a.FailedDisks())
	corruptPerSet := make(map[int]int)
	for key := range st.corruptions {
		corruptPerSet[key[1]]++
	}
	for set := 0; set < a.StripeSets(); set++ {
		data, err := a.ReadStripe(set)
		if err != nil {
			var unrec *UnrecoverableError
			if !errors.As(err, &unrec) {
				t.Fatalf("op %d set %d: unexpected error %v", op, set, err)
			}
			if failed+corruptPerSet[set] <= a.Redundancy() && !st.deadSets[set] {
				t.Fatalf("op %d set %d: unrecoverable with only %d failed + %d corrupt",
					op, set, failed, corruptPerSet[set])
			}
			continue
		}
		for i := range st.shadow[set] {
			if !bytes.Equal(data[i], st.shadow[set][i]) {
				t.Fatalf("op %d set %d block %d: silent data corruption returned to reader",
					op, set, i)
			}
		}
	}
}
