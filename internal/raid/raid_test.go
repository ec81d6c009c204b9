package raid

import (
	"bytes"
	"errors"
	"testing"

	"raidrel/internal/rng"
)

func fillStripes(t *testing.T, a *Array, seed uint64) [][][]byte {
	t.Helper()
	r := rng.New(seed)
	all := make([][][]byte, a.StripeSets())
	for set := 0; set < a.StripeSets(); set++ {
		data := make([][]byte, a.DataBlocksPerSet())
		for i := range data {
			blk := make([]byte, a.blockSize)
			for j := range blk {
				blk[j] = byte(r.Intn(256))
			}
			data[i] = blk
		}
		if err := a.WriteStripe(set, data); err != nil {
			t.Fatalf("write set %d: %v", set, err)
		}
		all[set] = data
	}
	return all
}

func checkData(t *testing.T, a *Array, want [][][]byte) {
	t.Helper()
	for set := range want {
		got, err := a.ReadStripe(set)
		if err != nil {
			t.Fatalf("read set %d: %v", set, err)
		}
		for i := range want[set] {
			if !bytes.Equal(got[i], want[set][i]) {
				t.Fatalf("set %d block %d corrupted", set, i)
			}
		}
	}
}

func TestNewValidation(t *testing.T) {
	cases := []struct {
		level              Level
		disks, sets, block int
	}{
		{RAID5, 2, 4, 64}, // too few disks
		{RAID5, 8, 0, 64}, // no stripes
		{RAID5, 8, 4, 0},  // no block size
		{RAID6, 7, 4, 64}, // p = 6 not prime
		{RAID6, 3, 4, 64}, // p = 2 too small
		{Level(9), 8, 4, 64},
	}
	for _, c := range cases {
		if _, err := New(c.level, c.disks, c.sets, c.block); err == nil {
			t.Errorf("New(%v, %d, %d, %d) accepted", c.level, c.disks, c.sets, c.block)
		}
	}
	if _, err := New(RAID6, 8, 4, 64); err != nil { // p = 7 prime: the paper's 8-drive group
		t.Errorf("8-disk RDP rejected: %v", err)
	}
}

func TestLevelString(t *testing.T) {
	if RAID5.String() != "RAID5" || RAID6.String() != "RAID6-RDP" {
		t.Error("level strings wrong")
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	for _, level := range []Level{RAID5, RAID6} {
		a, err := New(level, 8, 6, 64)
		if err != nil {
			t.Fatal(err)
		}
		want := fillStripes(t, a, 1)
		checkData(t, a, want)
	}
}

func TestWriteValidation(t *testing.T) {
	a, err := New(RAID5, 8, 2, 64)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.WriteStripe(5, nil); err == nil {
		t.Error("bad set accepted")
	}
	if err := a.WriteStripe(0, make([][]byte, 3)); err == nil {
		t.Error("wrong block count accepted")
	}
	data := make([][]byte, a.DataBlocksPerSet())
	for i := range data {
		data[i] = make([]byte, 63)
	}
	if err := a.WriteStripe(0, data); err == nil {
		t.Error("wrong block size accepted")
	}
}

func TestSingleDiskFailureRecovery(t *testing.T) {
	for _, level := range []Level{RAID5, RAID6} {
		a, err := New(level, 8, 5, 64)
		if err != nil {
			t.Fatal(err)
		}
		want := fillStripes(t, a, 2)
		for d := 0; d < a.Disks(); d++ {
			if err := a.FailDisk(d); err != nil {
				t.Fatal(err)
			}
			// Degraded reads reconstruct through parity.
			checkData(t, a, want)
			rep, err := a.ReplaceDisk(d)
			if err != nil {
				t.Fatal(err)
			}
			if len(rep.LostSets) != 0 {
				t.Fatalf("%v: clean rebuild of disk %d lost sets %v", level, d, rep.LostSets)
			}
			checkData(t, a, want)
		}
	}
}

func TestDoubleDiskFailureRAID5Loses(t *testing.T) {
	a, err := New(RAID5, 8, 3, 64)
	if err != nil {
		t.Fatal(err)
	}
	fillStripes(t, a, 3)
	if err := a.FailDisk(1); err != nil {
		t.Fatal(err)
	}
	if err := a.FailDisk(4); err != nil {
		t.Fatal(err)
	}
	_, err = a.ReadStripe(0)
	var unrec *UnrecoverableError
	if !errors.As(err, &unrec) {
		t.Fatalf("double failure read err = %v, want UnrecoverableError", err)
	}
	if unrec.Set != 0 {
		t.Errorf("unrecoverable set = %d", unrec.Set)
	}
}

// RDP survives every pair of whole-disk losses — exhaustive over all
// (p+1 choose 2) pairs for p = 7 (8 disks, the paper's group size).
func TestRDPAllDoubleFailuresRecover(t *testing.T) {
	for x := 0; x < 8; x++ {
		for y := x + 1; y < 8; y++ {
			a, err := New(RAID6, 8, 3, 64)
			if err != nil {
				t.Fatal(err)
			}
			want := fillStripes(t, a, uint64(100+x*8+y))
			if err := a.FailDisk(x); err != nil {
				t.Fatal(err)
			}
			if err := a.FailDisk(y); err != nil {
				t.Fatal(err)
			}
			checkData(t, a, want) // degraded double-failure read
			rep1, err := a.ReplaceDisk(x)
			if err != nil {
				t.Fatalf("replace %d (with %d failed): %v", x, y, err)
			}
			if len(rep1.LostSets) != 0 {
				t.Fatalf("pair (%d,%d): lost sets %v", x, y, rep1.LostSets)
			}
			rep2, err := a.ReplaceDisk(y)
			if err != nil {
				t.Fatal(err)
			}
			if len(rep2.LostSets) != 0 {
				t.Fatalf("pair (%d,%d): lost sets %v on second rebuild", x, y, rep2.LostSets)
			}
			checkData(t, a, want)
		}
	}
}

// Exhaustive double-failure coverage for other legal RDP sizes.
func TestRDPOtherPrimes(t *testing.T) {
	for _, disks := range []int{6, 12} { // p = 5, 11
		for x := 0; x < disks; x++ {
			for y := x + 1; y < disks; y++ {
				a, err := New(RAID6, disks, 1, 16)
				if err != nil {
					t.Fatal(err)
				}
				want := fillStripes(t, a, uint64(7000+disks*100+x*16+y))
				if err := a.FailDisk(x); err != nil {
					t.Fatal(err)
				}
				if err := a.FailDisk(y); err != nil {
					t.Fatal(err)
				}
				checkData(t, a, want)
			}
		}
	}
}

// The headline physical scenario: a latent defect on a surviving drive
// makes a RAID5 rebuild lose exactly the affected stripe set — but only
// that one — while RAID6 survives, and scrubbing first prevents the loss
// entirely.
func TestLatentDefectPlusFailure(t *testing.T) {
	t.Run("raid5 loses the stripe", func(t *testing.T) {
		a, err := New(RAID5, 8, 5, 64)
		if err != nil {
			t.Fatal(err)
		}
		fillStripes(t, a, 4)
		if err := a.CorruptBlock(2, 3, 0); err != nil { // latent defect on disk 2, set 3
			t.Fatal(err)
		}
		if err := a.FailDisk(5); err != nil { // unrelated drive dies
			t.Fatal(err)
		}
		rep, err := a.ReplaceDisk(5)
		if err != nil {
			t.Fatal(err)
		}
		if len(rep.LostSets) != 1 || rep.LostSets[0] != 3 {
			t.Fatalf("lost sets = %v, want [3]", rep.LostSets)
		}
	})
	t.Run("scrub first saves it", func(t *testing.T) {
		a, err := New(RAID5, 8, 5, 64)
		if err != nil {
			t.Fatal(err)
		}
		want := fillStripes(t, a, 4)
		if err := a.CorruptBlock(2, 3, 0); err != nil {
			t.Fatal(err)
		}
		if err := a.RepairBlock(2, 3, 0); err != nil { // the scrub reaches the defect first
			t.Fatal(err)
		}
		if err := a.FailDisk(5); err != nil {
			t.Fatal(err)
		}
		rep, err := a.ReplaceDisk(5)
		if err != nil {
			t.Fatal(err)
		}
		if len(rep.LostSets) != 0 {
			t.Fatalf("lost sets after scrub = %v", rep.LostSets)
		}
		checkData(t, a, want)
	})
	t.Run("raid6 survives without scrubbing", func(t *testing.T) {
		a, err := New(RAID6, 8, 5, 64)
		if err != nil {
			t.Fatal(err)
		}
		want := fillStripes(t, a, 4)
		if err := a.CorruptBlock(2, 3, 0); err != nil {
			t.Fatal(err)
		}
		if err := a.FailDisk(5); err != nil {
			t.Fatal(err)
		}
		rep, err := a.ReplaceDisk(5)
		if err != nil {
			t.Fatal(err)
		}
		if len(rep.LostSets) != 0 {
			t.Fatalf("RAID6 lost sets = %v", rep.LostSets)
		}
		checkData(t, a, want)
	})
}

func TestScrubRepairsScatteredCorruption(t *testing.T) {
	a, err := New(RAID5, 8, 10, 64)
	if err != nil {
		t.Fatal(err)
	}
	want := fillStripes(t, a, 5)
	// One corruption per set on different disks: all recoverable.
	for set := 0; set < 10; set++ {
		if err := a.CorruptBlock(set%8, set, 0); err != nil {
			t.Fatal(err)
		}
	}
	for set := 0; set < 10; set++ {
		if err := a.RepairBlock(set%8, set, 0); err != nil {
			t.Fatalf("repair set %d: %v", set, err)
		}
	}
	checkData(t, a, want)
	// Every repair was rewritten in place: each set survives the loss of
	// any one drive, which an unrepaired corruption on another drive
	// would make a stripe loss.
	for d := 0; d < a.Disks(); d++ {
		if err := a.FailDisk(d); err != nil {
			t.Fatal(err)
		}
		rep, err := a.ReplaceDisk(d)
		if err != nil {
			t.Fatal(err)
		}
		if len(rep.LostSets) != 0 {
			t.Fatalf("rebuild of disk %d after repair lost sets %v", d, rep.LostSets)
		}
	}
	checkData(t, a, want)
}

func TestScrubReportsDoubleCorruption(t *testing.T) {
	a, err := New(RAID5, 8, 4, 64)
	if err != nil {
		t.Fatal(err)
	}
	fillStripes(t, a, 6)
	// Two corruptions in the same (single-row) stripe beat single parity.
	if err := a.CorruptBlock(0, 2, 0); err != nil {
		t.Fatal(err)
	}
	if err := a.CorruptBlock(3, 2, 0); err != nil {
		t.Fatal(err)
	}
	for _, d := range []int{0, 3} {
		err := a.RepairBlock(d, 2, 0)
		var unrec *UnrecoverableError
		if !errors.As(err, &unrec) || unrec.Set != 2 {
			t.Fatalf("RAID5 repair of disk %d = %v, want set 2 unrecoverable", d, err)
		}
	}
	// RAID6 shrugs off the same double corruption.
	b, err := New(RAID6, 8, 4, 64)
	if err != nil {
		t.Fatal(err)
	}
	want := fillStripes(t, b, 6)
	if err := b.CorruptBlock(0, 2, 0); err != nil {
		t.Fatal(err)
	}
	if err := b.CorruptBlock(3, 2, 0); err != nil {
		t.Fatal(err)
	}
	for _, d := range []int{0, 3} {
		if err := b.RepairBlock(d, 2, 0); err != nil {
			t.Fatalf("RAID6 repair of disk %d: %v", d, err)
		}
	}
	checkData(t, b, want)
	// Both repairs were written back: two more whole-disk losses are
	// within budget again.
	for _, d := range []int{1, 5} {
		if err := b.FailDisk(d); err != nil {
			t.Fatal(err)
		}
	}
	checkData(t, b, want)
}

func TestMaintenanceValidation(t *testing.T) {
	a, err := New(RAID5, 8, 2, 64)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.FailDisk(99); err == nil {
		t.Error("bad disk accepted")
	}
	if err := a.FailDisk(2); err != nil {
		t.Fatal(err)
	}
	if err := a.FailDisk(2); err == nil {
		t.Error("double-fail accepted")
	}
	if got := a.FailedDisks(); len(got) != 1 || got[0] != 2 {
		t.Errorf("FailedDisks = %v", got)
	}
	if _, err := a.ReplaceDisk(3); err == nil {
		t.Error("replacing healthy disk accepted")
	}
	if err := a.CorruptBlock(2, 0, 0); err == nil {
		t.Error("corrupting failed disk accepted")
	}
	if err := a.CorruptBlock(0, 0, 5); err == nil {
		t.Error("bad row accepted")
	}
	data := make([][]byte, a.DataBlocksPerSet())
	for i := range data {
		data[i] = make([]byte, 64)
	}
	if err := a.WriteStripe(0, data); err == nil {
		t.Error("degraded write accepted")
	}
}

func TestGeometryAccessors(t *testing.T) {
	a, err := New(RAID6, 8, 2, 64)
	if err != nil {
		t.Fatal(err)
	}
	if a.Level() != RAID6 || a.Disks() != 8 || a.StripeSets() != 2 {
		t.Error("accessors wrong")
	}
	if a.DataBlocksPerSet() != 36 { // (p-1)^2 with p=7
		t.Errorf("DataBlocksPerSet = %d", a.DataBlocksPerSet())
	}
	if a.Redundancy() != 2 || a.RowsPerSet() != 6 { // p-1 rows
		t.Errorf("Redundancy = %d, RowsPerSet = %d", a.Redundancy(), a.RowsPerSet())
	}
	b, _ := New(RAID5, 8, 2, 64)
	if b.DataBlocksPerSet() != 7 || b.Redundancy() != 1 || b.RowsPerSet() != 1 {
		t.Error("RAID5 geometry wrong")
	}
}

// RAID5 parity rotates: the parity disk differs across consecutive sets.
func TestRAID5ParityRotation(t *testing.T) {
	a, err := New(RAID5, 4, 8, 16)
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[int]bool)
	for set := 0; set < 8; set++ {
		seen[a.parityDisk(set)] = true
	}
	if len(seen) != 4 {
		t.Errorf("parity visited %d disks, want 4", len(seen))
	}
}
