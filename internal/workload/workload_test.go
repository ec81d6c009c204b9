package workload

import (
	"math"
	"testing"
)

func TestDefectRate(t *testing.T) {
	rate, err := DefectRate(RERMedium, ReadRateLow)
	if err != nil {
		t.Fatal(err)
	}
	// The base-case cell: 8e-14 × 1.35e9 = 1.08e-4 errors/hour.
	if math.Abs(rate-1.08e-4) > 1e-9 {
		t.Errorf("rate = %v, want 1.08e-4", rate)
	}
	if _, err := DefectRate(0, 1); err == nil {
		t.Error("zero RER accepted")
	}
	if _, err := DefectRate(1, math.Inf(1)); err == nil {
		t.Error("infinite read rate accepted")
	}
}

// Table 1 reproduces the paper's six-cell grid exactly.
func TestTable1Grid(t *testing.T) {
	cells := Table1()
	if len(cells) != 6 {
		t.Fatalf("%d cells", len(cells))
	}
	want := []struct {
		rer, read string
		rate      float64
	}{
		{"low", "low", 1.08e-5},
		{"low", "high", 1.08e-4},
		{"medium", "low", 1.08e-4},
		{"medium", "high", 1.08e-3},
		{"high", "low", 4.32e-4},
		{"high", "high", 4.32e-3},
	}
	for i, w := range want {
		c := cells[i]
		if c.RERName != w.rer || c.ReadRateName != w.read {
			t.Errorf("cell %d = %s/%s, want %s/%s", i, c.RERName, c.ReadRateName, w.rer, w.read)
		}
		if math.Abs(c.ErrorsPerHour-w.rate)/w.rate > 1e-9 {
			t.Errorf("cell %d rate = %v, want %v", i, c.ErrorsPerHour, w.rate)
		}
	}
}

func TestProfilesSane(t *testing.T) {
	for _, p := range []Profile{Archive, Nearline, Transactional} {
		if p.Name == "" || p.BytesPerHour <= 0 {
			t.Errorf("profile %+v malformed", p)
		}
		if p.ForegroundShare < 0 || p.ForegroundShare >= 1 {
			t.Errorf("profile %s share %v", p.Name, p.ForegroundShare)
		}
	}
	if !(Archive.BytesPerHour < Nearline.BytesPerHour &&
		Nearline.BytesPerHour < Transactional.BytesPerHour) {
		t.Error("profile read volumes not ordered")
	}
}
