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

func TestDutyCycle(t *testing.T) {
	d := DutyCycle{PeriodHours: 168, BusyHours: 48, BusyBytesPerHour: 1.35e10, IdleBytesPerHour: 1.35e9}
	fn, max, err := d.DefectRateFunc(RERMedium)
	if err != nil {
		t.Fatal(err)
	}
	busyRate := RERMedium * 1.35e10
	idleRate := RERMedium * 1.35e9
	if max != busyRate {
		t.Errorf("max = %v, want %v", max, busyRate)
	}
	// Inside the busy window.
	if got := fn(10); got != busyRate {
		t.Errorf("fn(10) = %v, want busy %v", got, busyRate)
	}
	// Inside the idle window, and periodic.
	if got := fn(100); got != idleRate {
		t.Errorf("fn(100) = %v, want idle %v", got, idleRate)
	}
	if fn(10+168) != fn(10) || fn(100+336) != fn(100) {
		t.Error("rate not periodic")
	}
	mean, err := d.MeanRate(RERMedium)
	if err != nil {
		t.Fatal(err)
	}
	want := (48*busyRate + 120*idleRate) / 168
	if math.Abs(mean-want)/want > 1e-12 {
		t.Errorf("mean rate = %v, want %v", mean, want)
	}
}

func TestDutyCycleValidation(t *testing.T) {
	bad := []DutyCycle{
		{PeriodHours: 0, BusyHours: 0, BusyBytesPerHour: 1},
		{PeriodHours: 10, BusyHours: 11, BusyBytesPerHour: 1},
		{PeriodHours: 10, BusyHours: 5, BusyBytesPerHour: 0},
		{PeriodHours: 10, BusyHours: 5, BusyBytesPerHour: 1, IdleBytesPerHour: -1},
	}
	for i, d := range bad {
		if err := d.Validate(); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
	good := DutyCycle{PeriodHours: 10, BusyHours: 5, BusyBytesPerHour: 1}
	if _, _, err := good.DefectRateFunc(0); err == nil {
		t.Error("zero RER accepted")
	}
	if _, err := good.MeanRate(-1); err == nil {
		t.Error("negative RER accepted")
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
