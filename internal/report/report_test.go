package report

import (
	"strings"
	"testing"
)

func TestTableRendering(t *testing.T) {
	tb := NewTable("name", "value")
	tb.AddRow("alpha", "1")
	tb.AddRow("beta-long-name", "22")
	tb.AddRow("partial")
	var sb strings.Builder
	if err := tb.Render(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 {
		t.Fatalf("got %d lines:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[0], "name") {
		t.Errorf("header = %q", lines[0])
	}
	if !strings.Contains(lines[3], "22") {
		t.Errorf("row = %q", lines[3])
	}
	// Columns align: "value" column of row 2 starts at the same offset as
	// in the header.
	if strings.Index(lines[0], "value") != strings.Index(lines[2], "1") {
		t.Error("columns not aligned")
	}
}

func TestCSV(t *testing.T) {
	var sb strings.Builder
	err := CSV(&sb, "t", []float64{0, 1}, []string{"a", "b"},
		[][]float64{{10, 20}, {30, 40}})
	if err != nil {
		t.Fatal(err)
	}
	want := "t,a,b\n0,10,30\n1,20,40\n"
	if sb.String() != want {
		t.Errorf("CSV = %q, want %q", sb.String(), want)
	}
}

func TestCSVValidation(t *testing.T) {
	var sb strings.Builder
	if err := CSV(&sb, "t", []float64{0}, []string{"a"}, [][]float64{{1, 2}}); err == nil {
		t.Error("ragged series accepted")
	}
	if err := CSV(&sb, "t", []float64{0}, []string{"a", "b"}, [][]float64{{1}}); err == nil {
		t.Error("name/series mismatch accepted")
	}
}

func TestLinePlot(t *testing.T) {
	x := []float64{0, 1, 2, 3, 4}
	p := NewLinePlot("demo", x)
	p.XLabel = "hours"
	if err := p.Add("up", []float64{0, 1, 2, 3, 4}); err != nil {
		t.Fatal(err)
	}
	if err := p.Add("down", []float64{4, 3, 2, 1, 0}); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := p.Render(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "demo") || !strings.Contains(out, "legend") {
		t.Errorf("missing title/legend:\n%s", out)
	}
	if !strings.Contains(out, "*") || !strings.Contains(out, "o") {
		t.Error("markers missing")
	}
	if !strings.Contains(out, "hours") {
		t.Error("x label missing")
	}
}

func TestLinePlotValidation(t *testing.T) {
	p := NewLinePlot("x", []float64{0, 1})
	if err := p.Add("bad", []float64{1}); err == nil {
		t.Error("ragged series accepted")
	}
	var sb strings.Builder
	if err := p.Render(&sb); err == nil {
		t.Error("empty plot rendered")
	}
}

func TestTimingDiagram(t *testing.T) {
	d := &TimingDiagram{
		Title:   "demo",
		Horizon: 100,
		Width:   50,
		Lanes: []TimingLane{
			{Label: "slot 0", Down: [][2]float64{{10, 20}}},
			{Label: "slot 1", Defects: [][2]float64{{40, 60}}},
		},
		Marks: []TimingMark{{Time: 50, Label: 'L'}},
	}
	var sb strings.Builder
	if err := d.Render(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "demo") {
		t.Error("title missing")
	}
	if !strings.Contains(out, "#") {
		t.Error("down glyphs missing")
	}
	if !strings.Contains(out, "~") {
		t.Error("defect glyphs missing")
	}
	if !strings.Contains(out, "L") {
		t.Error("mark missing")
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 { // title + 2 lanes + marks + axis
		t.Errorf("%d lines:\n%s", len(lines), out)
	}
}

func TestTimingDiagramValidation(t *testing.T) {
	var sb strings.Builder
	if err := (&TimingDiagram{Horizon: 0, Lanes: []TimingLane{{}}}).Render(&sb); err == nil {
		t.Error("zero horizon accepted")
	}
	if err := (&TimingDiagram{Horizon: 10}).Render(&sb); err == nil {
		t.Error("no lanes accepted")
	}
}

func TestTimingDiagramClampsOutOfRange(t *testing.T) {
	d := &TimingDiagram{
		Horizon: 100,
		Width:   30,
		Lanes:   []TimingLane{{Label: "s", Down: [][2]float64{{-10, 500}}}},
	}
	var sb strings.Builder
	if err := d.Render(&sb); err != nil {
		t.Fatalf("out-of-range intervals should clamp, got %v", err)
	}
}

func TestLinePlotFlatSeries(t *testing.T) {
	p := NewLinePlot("flat", []float64{0, 1, 2})
	if err := p.Add("zero", []float64{0, 0, 0}); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := p.Render(&sb); err != nil {
		t.Fatalf("flat series failed: %v", err)
	}
}
