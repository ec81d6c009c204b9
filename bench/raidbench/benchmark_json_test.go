package main

import (
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// BENCHMARK.json must satisfy its schema limits and declare exactly the
// metrics raidbench emits, and every layer prediction must name a declared
// end-to-end metric and workload.
func TestBenchmarkJSON(t *testing.T) {
	bf, err := loadBenchmarkFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if n := len(bf.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	if n := len(bf.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(bf.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	if len(bf.Paths) != 1 || bf.Paths[0] != "bench" {
		t.Errorf("paths %v, want [bench]", bf.Paths)
	}
	if bf.RunSeconds < 1 || bf.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside 1..60", bf.RunSeconds)
	}

	seen := map[string]bool{}
	name := func(kind, n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("%s name %q is not a valid metric or workload name", kind, n)
		}
		if seen[n] {
			t.Errorf("%s name %q used twice", kind, n)
		}
		seen[n] = true
	}
	workloadNames := map[string]bool{}
	for i, w := range bf.Workloads {
		name("workload", w.Name)
		workloadNames[w.Name] = true
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of 1..200 characters", w.Name)
		}
		if i >= len(workloads()) || workloads()[i].name != w.Name {
			t.Errorf("workload %d is %s; raidbench runs %v", i, w.Name, workloads())
		}
	}
	if len(bf.Workloads) != len(workloads()) {
		t.Errorf("BENCHMARK.json declares %d workloads, raidbench runs %d", len(bf.Workloads), len(workloads()))
	}

	e2e := map[string]bool{}
	if len(bf.EndToEnd) != len(endToEnd) {
		t.Errorf("BENCHMARK.json declares %d end-to-end metrics, raidbench emits %d", len(bf.EndToEnd), len(endToEnd))
	}
	for i, m := range bf.EndToEnd {
		name("end-to-end", m.Name)
		e2e[m.Name] = true
		if i < len(endToEnd) {
			if d := endToEnd[i]; d.Name != m.Name || d.Unit != m.Unit || d.Better != m.Better {
				t.Errorf("end-to-end metric %d is %s %s %s; raidbench emits %s %s %s", i, m.Name, m.Unit, m.Better, d.Name, d.Unit, d.Better)
			}
		}
		if !(m.Bound > 0 && m.Bound <= 0.25) {
			t.Errorf("%s bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if !e2e["setup_s"] {
		t.Error("no setup_s end-to-end metric")
	}
	if len(bf.PerLayer) != len(perLayer) {
		t.Errorf("BENCHMARK.json declares %d per-layer metrics, raidbench emits %d", len(bf.PerLayer), len(perLayer))
	}
	for i, m := range bf.PerLayer {
		name("per-layer", m.Name)
		if i < len(perLayer) {
			if d := perLayer[i]; d.Name != m.Name || d.Unit != m.Unit || d.Better != m.Better {
				t.Errorf("per-layer metric %d is %s %s %s; raidbench emits %s %s %s", i, m.Name, m.Unit, m.Better, d.Name, d.Unit, d.Better)
			}
		}
	}

	for _, d := range append(append([]metricDecl(nil), endToEnd...), perLayer...) {
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("%s: better %q", d.Name, d.Better)
		}
		if !regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`).MatchString(d.Unit) {
			t.Errorf("%s: unit %q", d.Name, d.Unit)
		}
	}
	for _, d := range perLayer {
		for _, mv := range d.Moves {
			metric, ws, ok := strings.Cut(mv, "@")
			if !ok || !e2e[metric] {
				t.Errorf("%s moves %q: not a declared end-to-end metric", d.Name, mv)
			}
			for _, w := range strings.Split(ws, ",") {
				if !workloadNames[w] {
					t.Errorf("%s moves %q: %q is not a declared workload", d.Name, mv, w)
				}
			}
		}
		for _, ws := range d.Little {
			for _, w := range strings.Split(ws, ",") {
				if !workloadNames[w] {
					t.Errorf("%s: little-work workload %q not declared", d.Name, w)
				}
			}
		}
	}
}
