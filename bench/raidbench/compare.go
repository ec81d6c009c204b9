package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"text/tabwriter"

	"raidrel/internal/rng"
	"raidrel/internal/stats"
)

// benchmarkFile is BENCHMARK.json.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// findBenchmarkFile returns the nearest BENCHMARK.json in the working
// directory or its parents.
func findBenchmarkFile() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		path := filepath.Join(dir, "BENCHMARK.json")
		if _, err := os.Stat(path); err == nil || !errors.Is(err, fs.ErrNotExist) {
			return path, err
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("no BENCHMARK.json in the working directory or its parents")
		}
		dir = parent
	}
}

// loadBenchmarkFile reads BENCHMARK.json. Unknown keys are an error: the
// file's schema is fixed.
func loadBenchmarkFile(path string) (*benchmarkFile, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	dec := json.NewDecoder(f)
	dec.DisallowUnknownFields()
	var bf benchmarkFile
	if err := dec.Decode(&bf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &bf, nil
}

func loadResults(path string) (*resultsFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rf resultsFile
	if err := json.Unmarshal(data, &rf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rf, nil
}

// winFraction is the share of all (a, b) pairs in which b is better than
// a; ties count for neither side.
func winFraction(a, b []float64, better string) float64 {
	if len(a) == 0 || len(b) == 0 {
		return 0
	}
	wins := 0
	for _, x := range a {
		for _, y := range b {
			if (better == "higher" && y > x) || (better == "lower" && y < x) {
				wins++
			}
		}
	}
	return float64(wins) / float64(len(a)*len(b))
}

// medianSpread is how far the median of a set of reps like xs moves from
// set to set: the interquartile range of its bootstrap distribution, as a
// share of the median. The fixed RNG seed keeps -compare deterministic.
func medianSpread(xs []float64) float64 {
	median := func(s []float64) float64 { return percentile(s, 50) }
	iv, err := stats.BootstrapCI(xs, 0.5, 2000, rng.New(1), median)
	if err != nil {
		return math.Inf(1)
	}
	return (iv.Hi - iv.Lo) / math.Abs(median(xs))
}

// judge classifies B's reps against A's for one metric and returns the
// share of pairs B wins. It is "regressed" when B's median is worse by
// more than bound and the runs resolve it, "unresolved" when either
// median's spread exceeds the bound (unless every B rep beats every A
// rep), and "ok" otherwise.
func judge(a, b []float64, better string, bound float64) (float64, string) {
	win := winFraction(a, b, better)
	ma, mb := percentile(a, 50), percentile(b, 50)
	worse := (mb - ma) / ma
	if better == "higher" {
		worse = -worse
	}
	noisy := max(medianSpread(a), medianSpread(b)) > bound
	switch {
	case worse > bound && (!noisy || win == 0):
		return win, "regressed"
	case noisy && win < 1:
		return win, "unresolved"
	default:
		return win, "ok"
	}
}

// calibStateRatio is how far apart two runs' median calibrations may be
// before -compare calls their normalized metrics unresolved. The
// workloads' measured elasticities (0.7 to 0.9) straddle the declared
// 0.75, so across a calibration ratio r normalization can leave up to
// r^0.15 of the machine's change in: 6% at 1.5, a quarter of a 25% bound.
const calibStateRatio = 1.5

// sameMachineState reports whether two runs' per-rep calibrations (ms)
// have medians within calibStateRatio of each other.
func sameMachineState(a, b []float64) bool {
	ma, mb := percentile(a, 50), percentile(b, 50)
	return max(ma, mb) <= calibStateRatio*min(ma, mb)
}

// elasticity is the declared elasticity of an end-to-end metric.
func elasticity(name string) float64 {
	for _, d := range endToEnd {
		if d.Name == name {
			return d.Elasticity
		}
	}
	return 0
}

// compareMode prints, for each workload and end-to-end metric, both sides'
// medians and rep quartiles, the share of rep pairs B wins, both sides'
// median calibrations, and a verdict against the BENCHMARK.json bound. A
// normalized metric is unresolved when the two runs were made in different
// machine states. It exits 1 when anything regressed.
func compareMode(args []string, stdout, stderr io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(stderr, "usage: raidbench -compare A.json B.json")
		return 2
	}
	var bf *benchmarkFile
	var a, b *resultsFile
	path, err := findBenchmarkFile()
	if err == nil {
		bf, err = loadBenchmarkFile(path)
	}
	if err == nil {
		a, err = loadResults(args[0])
	}
	if err == nil {
		b, err = loadResults(args[1])
	}
	if err != nil {
		fmt.Fprintf(stderr, "raidbench: %v\n", err)
		return 1
	}
	tw := tabwriter.NewWriter(stdout, 2, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tA median [q1, q3] n\tB median [q1, q3] n\tB wins\tcalib A/B ms\tverdict")
	regressed := false
	for _, w := range workloads() {
		wa, wb := a.Workloads[w.name], b.Workloads[w.name]
		if wa == nil || wb == nil {
			continue
		}
		same := sameMachineState(wa.Calib, wb.Calib)
		for _, m := range bf.EndToEnd {
			xa, xb := wa.Samples[m.Name], wb.Samples[m.Name]
			qa, qb := quartilesOf(xa), quartilesOf(xb)
			win, v := judge(xa, xb, m.Better, m.Bound)
			if !same && elasticity(m.Name) > 0 {
				v = "unresolved: machine states differ"
			}
			regressed = regressed || v == "regressed"
			fmt.Fprintf(tw, "%s\t%s\t%.4g [%.4g, %.4g] %d\t%.4g [%.4g, %.4g] %d\t%.2f\t%.3g/%.3g\t%s (bound %.0f%%)\n",
				w.name, m.Name, qa.Median, qa.Q1, qa.Q3, qa.N, qb.Median, qb.Q1, qb.Q3, qb.N, win,
				percentile(wa.Calib, 50), percentile(wb.Calib, 50), v, m.Bound*100)
		}
	}
	tw.Flush()
	if regressed {
		return 1
	}
	return 0
}
