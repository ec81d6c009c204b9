// Command raidbench is raidrel's end-to-end benchmark: wall-clock time to
// a target confidence interval on the paths raidsim and raidreld users
// take, with every answer checked, and an optional traced rep that splits
// the time across the module layers. See bench/README.md.
//
//	raidbench [-seed N] [-reps R] [-seconds S] [-workloads a,b] [-trace 1] [-out DIR]
//	raidbench -compare A.json B.json
//	raidbench -reference
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"text/tabwriter"
	"time"

	"raidrel/internal/core"
)

// defaultReps is the untraced rep count per workload when neither -reps
// nor -seconds is given.
const defaultReps = 15

// childTimeout bounds one rep process.
const childTimeout = 150 * time.Second

func main() {
	os.Exit(run(context.Background(), os.Args[1:], os.Stdout, os.Stderr))
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("raidbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o benchOptions
	var names string
	fs.Uint64Var(&o.seed, "seed", 20070625, "benchmark seed; every rep's inputs derive from it")
	fs.IntVar(&o.reps, "reps", 0, fmt.Sprintf("untraced reps per workload (0 = %d, or as many as -seconds allows)", defaultReps))
	fs.Float64Var(&o.seconds, "seconds", 0, "time budget for the reps; a rep starts only if it should end within it (0 = none)")
	fs.StringVar(&names, "workloads", "", "comma-separated workloads to run (default all)")
	fs.StringVar(&names, "workload", "", "alias of -workloads")
	trace := fs.Int("trace", 0, "1 adds one traced rep per workload and reports the per-layer metrics")
	fs.StringVar(&o.out, "out", ".bench_build/raidbench", "directory for results.json, trace-*.json and scratch files")
	compare := fs.Bool("compare", false, "compare two results.json files: raidbench -compare A.json B.json")
	reference := fs.Bool("reference", false, "recompute the scrubbed-base reference estimate")
	child := fs.String("child", "", "internal: run one rep of this workload and print it as JSON")
	spawned := fs.Int64("spawned", 0, "internal: when the parent started this process, Unix ns")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintf(stderr, "raidbench: -trace must be 0 or 1, got %d\n", *trace)
		return 2
	}
	o.trace = *trace == 1
	switch {
	case *compare:
		return compareMode(fs.Args(), stdout, stderr)
	case *reference:
		return referenceMode(ctx, stdout, stderr)
	case *child != "":
		return childMode(ctx, *child, o.seed, time.Unix(0, *spawned), o.trace, o.out, stdout, stderr)
	}
	for _, n := range strings.Split(names, ",") {
		if n == "" {
			continue
		}
		w, ok := workloadByName(n)
		if !ok {
			fmt.Fprintf(stderr, "raidbench: unknown workload %q\n", n)
			return 2
		}
		o.workloads = append(o.workloads, w)
	}
	if len(o.workloads) == 0 {
		o.workloads = workloads()
	}
	return benchMode(ctx, o, stdout, stderr)
}

type benchOptions struct {
	seed      uint64
	reps      int
	seconds   float64
	workloads []workload
	trace     bool
	out       string
}

// childMode runs one rep in this process and prints it as one JSON line.
func childMode(ctx context.Context, name string, seed uint64, spawned time.Time, traced bool, out string, stdout, stderr io.Writer) int {
	w, ok := workloadByName(name)
	if !ok {
		fmt.Fprintf(stderr, "raidbench: unknown workload %q\n", name)
		return 2
	}
	root := filepath.Join(out, "scratch")
	err := os.MkdirAll(root, 0o755)
	var scratch string
	if err == nil {
		scratch, err = os.MkdirTemp(root, name+"-*")
	}
	if err != nil {
		fmt.Fprintf(stderr, "raidbench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(scratch)
	rr := runRep(ctx, w, seed, traced, repEnv{spawned: spawned, scratch: scratch, out: out, sz: fullSizes})
	if err := json.NewEncoder(stdout).Encode(rr); err != nil {
		fmt.Fprintf(stderr, "raidbench: %v\n", err)
		return 1
	}
	return 0
}

// workloadRuns accumulates one workload's reps; it is also the per-workload
// entry of results.json.
type workloadRuns struct {
	// Samples holds each untraced rep's end-to-end metrics, times
	// normalized to the reference machine speed; Raw holds them as
	// measured, and Calib each rep's calibration in ms.
	Samples map[string][]float64 `json:"samples"`
	Raw     map[string][]float64 `json:"raw"`
	Calib   []float64            `json:"calib_ms"`
	// Layers holds the traced rep's per-layer metrics.
	Layers    map[string]float64 `json:"layers,omitempty"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Failures  []string           `json:"failures,omitempty"`

	estimates []estimate
	hits      []float64
	tracedTTC float64
}

// value is the run-level value of an end-to-end metric: for hits the
// median over every hit of every untraced rep, else the median over reps.
func (wr *workloadRuns) value(name string) float64 {
	if name == "hit_p50_ms" {
		return percentile(wr.hits, 50)
	}
	return percentile(wr.Samples[name], 50)
}

// add folds in one rep; speed is the machine's calibration next to it.
func (wr *workloadRuns) add(rr repResult, speed float64) {
	wr.Attempted += rr.Attempted
	wr.Failed += rr.Failed
	wr.Failures = append(wr.Failures, rr.Failures...)
	wr.estimates = append(wr.estimates, rr.Estimates...)
	if !rr.Traced {
		for name, v := range rr.Metrics {
			wr.Raw[name] = append(wr.Raw[name], v)
		}
	}
	normalize(rr.Metrics, rr.Hits, speed)
	if rr.Traced {
		wr.Layers = rr.Layers
		wr.tracedTTC = rr.Metrics["time_to_ci_s"]
		return
	}
	for name, v := range rr.Metrics {
		wr.Samples[name] = append(wr.Samples[name], v)
	}
	wr.Calib = append(wr.Calib, speed)
	wr.hits = append(wr.hits, rr.Hits...)
}

// resultsFile is results.json, the input of -compare.
type resultsFile struct {
	Seed      uint64                   `json:"seed"`
	Workloads map[string]*workloadRuns `json:"workloads"`
}

// benchMode runs the reps, each in a fresh child process, round-robin
// across workloads, then reports and checks.
func benchMode(ctx context.Context, o benchOptions, stdout, stderr io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "raidbench: %v\n", err)
		return 1
	}
	reps := o.reps
	if reps == 0 && o.seconds == 0 {
		reps = defaultReps
	}
	start := time.Now()
	runs := make(map[string]*workloadRuns)
	for _, w := range o.workloads {
		runs[w.name] = &workloadRuns{Samples: map[string][]float64{}, Raw: map[string][]float64{}}
	}
	index := func(w workload) int {
		for i, x := range workloads() {
			if x.name == w.name {
				return i
			}
		}
		return -1
	}
	if o.trace {
		for _, w := range o.workloads {
			rr, _, speed := spawnRep(ctx, exe, w, repSeed(o.seed, index(w), -1), true, o.out, stderr)
			runs[w.name].add(rr, speed)
		}
	}
	last := make(map[string]time.Duration)
	count := make(map[string]int)
	broken := make(map[string]bool)
	for {
		ran := false
		for _, w := range o.workloads {
			n := count[w.name]
			if broken[w.name] || (reps > 0 && n >= reps) {
				continue
			}
			if o.seconds > 0 && n > 0 && (time.Since(start)+last[w.name]).Seconds() > o.seconds {
				continue
			}
			rr, d, speed := spawnRep(ctx, exe, w, repSeed(o.seed, index(w), n), false, o.out, stderr)
			runs[w.name].add(rr, speed)
			last[w.name], count[w.name], ran = d, n+1, true
			// A rep process that fails to report would fail again.
			broken[w.name] = rr.Metrics == nil
		}
		if !ran {
			break
		}
	}

	var crossFailures []string
	if a, b := runs["plain-scrub"], runs["cond-scrub"]; a != nil && b != nil && len(a.estimates) > 0 && len(b.estimates) > 0 {
		if err := agree(pooled(a.estimates), pooled(b.estimates)); err != nil {
			crossFailures = append(crossFailures, "plain-scrub vs cond-scrub: "+err.Error())
		}
	}
	for _, w := range o.workloads {
		wr := runs[w.name]
		if o.trace && wr.Layers != nil {
			wr.Layers["trace.overhead_frac"] = wr.tracedTTC/percentile(wr.Samples["time_to_ci_s"], 50) - 1
		}
	}
	if err := writeResults(o, runs); err != nil {
		fmt.Fprintf(stderr, "raidbench: %v\n", err)
	}
	return report(o, runs, crossFailures, stdout)
}

// spawnRep runs one rep in a fresh child process and returns its result,
// its wall time, and the machine's speed around it: the faster of a
// calibration just before and just after the child ran. A child that fails
// to report counts as a failed rep.
func spawnRep(ctx context.Context, exe string, w workload, seed uint64, traced bool, out string, stderr io.Writer) (repResult, time.Duration, float64) {
	ctx, cancel := context.WithTimeout(ctx, childTimeout)
	defer cancel()
	trace := "0"
	if traced {
		trace = "1"
	}
	before := calibrate()
	start := time.Now()
	cmd := exec.CommandContext(ctx, exe, "-child", w.name, "-seed", strconv.FormatUint(seed, 10),
		"-trace", trace, "-out", out, "-spawned", strconv.FormatInt(start.UnixNano(), 10))
	cmd.Stderr = stderr
	stdout, err := cmd.Output()
	d := time.Since(start)
	rr := repResult{Workload: w.name, Seed: seed, Traced: traced}
	if err == nil {
		lines := bytes.Split(bytes.TrimSpace(stdout), []byte("\n"))
		err = json.Unmarshal(lines[len(lines)-1], &rr)
	}
	if err != nil {
		rr.outcome("rep process", err)
	}
	return rr, d, min(before, calibrate())
}

func writeResults(o benchOptions, runs map[string]*workloadRuns) error {
	data, err := json.MarshalIndent(resultsFile{Seed: o.seed, Workloads: runs}, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(o.out, "results.json"), data, 0o644)
}

// metricValue is one entry of the summary line's metrics object.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report prints the human tables, then the one-line JSON summary as the
// last line of stdout, and returns the exit code: non-zero when any check
// failed or a declared metric is missing.
func report(o benchOptions, runs map[string]*workloadRuns, crossFailures []string, stdout io.Writer) int {
	tw := tabwriter.NewWriter(stdout, 2, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tvalue\trep q1\trep median\trep q3\treps\traw median\t")
	attempted, failed := len(crossFailures), len(crossFailures)
	var failures []string
	for _, w := range o.workloads {
		wr := runs[w.name]
		for _, d := range endToEnd {
			q := quartilesOf(wr.Samples[d.Name])
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.6g\t%.6g\t%.6g\t%.6g\t%d\t%.6g\t\n", w.name, d.Name, d.Unit, wr.value(d.Name), q.Q1, q.Median, q.Q3, q.N, percentile(wr.Raw[d.Name], 50))
		}
		rate := 0.0
		if wr.Attempted > 0 {
			rate = float64(wr.Failed) / float64(wr.Attempted)
		}
		fmt.Fprintf(tw, "%s\terror_rate\tfraction\t%.6g\t(%d/%d)\t\t\t\t\t\n", w.name, rate, wr.Failed, wr.Attempted)
		attempted += wr.Attempted
		failed += wr.Failed
		for _, f := range wr.Failures {
			failures = append(failures, w.name+": "+f)
		}
	}
	tw.Flush()
	if o.trace {
		fmt.Fprintln(stdout)
		tw = tabwriter.NewWriter(stdout, 2, 0, 2, ' ', tabwriter.AlignRight)
		fmt.Fprintln(tw, "workload\tlayer metric\tunit\tvalue\t")
		for _, w := range o.workloads {
			for _, d := range perLayer {
				fmt.Fprintf(tw, "%s\t%s\t%s\t%.6g\t\n", w.name, d.Name, d.Unit, runs[w.name].Layers[d.Name])
			}
		}
		tw.Flush()
	}
	for _, f := range append(failures, crossFailures...) {
		fmt.Fprintln(stdout, "FAIL", f)
	}

	decls := endToEnd
	if o.trace {
		decls = perLayer
	}
	metrics := map[string]metricValue{}
	missing := false
	for _, w := range o.workloads {
		wr := runs[w.name]
		for _, d := range decls {
			v, ok := wr.Layers[d.Name]
			if !o.trace {
				v, ok = wr.value(d.Name), len(wr.Samples[d.Name]) > 0
			}
			if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
				missing = true
				continue
			}
			key := d.Name
			if len(o.workloads) > 1 {
				key = w.name + "/" + d.Name
			}
			metrics[key] = metricValue{Value: v, Unit: d.Unit}
		}
	}
	if attempted == 0 {
		attempted = 1
		failed = 1
	}
	correct := failed == 0 && !missing
	line, _ := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{correct, attempted, failed, metrics})
	fmt.Fprintln(stdout, string(line))
	if !correct {
		return 1
	}
	return 0
}

// referenceMode recomputes the scrubbed-base reference behind scrubTruth
// with the cond-scrub configuration run to ±0.1%.
func referenceMode(ctx context.Context, stdout, stderr io.Writer) int {
	w, _ := workloadByName("cond-scrub")
	m, err := core.New(w.camp.params)
	if err == nil {
		var r *core.AdaptiveResult
		r, err = m.RunAdaptive(ctx, referenceSeed, core.AdaptiveOptions{TargetRelErr: 0.001, BatchSize: 65536})
		if err == nil {
			ci := r.Campaign.CI
			fmt.Fprintf(stdout, "referenceP  = %v\nreferenceLo = %v\nreferenceHi = %v\n(%d iterations, %s)\n",
				(ci.Lo+ci.Hi)/2, ci.Lo, ci.Hi, r.Campaign.Iterations, r.Campaign.Elapsed.Round(time.Millisecond))
			return 0
		}
	}
	fmt.Fprintf(stderr, "raidbench: %v\n", err)
	return 1
}
