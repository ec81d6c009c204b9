package sim

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"os"
	"strings"
	"testing"

	"raidrel/internal/dist"
	"raidrel/internal/rng"
)

// The golden per-stream digests in testdata/stream_digests.txt are the
// behavioural spec of every engine: each line names a run and the SHA-256
// of everything the run delivers, in iteration order. A refactor that
// leaves every digest unchanged reproduces every chronology bit for bit.
// A mismatch prints the computed line; the file is edited by hand, and
// only when a change of behaviour is intended and explained.

const digestFile = "testdata/stream_digests.txt"

// digester hashes a run's output stream: every (iteration, time, cause,
// logW) event, every VR block and every fleet chronology's statistics, in
// delivery order.
type digester struct {
	h   hash.Hash
	buf [8]byte
	// base is added to the runner's run-relative iteration index, so an
	// Offset-split run hashes the same global indices as a whole run.
	base int
	// events counts hashed DDFs (or TraceDDFs) and, on the direct path,
	// nonzero log weights, guarding against vacuous digests of event-free
	// runs.
	events int
}

func newDigester() *digester { return &digester{h: sha256.New()} }

func (d *digester) u64(v uint64) {
	binary.LittleEndian.PutUint64(d.buf[:], v)
	d.h.Write(d.buf[:])
}

func (d *digester) f64(v float64) { d.u64(math.Float64bits(v)) }

func (d *digester) Observe(iteration int, ddfs []DDF, logW float64) {
	d.events += len(ddfs)
	for _, e := range ddfs {
		d.u64(uint64(d.base + iteration))
		d.f64(e.Time)
		d.u64(uint64(e.Cause))
		d.f64(logW)
	}
}

func (d *digester) ObserveVRBlock(blockSize int, ez float64, b VRBlock) {
	d.u64(uint64(blockSize))
	d.f64(ez)
	for _, v := range [...]float64{b.Y, b.Z, b.Y2, b.C} {
		d.f64(v)
	}
	d.u64(uint64(b.N))
	d.u64(uint64(b.P))
}

func (d *digester) ObserveFleetChronology(groups int, st FleetStats) {
	d.u64(uint64(groups))
	for _, v := range [...]int{st.Failures, st.Rebuilds, st.ActiveAtEnd, st.QueuedAtEnd, st.Waited, st.MaxQueueDepth} {
		d.u64(uint64(v))
	}
	for _, v := range [...]float64{st.TotalWaitHours, st.MaxWaitHours, st.MeanQueueDepth, st.MaxExposureHours} {
		d.f64(v)
	}
}

func (d *digester) trace(iteration int, e TraceEvent) {
	if e.Kind == TraceDDF {
		d.events++
	}
	d.u64(uint64(iteration))
	d.f64(e.Time)
	d.u64(uint64(e.Kind))
	d.u64(uint64(int64(e.Slot)))
	d.u64(uint64(e.Cause))
}

// direct hashes one stream of a direct SimulateInto call: the stream
// index, every DDF, and the log weight, the weight even when the stream
// has no events (a biased stream's nonzero weight pins the weight
// bookkeeping by itself).
func (d *digester) direct(stream uint64, ddfs []DDF, logW float64) {
	d.events += len(ddfs)
	if logW != 0 {
		d.events++
	}
	d.u64(stream)
	for _, e := range ddfs {
		d.f64(e.Time)
		d.u64(uint64(e.Cause))
	}
	d.f64(logW)
}

func (d *digester) sum() string { return hex.EncodeToString(d.h.Sum(nil)) }

// digestRun describes one runner-driven digest entry: spec minus
// Iterations/Offset/Workers, the iteration count, and the Offset split
// (a multiple of the spec's unit size, so units align either way).
type digestRun struct {
	name  string
	spec  RunSpec
	iters int
	split int
}

// digestTopology returns a coupled topology over an 8-drive group: one
// enclosure over every slot plus an expander over half of them with the
// given path count.
func digestTopology(paths int) *Topology {
	return &Topology{Components: []Component{
		{Name: "enclosure", Drives: []int{0, 1, 2, 3, 4, 5, 6, 7},
			TTOp: dist.MustExponential(5e-5), TTR: dist.MustExponential(5e-3)},
		{Name: "expander", Drives: []int{0, 1, 2, 3}, Paths: paths,
			TTOp: dist.MustExponential(2e-4), TTR: dist.MustExponential(1e-2)},
	}}
}

func digestRuns() []digestRun {
	latent := fastConfig()
	latent.Trans.TTLd = dist.MustExponential(5e-4)
	latent.Trans.TTScrub = dist.MustWeibull(3, 168, 6)

	biasOp := paperBaseConfig()
	biasOp.Bias.Op = 8
	biasLd := paperBaseConfig()
	biasLd.Bias.Ld = 3

	mixed := paperBaseConfig()
	mixed.SlotTTOp = make([]dist.Distribution, mixed.Drives)
	mixed.SlotTTOp[0] = dist.MustWeibull(1.12, 200000, 0)
	mixed.SlotTTOp[3] = dist.MustExponential(1e-5)

	raid6 := latent
	raid6.Redundancy = 2
	raid6.Trans.TTLd = dist.MustExponential(8e-4)

	spares0 := latent
	spares0.Spares = &SparePolicy{Initial: 0, ReplenishHours: 48}
	spares1 := latent
	spares1.Spares = &SparePolicy{Initial: 1, ReplenishHours: 200}

	topo1 := latent
	topo1.Topology = digestTopology(1)
	topo2 := latent
	topo2.Topology = digestTopology(2)

	vr := paperBaseConfig()
	vr.VR = VR{Antithetic: true, Stratify: true, CondVariate: true, BlockSize: 64}

	ev, bl := EventEngine{}, BlockEngine{}
	return []digestRun{
		{"event/base", RunSpec{Config: paperBaseConfig(), Engine: ev}, 2000, 777},
		{"event/bias-op8", RunSpec{Config: biasOp, Engine: ev}, 2000, 777},
		{"event/bias-ld3", RunSpec{Config: biasLd, Engine: ev}, 1000, 377},
		{"event/mixed", RunSpec{Config: mixed, Engine: ev}, 2000, 777},
		{"event/raid6", RunSpec{Config: raid6, Engine: ev}, 400, 151},
		{"event/spares-0-48", RunSpec{Config: spares0, Engine: ev}, 400, 151},
		{"event/spares-1-200", RunSpec{Config: spares1, Engine: ev}, 400, 151},
		{"event/topo-paths1", RunSpec{Config: topo1, Engine: ev}, 400, 151},
		{"event/topo-paths2", RunSpec{Config: topo2, Engine: ev}, 400, 151},
		{"block/base", RunSpec{Config: paperBaseConfig(), Engine: bl}, 4000, 1536},
		{"block/bias-op8", RunSpec{Config: biasOp, Engine: bl}, 4000, 1536},
		{"block/vr-anti-strat-cond", RunSpec{Config: vr, Engine: bl}, 4000, 1536},
		{"block/base-2000", RunSpec{Config: paperBaseConfig(), Engine: bl}, 2000, 777},
		{"block/bias-op8-2000", RunSpec{Config: biasOp, Engine: bl}, 2000, 777},
		{"fleet/uncontended", RunSpec{Config: latent, Fleet: &FleetOptions{Groups: 8}}, 400, 160},
		{"fleet/shared-spares", RunSpec{Config: latent, Fleet: &FleetOptions{
			Groups: 8, SharedSpares: &SparePolicy{Initial: 1, ReplenishHours: 300}}}, 400, 160},
		{"fleet/max-rebuilds", RunSpec{Config: fastConfig(), Fleet: &FleetOptions{
			Groups: 6, MaxConcurrentRebuilds: 1}}, 600, 240},
	}
}

// digestTraced lists the SimulateTraced digest entries: the full
// TraceEvent stream of streams [0, n) of seed 11.
func digestTraced() []struct {
	name string
	cfg  Config
	n    int
} {
	spares := tracedConfig()
	spares.Spares = &SparePolicy{Initial: 0, ReplenishHours: 48}
	topo := tracedConfig()
	topo.Topology = digestTopology(1)
	return []struct {
		name string
		cfg  Config
		n    int
	}{
		{"traced/flat", tracedConfig(), 300},
		{"traced/spares-0-48", spares, 300},
		{"traced/topo-paths1", topo, 300},
	}
}

// directDigestName names the direct-path digest entry of a
// blockIdentityConfigs config: "block-direct/" plus its name, spaces
// hyphenated.
func directDigestName(name string) string {
	return "block-direct/" + strings.ReplaceAll(name, " ", "-")
}

func loadDigests(t *testing.T) map[string]string {
	t.Helper()
	f, err := os.Open(digestFile)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	want := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, sum, ok := strings.Cut(line, " ")
		if !ok {
			t.Fatalf("%s: malformed line %q", digestFile, line)
		}
		want[name] = strings.TrimSpace(sum)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return want
}

// TestStreamDigests checks every engine's output stream against its golden
// digest, each runner entry at Workers 1 and 3 and as an Offset split.
func TestStreamDigests(t *testing.T) {
	want := loadDigests(t)
	seen := map[string]bool{}
	check := func(t *testing.T, name, variant string, d *digester) {
		t.Helper()
		checkDigest(t, want, name, variant, d)
	}
	for _, dr := range digestRuns() {
		seen[dr.name] = true
		t.Run(dr.name, func(t *testing.T) {
			run := func(d *digester, iters, offset, workers int) {
				t.Helper()
				spec := dr.spec
				spec.Iterations, spec.Offset, spec.Workers, spec.Seed = iters, offset, workers, 20070625
				d.base = offset
				if err := RunCollect(spec, d); err != nil {
					t.Fatal(err)
				}
			}
			for _, workers := range []int{1, 3} {
				d := newDigester()
				run(d, dr.iters, 0, workers)
				check(t, dr.name, fmt.Sprintf("Workers %d", workers), d)
			}
			d := newDigester()
			run(d, dr.split, 0, 2)
			run(d, dr.iters-dr.split, dr.split, 2)
			check(t, dr.name, "Offset split", d)
		})
	}
	for _, tc := range digestTraced() {
		seen[tc.name] = true
		t.Run(tc.name, func(t *testing.T) {
			d := newDigester()
			var r rng.RNG
			for i := 0; i < tc.n; i++ {
				r.SeedStream(11, uint64(i))
				tr := &Trace{}
				if _, err := SimulateTraced(tc.cfg, &r, tr); err != nil {
					t.Fatal(err)
				}
				for _, e := range tr.Events {
					d.trace(i, e)
				}
			}
			check(t, tc.name, "traced", d)
		})
	}
	// The block-direct entries are checked by TestBlockEngineBitIdentity.
	for name := range blockIdentityConfigs() {
		seen[directDigestName(name)] = true
	}
	for name := range want {
		if !seen[name] {
			t.Errorf("%s lists %q, which no run produces", digestFile, name)
		}
	}
}

// checkDigest fails t unless d hashed at least one event and its sum is
// the golden digest of name.
func checkDigest(t *testing.T, want map[string]string, name, variant string, d *digester) {
	t.Helper()
	if d.events == 0 {
		t.Fatalf("%s (%s): no DDFs; digest is vacuous", name, variant)
	}
	if got := d.sum(); got != want[name] {
		t.Errorf("%s (%s) digest mismatch; computed line:\n%s %s", name, variant, name, got)
	}
}

// TestBlockEngineBitIdentity is the block engine's core contract on the
// direct SimulateInto path: for every blockIdentityConfigs config, every
// DDF time and cause and the log weight of streams [0, 2000) of seed 42
// must hash to the config's block-direct golden digest, event-free
// streams included. The goldens were recorded when the block engine
// matched the retired interval engine on every one of these streams, so
// campaigns and checkpoints recorded under either replay unchanged.
func TestBlockEngineBitIdentity(t *testing.T) {
	want := loadDigests(t)
	for name, cfg := range blockIdentityConfigs() {
		key := directDigestName(name)
		if _, ok := want[key]; !ok {
			t.Fatalf("%s has no %q line", digestFile, key)
		}
		t.Run(name, func(t *testing.T) {
			d := newDigester()
			var r rng.RNG
			var buf []DDF
			for stream := uint64(0); stream < 2000; stream++ {
				r.SeedStream(42, stream)
				var logW float64
				var err error
				buf, logW, err = BlockEngine{}.SimulateInto(cfg, &r, buf[:0])
				if err != nil {
					t.Fatal(err)
				}
				d.direct(stream, buf, logW)
			}
			checkDigest(t, want, key, "SimulateInto", d)
		})
	}
}
