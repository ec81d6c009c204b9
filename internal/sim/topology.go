package sim

import (
	"fmt"
	"math"
	"strings"

	"raidrel/internal/dist"
)

// Component is one shared, non-drive part of a RAID group — an enclosure,
// expander, or controller — whose failure renders every covered drive slot
// simultaneously inaccessible. Components carry their own operational-
// failure and repair distributions and alternate between up and down like
// drives do, but a component failure is *not* data loss: the drives come
// back when the component is repaired. While a covering component is down,
// a covered drive cannot serve reads and an in-flight rebuild of a covered
// slot makes no progress (it resumes, with its remaining repair time, when
// access is restored) — that paused-rebuild window is how shared hardware
// stretches the DDF exposure window.
type Component struct {
	// Name identifies the component in errors, traces, and fingerprints.
	Name string
	// Drives lists the drive slots (0-based) the component carries. A
	// slot is inaccessible while any covering component is down.
	Drives []int
	// Paths is the number of redundant instances of the component (dual
	// porting, paired expanders): the component is down only while all
	// Paths instances are simultaneously failed. 0 means 1.
	Paths int
	// TTOp is one instance's time to failure, measured from (re)entry
	// into service. TTR is one instance's repair time.
	TTOp dist.Distribution
	TTR  dist.Distribution
}

// paths returns the effective path count (Paths, defaulting to 1).
func (c Component) paths() int {
	if c.Paths <= 0 {
		return 1
	}
	return c.Paths
}

// Topology describes the shared-component structure of a RAID group. The
// zero value (and nil) is the flat, drive-only topology the paper models:
// no shared hardware, every slot independent. A topology with components
// couples the slots and is supported by the event engine only — like
// Spares, the coupling cannot be expressed by the per-slot precomputed
// engines.
type Topology struct {
	Components []Component
}

// Coupled reports whether the topology actually couples drive slots — i.e.
// whether it carries any components. A nil or empty topology is flat and
// compiles down to exactly the per-drive model.
func (t *Topology) Coupled() bool {
	return t != nil && len(t.Components) > 0
}

// Validate checks the topology against a group of the given size.
func (t *Topology) Validate(drives int) error {
	if !t.Coupled() {
		return nil
	}
	seen := make(map[string]bool, len(t.Components))
	for i, c := range t.Components {
		if c.Name == "" {
			return fmt.Errorf("sim: topology component %d has no name", i)
		}
		if seen[c.Name] {
			return fmt.Errorf("sim: duplicate topology component name %q", c.Name)
		}
		seen[c.Name] = true
		if c.Paths < 0 {
			return fmt.Errorf("sim: component %q has negative path count %d", c.Name, c.Paths)
		}
		if len(c.Drives) == 0 {
			return fmt.Errorf("sim: component %q covers no drive slots", c.Name)
		}
		cov := make(map[int]bool, len(c.Drives))
		for _, d := range c.Drives {
			if d < 0 || d >= drives {
				return fmt.Errorf("sim: component %q covers slot %d, outside the group's %d drives", c.Name, d, drives)
			}
			if cov[d] {
				return fmt.Errorf("sim: component %q covers slot %d twice", c.Name, d)
			}
			cov[d] = true
		}
		if c.TTOp == nil {
			return fmt.Errorf("sim: component %q needs a TTOp distribution", c.Name)
		}
		if c.TTR == nil {
			return fmt.Errorf("sim: component %q needs a TTR distribution", c.Name)
		}
	}
	return nil
}

// String renders the topology deterministically — the campaign fingerprint
// hashes it, so two specs describing the same coupled topology must print
// identically.
func (t *Topology) String() string {
	if !t.Coupled() {
		return "flat"
	}
	var b strings.Builder
	for i, c := range t.Components {
		if i > 0 {
			b.WriteByte(';')
		}
		fmt.Fprintf(&b, "%s{paths=%d,drives=%v,ttop=%v,ttr=%v}", c.Name, c.paths(), c.Drives, c.TTOp, c.TTR)
	}
	return b.String()
}

// topoScratch is the event engine's reusable per-run component state. All
// slices persist across iterations; attach resizes and zeroes them. When
// the configuration is flat, topo stays nil and the engine's hot loop pays
// a single pointer check per availability-relevant event.
type topoScratch struct {
	topo *Topology

	// Compiled per-component sampler kernels. Component draws are never
	// tilted under Bias: their likelihood-ratio factor is exactly 1, so
	// importance-sampled runs remain unbiased with coupled topologies.
	ttopK, ttrK []dist.Kernel

	// instComp maps a path-instance index to its component. Instances are
	// numbered component-major: component c's instances occupy
	// [instBase(c), instBase(c)+paths).
	instComp []int32
	// down counts each component's currently failed path instances; the
	// component is down while down[c] == paths(c).
	down []int32

	// inacc counts, per drive slot, the fully-down components covering it.
	inacc []int32
	// paused marks slots whose rebuild is held because the slot is
	// inaccessible; pending holds the remaining repair hours to run once
	// access returns.
	paused  []bool
	pending []float64
	// restoreID invalidates a slot's queued restore event when a pause
	// cancels it mid-rebuild: the event carries the id it was scheduled
	// with and is dropped if the slot's current id moved on.
	restoreID []int64

	// unavailable tracks whether the group is currently in a
	// data-unavailability episode (more than Redundancy slots lost, to
	// failure or inaccessibility); onset events are recorded only on the
	// available→unavailable transition.
	unavailable bool
}

// attach compiles cfg's topology into the scratch. Flat configurations
// leave topo nil and cost nothing per event.
func (tp *topoScratch) attach(cfg *Config) {
	if !cfg.Topology.Coupled() {
		tp.topo = nil
		return
	}
	t := cfg.Topology
	tp.topo = t
	nc := len(t.Components)
	if cap(tp.ttopK) < nc {
		tp.ttopK = make([]dist.Kernel, nc)
		tp.ttrK = make([]dist.Kernel, nc)
		tp.down = make([]int32, nc)
	}
	tp.ttopK, tp.ttrK, tp.down = tp.ttopK[:nc], tp.ttrK[:nc], tp.down[:nc]
	ni := 0
	for c, comp := range t.Components {
		tp.ttopK[c] = dist.Compile(comp.TTOp)
		tp.ttrK[c] = dist.Compile(comp.TTR)
		tp.down[c] = 0
		ni += comp.paths()
	}
	if cap(tp.instComp) < ni {
		tp.instComp = make([]int32, ni)
	}
	tp.instComp = tp.instComp[:ni]
	i := 0
	for c, comp := range t.Components {
		for p := 0; p < comp.paths(); p++ {
			tp.instComp[i] = int32(c)
			i++
		}
	}
	n := cfg.Drives
	if cap(tp.inacc) < n {
		tp.inacc = make([]int32, n)
		tp.paused = make([]bool, n)
		tp.pending = make([]float64, n)
		tp.restoreID = make([]int64, n)
	}
	tp.inacc, tp.paused = tp.inacc[:n], tp.paused[:n]
	tp.pending, tp.restoreID = tp.pending[:n], tp.restoreID[:n]
	for s := 0; s < n; s++ {
		tp.inacc[s], tp.paused[s], tp.pending[s], tp.restoreID[s] = 0, false, 0, 0
	}
	tp.unavailable = false
}

// release drops distribution references (pooled scratch must not pin a
// caller's configuration), keeping the backing arrays.
func (tp *topoScratch) release() {
	tp.topo = nil
	for i := range tp.ttopK {
		tp.ttopK[i] = dist.Kernel{}
		tp.ttrK[i] = dist.Kernel{}
	}
}

// compFail processes one path instance's failure at time t, returning
// whether its component just went fully down.
func (tp *topoScratch) compFail(inst int) (comp int, nowDown bool) {
	comp = int(tp.instComp[inst])
	tp.down[comp]++
	return comp, int(tp.down[comp]) == tp.topo.Components[comp].paths()
}

// compRestore processes one path instance's repair, returning whether its
// component just came back up (was fully down).
func (tp *topoScratch) compRestore(inst int) (comp int, wasDown bool) {
	comp = int(tp.instComp[inst])
	wasDown = int(tp.down[comp]) == tp.topo.Components[comp].paths()
	tp.down[comp]--
	return comp, wasDown
}

// lost counts the slots currently lost to the group — operationally failed
// or (component-)inaccessible — and whether any non-failed slot is lost to
// inaccessibility alone (the marker of a component-caused episode).
func (tp *topoScratch) lost(slots []slotState) (lost int, compInvolved bool) {
	for i := range slots {
		switch {
		case slots[i].failed:
			lost++
		case tp.inacc[i] > 0:
			lost++
			compInvolved = true
		}
	}
	return lost, compInvolved
}

// pauseSlot holds an in-flight rebuild of slot when it becomes
// inaccessible at time t: the queued restore is invalidated and the
// remaining repair hours are kept to resume from. Reports whether a
// rebuild was actually paused.
func (tp *topoScratch) pauseSlot(sl *slotState, slot int, t float64) bool {
	if !sl.failed || tp.paused[slot] {
		return false
	}
	tp.paused[slot] = true
	tp.pending[slot] = sl.restoreEnd - t
	if tp.pending[slot] < 0 {
		tp.pending[slot] = 0
	}
	tp.restoreID[slot]++
	sl.restoreEnd = math.Inf(1)
	return true
}
