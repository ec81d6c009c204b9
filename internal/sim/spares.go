package sim

import (
	"fmt"
	"math"
)

// SparePolicy models a finite spare-drive pool. The paper's state diagram
// assumes "a spare HDD is available" at every failure; with a finite pool
// a failed drive must wait for a replacement to arrive before its rebuild
// can start, stretching the exposure window in exactly the way long
// logistics chains do in practice.
//
// Semantics: the shelf starts with Initial spares. Every failure
// immediately places a replacement order that arrives ReplenishHours
// later. If a spare is in stock the rebuild starts at the failure instant;
// otherwise it starts when the earliest outstanding order arrives. The
// sampled TTR then runs from the rebuild start.
type SparePolicy struct {
	Initial        int     `json:"initial"`
	ReplenishHours float64 `json:"replenish_hours,omitempty"`
}

// Validate checks the policy.
func (p *SparePolicy) Validate() error {
	if p == nil {
		return nil
	}
	if p.Initial < 0 {
		return fmt.Errorf("sim: spare pool cannot start negative (%d)", p.Initial)
	}
	if !(p.ReplenishHours >= 0) || math.IsInf(p.ReplenishHours, 0) {
		return fmt.Errorf("sim: invalid replenish time %v", p.ReplenishHours)
	}
	return nil
}

// sparePool is the engine-side state of a SparePolicy. Consumed orders
// advance a head index instead of re-slicing the front, so the backing
// array survives reset and a pooled engine's steady-state failures
// allocate nothing once the array has grown to the chronology's order
// depth.
type sparePool struct {
	policy *SparePolicy
	stock  int
	orders []float64 // arrival times of outstanding orders, ascending
	head   int       // orders[:head] have been consumed
}

// reset re-arms the pool for a new chronology under policy p (which may be
// nil: every rebuildStart then returns its argument), keeping the orders
// backing array.
func (s *sparePool) reset(p *SparePolicy) {
	s.policy = p
	s.stock = 0
	if p != nil {
		s.stock = p.Initial
	}
	s.orders = s.orders[:0]
	s.head = 0
}

// rebuildStart registers a failure at time t and returns when its rebuild
// can begin.
func (s *sparePool) rebuildStart(t float64) float64 {
	if s.policy == nil {
		return t
	}
	// Materialize orders that have arrived by now.
	for s.head < len(s.orders) && s.orders[s.head] <= t {
		s.stock++
		s.head++
	}
	if s.head == len(s.orders) {
		// Fully drained: rewind so the backing array is reused.
		s.orders = s.orders[:0]
		s.head = 0
	}
	// Place the replacement order for this failure. Orders share a fixed
	// lead time and failures are processed in time order, so the slice
	// stays sorted. Simultaneous failures append in processing order:
	// each claims its own order, so ties neither lose nor double-count a
	// replenishment.
	s.orders = append(s.orders, t+s.policy.ReplenishHours)
	if s.stock > 0 {
		s.stock--
		return t
	}
	// Claim the earliest outstanding order.
	start := s.orders[s.head]
	s.head++
	return start
}
