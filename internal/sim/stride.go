package sim

import "time"

// This file implements event-driven time advancement (DESIGN.md §5.6).
//
// The engine's unit of progress stays the fixed tick — determinism and
// bit-for-bit reproducibility hinge on every component observing the same
// per-tick arithmetic — but most ticks do not *need* the engine: when every
// framework is provably a no-op and no control-plane interval is due, the
// only work a tick performs is the cluster's grant/advance pipeline. A
// Strider replays exactly that work for a run of upcoming ticks and the
// Stepper then moves the clock past them in one stride, so the per-tick
// cost of engine dispatch, framework scans and controller wakeups is paid
// only on ticks that can actually change scheduling decisions.

// Strider fast-forwards the simulation through up to max upcoming ticks
// whose engine dispatch is provably redundant, replaying any per-tick state
// evolution (grants, random draws, counters) those ticks would have
// performed. It returns how many ticks it elided, 0 <= n <= max; the caller
// advances the clock by that amount. The clock passed in is positioned so
// that the next tick to execute has index clk.Tick() — PeekSeconds(0) is
// that tick's simulated time.
type Strider interface {
	Stride(clk *Clock, max int64) int64
}

// Stepper drives an engine one tick at a time, letting a Strider elide
// runs of event-free ticks between engine steps. With a nil Strider it
// degrades to plain Engine.Step, which is also the bit-for-bit reference
// behavior: striding never changes results, only how often the engine's
// dispatch loop runs.
type Stepper struct {
	Eng *Engine
	Str Strider
}

// Step advances the simulation by at least one tick: it runs exactly one
// engine tick, then offers the strider the chance to elide further ticks.
// The bound callback is evaluated on the post-step clock and returns the
// maximum number of ticks the *caller* allows the strider to elide —
// drivers use it to stop strides short of their own pending actions (a job
// arrival, an observation interval, a completed predicate). A nil bound
// means the caller imposes no limit. Step returns the total number of
// ticks advanced (>= 1).
func (s *Stepper) Step(bound func(clk *Clock) int64) int64 {
	s.Eng.Step()
	if s.Str == nil {
		return 1
	}
	clk := &s.Eng.clock
	max := int64(1<<63 - 1)
	if bound != nil {
		max = bound(clk)
	}
	if max <= 0 {
		return 1
	}
	n := s.Str.Stride(clk, max)
	if n < 0 || n > max {
		panic("sim: strider elided ticks out of bounds")
	}
	clk.tick += n
	return 1 + n
}

// RunUntil steps the simulation until the predicate returns true or the
// simulated-time limit is reached, eliding event-free ticks between steps.
// It reports whether the predicate fired. The predicate is re-checked
// inside the stride bound so the clock never overshoots the tick at which
// it first becomes true — the stop tick is the one a nil-Strider
// Stepper, stepping every tick, stops at.
func (s *Stepper) RunUntil(pred func() bool, limit time.Duration) bool {
	maxTicks := int64(limit / s.Eng.clock.tickSize)
	for i := int64(0); i < maxTicks; {
		if pred() {
			return true
		}
		remaining := maxTicks - i
		i += s.Step(func(*Clock) int64 {
			if pred() {
				return 0
			}
			return remaining - 1
		})
	}
	return pred()
}

// PeekSeconds returns the simulated time, in seconds, of the tick `ahead`
// ticks past the clock's current position, computed by the exact same
// expression Seconds evaluates once the clock reaches that tick. Striders
// use it to replay time-stamped per-tick work for ticks the engine never
// dispatches, with bit-identical timestamps.
func (c *Clock) PeekSeconds(ahead int64) float64 {
	return (time.Duration(c.tick+ahead) * c.tickSize).Seconds()
}

// TicksBefore returns how many consecutive upcoming ticks — starting with
// the tick at PeekSeconds(0) — have simulated time strictly below
// targetSec, capped at max. Drivers use it to bound strides so that a tick
// whose timestamp reaches a scheduled event (a monitor interval, a job
// arrival) is executed by the engine, never elided.
func (c *Clock) TicksBefore(targetSec float64, max int64) int64 {
	if max <= 0 || !(c.PeekSeconds(0) < targetSec) {
		return 0
	}
	// Start from the algebraic estimate, then settle it against the exact
	// tick-to-seconds conversion; float rounding puts the estimate within a
	// step or two of the true boundary, so the scans are O(1).
	n := int64(targetSec/c.tickSize.Seconds()) - c.tick
	if n < 1 {
		n = 1
	}
	if n > max {
		n = max
	}
	for n > 1 && !(c.PeekSeconds(n-1) < targetSec) {
		n--
	}
	for n < max && c.PeekSeconds(n) < targetSec {
		n++
	}
	return n
}
