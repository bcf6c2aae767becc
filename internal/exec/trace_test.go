package exec

import (
	"fmt"
	"math"
	"testing"
	"time"

	"perfcloud/internal/trace"
)

// attachTracer wires a tracer to every executor in the harness pool and
// opens spans for the task set. Must run before the first launch.
func attachTracer(h *harness, ts *TaskSet) *trace.Tracer {
	tr := trace.NewTracer()
	for _, e := range h.pool {
		e.SetTracer(tr)
	}
	ts.Trace(tr, trace.NoSpan, 0)
	return tr
}

// TestTracePhasesSumToWall is the tentpole invariant: for every closed
// attempt span, the per-phase seconds partition the attempt's wall time.
// phaseSum returns the seconds attributed across all phases.
func phaseSum(phases [trace.NumPhases]float64) float64 {
	var sum float64
	for _, v := range phases {
		sum += v
	}
	return sum
}

func TestTracePhasesSumToWall(t *testing.T) {
	h := newHarness(t, 2, 2)
	specs := make([]TaskSpec, 6)
	for i := range specs {
		specs[i] = smallSpec(fmt.Sprintf("t%d", i))
		// Two tasks share an input so one of them reads from page cache.
		specs[i].InputKey = fmt.Sprintf("part-%d", i/2)
	}
	ts := NewTaskSet("maps", specs, nil)
	tr := attachTracer(h, ts)
	h.sets = append(h.sets, ts)
	h.runUntilDone(t, ts, time.Minute)

	attempts, cached := 0, 0
	for _, s := range tr.Spans() {
		if s.Kind != trace.KindAttempt {
			continue
		}
		if s.Open {
			t.Errorf("attempt span %q still open after set completion", s.Name)
			continue
		}
		attempts++
		if s.CachedInput {
			cached++
		}
		if diff := math.Abs(phaseSum(s.Phases) - s.WallSec()); diff > 1e-6 {
			t.Errorf("attempt %q: phases sum to %v, wall %v (diff %v)",
				s.Name, phaseSum(s.Phases), s.WallSec(), diff)
		}
	}
	if attempts < len(specs) {
		t.Errorf("attempt spans = %d, want >= %d", attempts, len(specs))
	}
	if cached == 0 {
		t.Error("expected at least one cached-input attempt span")
	}
	pt := tr.Totals()
	if pt.WallSec <= 0 || pt.Phases[trace.PhaseCPU] <= 0 {
		t.Errorf("totals look empty: %+v", pt)
	}
	if math.Abs(phaseSum(pt.Phases)-pt.WallSec) > 1e-6 {
		t.Errorf("aggregate phases %v != wall %v", phaseSum(pt.Phases), pt.WallSec)
	}
	if pt.CacheSavedSec <= 0 {
		t.Error("cached attempts should report cache savings")
	}
}

// TestTraceQueueWaitRecorded checks that tasks which could not launch
// immediately (more tasks than slots) carry queue wait on their spans.
func TestTraceQueueWaitRecorded(t *testing.T) {
	h := newHarness(t, 1, 2)
	specs := make([]TaskSpec, 6)
	for i := range specs {
		specs[i] = smallSpec(fmt.Sprintf("t%d", i))
	}
	ts := NewTaskSet("maps", specs, nil)
	tr := attachTracer(h, ts)
	h.sets = append(h.sets, ts)
	h.runUntilDone(t, ts, time.Minute)

	var waited int
	for _, s := range tr.Spans() {
		if s.Kind == trace.KindTask && s.QueueWaitSec > 0 {
			waited++
		}
	}
	// 6 tasks over 2 slots: at least the third wave queued.
	if waited < 2 {
		t.Errorf("tasks with queue wait = %d, want >= 2", waited)
	}
}

// TestTraceKillClosesSpans checks that killing a set marks and closes
// every open span, so killed work is attributable as waste.
func TestTraceKillClosesSpans(t *testing.T) {
	h := newHarness(t, 1, 2)
	ts := NewTaskSet("maps", []TaskSpec{smallSpec("t0"), smallSpec("t1")}, nil)
	tr := attachTracer(h, ts)
	h.sets = append(h.sets, ts)
	h.eng.Run(5) // a few ticks of real work, then kill mid-flight
	ts.Kill(h.eng.Clock().Seconds())

	for _, s := range tr.Spans() {
		if s.Open {
			t.Errorf("span %q (%v) still open after Kill", s.Name, s.Kind)
		}
	}
	pt := tr.Totals()
	if pt.KilledWasteSec <= 0 {
		t.Errorf("killed waste = %v, want > 0", pt.KilledWasteSec)
	}
}

// TestTracingDoesNotChangeOutcome runs the same seeded workload with and
// without a tracer attached and requires bit-identical completion times.
func TestTracingDoesNotChangeOutcome(t *testing.T) {
	run := func(withTracer bool) []float64 {
		h := newHarness(t, 2, 2)
		specs := make([]TaskSpec, 5)
		for i := range specs {
			specs[i] = smallSpec(fmt.Sprintf("t%d", i))
		}
		ts := NewTaskSet("maps", specs, nil)
		if withTracer {
			attachTracer(h, ts)
		}
		h.sets = append(h.sets, ts)
		h.runUntilDone(t, ts, time.Minute)
		var ends []float64
		ts.EachTask(func(task *Task) {
			ends = append(ends, task.Completed().Runtime(0))
		})
		return ends
	}
	off, on := run(false), run(true)
	for i := range off {
		if off[i] != on[i] {
			t.Errorf("task %d runtime: off=%v on=%v (must be bit-identical)", i, off[i], on[i])
		}
	}
}

// TestEfficiencyZeroGuard covers the degenerate accountings: no recorded
// time at all (empty set, or killed before any launch) must not divide
// by zero and reports perfect efficiency by convention.
func TestEfficiencyZeroGuard(t *testing.T) {
	if got := (Accounting{}).Efficiency(); got != 1 {
		t.Errorf("empty accounting efficiency = %v, want 1", got)
	}

	empty := NewTaskSet("empty", nil, nil)
	if got := empty.Account(0).Efficiency(); got != 1 {
		t.Errorf("empty set efficiency = %v, want 1", got)
	}

	killed := NewTaskSet("killed", []TaskSpec{smallSpec("t0")}, nil)
	killed.Kill(0) // killed before any attempt launched: zero total time
	if got := killed.Account(0).Efficiency(); got != 1 {
		t.Errorf("pre-launch-killed set efficiency = %v, want 1", got)
	}

	// An all-killed set with real runtime has zero useful work.
	h := newHarness(t, 1, 2)
	ts := NewTaskSet("maps", []TaskSpec{smallSpec("t0")}, nil)
	h.sets = append(h.sets, ts)
	h.eng.Run(2)
	now := h.eng.Clock().Seconds()
	ts.Kill(now)
	if got := ts.Account(now).Efficiency(); got != 0 {
		t.Errorf("all-killed set efficiency = %v, want 0", got)
	}
}
