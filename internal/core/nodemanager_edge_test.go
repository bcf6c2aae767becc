package core

import (
	"testing"
	"time"

	"perfcloud/internal/cgroup"
)

// TestAntagonistTerminationMidThrottle exercises the controller's
// domain-gone path: the fio VM is terminated while capped; the node
// manager must drop its controller instead of erroring forever.
func TestAntagonistTerminationMidThrottle(t *testing.T) {
	o := defaultOpts()
	o.perfcloud = true
	o.fio = true
	o.burstyFio = true
	sc := newScenario(t, o)

	// Run until fio is actually throttled.
	throttled := func() bool {
		for _, e := range sc.manager().Trace() {
			if _, ok := e.IOCaps["fio"]; ok {
				return true
			}
		}
		return false
	}
	sc.runTerasortStream(t, 90*time.Second)
	if !throttled() {
		t.Fatal("fio never throttled in warmup phase")
	}

	// Terminate the antagonist while its controller is live.
	sc.clus.RemoveVM("fio")
	sc.runTerasortStream(t, 60*time.Second)

	// The manager keeps operating; the trace keeps growing and no entry
	// after termination carries a fio cap anymore (controller dropped on
	// the hypervisor error).
	trace := sc.manager().Trace()
	if len(trace) < 20 {
		t.Fatalf("trace stalled: %d entries", len(trace))
	}
	for _, e := range trace[len(trace)-5:] {
		if _, ok := e.IOCaps["fio"]; ok {
			t.Error("terminated VM still has a live controller")
		}
	}
}

// TestIdleAntagonistNotEngaged: identification of a VM with zero observed
// I/O must not create a controller (there is nothing to base a cap on).
func TestIdleAntagonistNotEngaged(t *testing.T) {
	o := defaultOpts()
	o.perfcloud = true
	o.fio = true
	o.burstyFio = true
	o.decoys = true
	sc := newScenario(t, o)
	// sysbench-cpu does no I/O at all: even if it were ever accused, it
	// must never be I/O-capped. (Covered more broadly by the decoy test;
	// this pins the zero-observation guard specifically.)
	sc.runTerasortStream(t, 2*time.Minute)
	for _, e := range sc.manager().Trace() {
		if _, ok := e.IOCaps["sysbench-cpu"]; ok {
			t.Fatal("I/O controller created for a VM with no observed I/O")
		}
	}
}

// TestObserveOnlyNeverTouchesThrottles pins the default-system arm:
// detection and identification run, caps never move.
func TestObserveOnlyNeverTouchesThrottles(t *testing.T) {
	o := defaultOpts()
	o.perfcloud = true
	o.cfg.ObserveOnly = true
	o.fio = true
	o.burstyFio = true
	sc := newScenario(t, o)
	sc.runTerasortStream(t, 2*time.Minute)
	contended := 0
	for _, e := range sc.manager().Trace() {
		if e.IOContention {
			contended++
		}
		if len(e.IOCaps)+len(e.CPUCaps) != 0 {
			t.Fatal("observe-only manager applied caps")
		}
	}
	if contended == 0 {
		t.Error("observe-only manager should still detect contention")
	}
	if th := sc.clus.FindVM("fio").Cgroup().Throttle(); th != (cgroup.Throttle{}) {
		t.Errorf("fio throttle changed: %+v", th)
	}
}
