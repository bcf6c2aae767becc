package cluster

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"perfcloud/internal/sim"
)

// pushWorkload is a fakeWorkload that pushes its demand changes, as the
// exec and workloads packages do: its Advance reports none, and setDemand
// dirties the hosting server.
type pushWorkload struct {
	fakeWorkload
	vm *VM
}

// attachPush attaches a pushWorkload demanding d to vm.
func attachPush(vm *VM, d Demand) *pushWorkload {
	w := &pushWorkload{fakeWorkload: fakeWorkload{name: vm.ID(), demand: d}, vm: vm}
	vm.SetWorkload(w)
	return w
}

func (f *pushWorkload) Advance(nowSec, tickSec float64, g Grant) bool {
	f.fakeWorkload.Advance(nowSec, tickSec, g)
	return false
}

func (f *pushWorkload) setDemand(d Demand) {
	f.demand = d
	f.vm.Server().MarkDirty()
}

// steadyScenario builds a 2-server cluster of change-pushing workloads,
// runs it with mid-run demand changes and a mid-run throttle change, and
// returns every grant every workload observed. ref selects the reference
// cluster.
func steadyScenario(seed int64, ref bool) [][]Grant {
	eng := sim.NewEngine(100*time.Millisecond, seed)
	c := newCluster(ref)
	var ws []*pushWorkload
	for s := 0; s < 2; s++ {
		srv := c.AddServer(fmt.Sprintf("s%d", s), DefaultServerConfig(), eng.RNG())
		for i := 0; i < 3; i++ {
			vm := c.AddVM(srv, fmt.Sprintf("s%d-vm%d", s, i), 2, LowPriority, "")
			ws = append(ws, attachPush(vm, busyDemand()))
		}
	}
	eng.RegisterPriority(c, 0)
	eng.Run(20)
	halved := busyDemand()
	halved.CPUSeconds /= 2
	halved.IOOps /= 2
	ws[1].setDemand(halved) // a pushed change mid-run
	eng.Run(10)
	// A throttle change without MarkDirty: steadyUsable must notice via
	// the server's throttle counter (the paper's static-capping baseline
	// applies caps exactly this way).
	c.FindVM("s1-vm0").Cgroup().SetCPUCores(0.5)
	eng.Run(10)
	ws[4].setDemand(Demand{}) // a VM goes fully idle
	eng.Run(10)
	var out [][]Grant
	for _, w := range ws {
		out = append(out, w.grants)
	}
	return out
}

func TestDemandReuseMatchesFullRebuild(t *testing.T) {
	fast := steadyScenario(7, false)
	slow := steadyScenario(7, true)
	if !reflect.DeepEqual(fast, slow) {
		t.Fatal("steady-state reuse changed the granted resources")
	}
}

func TestDemandReuseSkipsDemandCalls(t *testing.T) {
	eng := sim.NewEngine(100*time.Millisecond, 3)
	c := New()
	srv := c.AddServer("s0", DefaultServerConfig(), eng.RNG())
	vm := c.AddVM(srv, "vm0", 2, LowPriority, "")
	w := &countingPushWorkload{}
	w.demand, w.vm = busyDemand(), vm
	vm.SetWorkload(w)
	eng.RegisterPriority(c, 0)

	eng.Run(1) // full rebuild: arms the replay
	if w.demandCalls != 1 {
		t.Fatalf("first tick made %d Demand calls, want 1", w.demandCalls)
	}
	eng.Run(10) // steady: the server reuses its request vectors
	if w.demandCalls != 1 {
		t.Fatalf("steady ticks re-polled Demand (%d calls); fast path did not engage", w.demandCalls)
	}
	if !srv.steadyValid {
		t.Fatal("server dropped its steady snapshot")
	}

	w.setDemand(w.demand) // a pushed change, even to the same demand
	eng.Run(1)
	if w.demandCalls != 2 {
		t.Fatalf("a pushed change did not force a rebuild (%d calls)", w.demandCalls)
	}
}

// countingPushWorkload counts Demand calls to observe the fast path.
type countingPushWorkload struct {
	pushWorkload
	demandCalls int
}

func (f *countingPushWorkload) Demand(tickSec float64) Demand {
	f.demandCalls++
	return f.demand
}

// TestNonEpochWorkloadDisarmsReuse checks the opt-out: a workload that
// cannot bound its changes reports one from every Advance, so its server
// never replays a tick and polls Demand every tick.
func TestNonEpochWorkloadDisarmsReuse(t *testing.T) {
	eng := sim.NewEngine(100*time.Millisecond, 3)
	c := New()
	srv := c.AddServer("s0", DefaultServerConfig(), eng.RNG())
	vm := c.AddVM(srv, "vm0", 2, LowPriority, "")
	vm.SetWorkload(&fakeWorkload{name: "plain", demand: busyDemand()})
	eng.RegisterPriority(c, 0)
	eng.Run(5)
	if fp := srv.FastPathStats(); fp.SteadyReuses != 0 || fp.Rebuilds != 5 {
		t.Fatalf("steady=%d rebuilds=%d over a workload with fresh epochs, want 0, 5",
			fp.SteadyReuses, fp.Rebuilds)
	}
}
