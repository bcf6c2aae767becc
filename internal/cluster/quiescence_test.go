package cluster

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"perfcloud/internal/sim"
)

// quiesceFixture builds one server with two VMs.
func quiesceFixture(t *testing.T) (*sim.Engine, *Cluster, *Server, *VM) {
	t.Helper()
	eng := sim.NewEngine(100*time.Millisecond, 42)
	c := New()
	eng.RegisterPriority(c, 0)
	srv := c.AddServer("server-0", DefaultServerConfig(), eng.RNG())
	v := c.AddVM(srv, "vm-0", 2, HighPriority, "app")
	c.AddVM(srv, "vm-1", 2, LowPriority, "")
	return eng, c, srv, v
}

func TestServerBecomesQuiescentWhenIdle(t *testing.T) {
	eng, _, srv, v := quiesceFixture(t)
	w := &fakeWorkload{name: "w", demand: busyDemand(), maxWork: 0.3}
	v.SetWorkload(w)
	if srv.Quiescent() {
		t.Fatal("fresh server should not be quiescent before a processed tick")
	}
	for i := 0; i < 40 && !srv.Quiescent(); i++ {
		eng.Step()
	}
	if !w.Done() {
		t.Fatal("workload never finished")
	}
	if !srv.Quiescent() {
		t.Error("server with only done/idle VMs should turn quiescent")
	}
	// Skipped ticks must not disturb cgroup counters or last grants.
	before := v.Cgroup().Snapshot()
	eng.Run(5)
	if v.Cgroup().Snapshot() != before {
		t.Error("skipped ticks changed cgroup counters")
	}
	if g := v.LastGrant(); g != (Grant{}) {
		t.Errorf("idle VM last grant = %+v, want zero", g)
	}
}

func TestWorkloadAttachDirtiesServer(t *testing.T) {
	eng, _, srv, v := quiesceFixture(t)
	eng.Step() // both VMs idle: first processed tick proves quiescence
	if !srv.Quiescent() {
		t.Fatal("all-idle server should be quiescent after one tick")
	}
	v.SetWorkload(&fakeWorkload{name: "w", demand: busyDemand()})
	if srv.Quiescent() {
		t.Error("attaching a workload must dirty the server")
	}
	eng.Step()
	if v.LastGrant().CPUSeconds == 0 {
		t.Error("woken workload received no grant")
	}
}

func TestPlacementChangeDirtiesServer(t *testing.T) {
	eng, c, srv, _ := quiesceFixture(t)
	eng.Step()
	if !srv.Quiescent() {
		t.Fatal("all-idle server should be quiescent")
	}
	epoch := srv.PlacementEpoch()
	c.AddVM(srv, "vm-2", 2, LowPriority, "")
	if srv.Quiescent() {
		t.Error("AddVM must dirty the server")
	}
	if srv.PlacementEpoch() == epoch {
		t.Error("AddVM must move the placement epoch")
	}
	eng.Step()
	epoch = srv.PlacementEpoch()
	c.RemoveVM("vm-2")
	if srv.Quiescent() || srv.PlacementEpoch() == epoch {
		t.Error("RemoveVM must dirty the server and move the epoch")
	}
}

func TestMoveVMDirtiesBothServers(t *testing.T) {
	eng, c, src, _ := quiesceFixture(t)
	dst := c.AddServer("server-1", DefaultServerConfig(), eng.RNG())
	c.AddVM(dst, "vm-d", 2, LowPriority, "")
	eng.Step()
	if !src.Quiescent() || !dst.Quiescent() {
		t.Fatal("both idle servers should be quiescent")
	}
	se, de := src.PlacementEpoch(), dst.PlacementEpoch()
	if err := c.MoveVM("vm-1", "server-1"); err != nil {
		t.Fatal(err)
	}
	if src.Quiescent() || dst.Quiescent() {
		t.Error("migration must dirty source and destination")
	}
	if src.PlacementEpoch() == se || dst.PlacementEpoch() == de {
		t.Error("migration must move both placement epochs")
	}
}

// TestQuiescenceToggleBitForBit runs the same bursty scenario — a
// workload that finishes, a long all-idle stretch, then a second
// workload waking the server — on the optimised and the reference
// cluster, and demands identical cgroup counters. The idle stretch makes
// the skip path elide ticks; the wake-up must replay the disk's idle
// jitter draws so the post-wake grants match exactly.
func TestQuiescenceToggleBitForBit(t *testing.T) {
	run := func(ref bool) (a, b any) {
		eng := sim.NewEngine(100*time.Millisecond, 42)
		c := newCluster(ref)
		eng.RegisterPriority(c, 0)
		srv := c.AddServer("server-0", DefaultServerConfig(), eng.RNG())
		v0 := c.AddVM(srv, "vm-0", 2, HighPriority, "app")
		v1 := c.AddVM(srv, "vm-1", 2, LowPriority, "")
		v0.SetWorkload(&fakeWorkload{name: "w0", demand: busyDemand(), maxWork: 0.3})
		eng.Run(30)
		v1.SetWorkload(&fakeWorkload{name: "w1", demand: busyDemand(), maxWork: 0.5})
		eng.Run(30)
		return v0.Cgroup().Snapshot(), v1.Cgroup().Snapshot()
	}
	a0, a1 := run(true)
	b0, b1 := run(false)
	if a0 != b0 || a1 != b1 {
		t.Errorf("counters diverge from the reference:\nref: %+v / %+v\nopt: %+v / %+v", a0, a1, b0, b1)
	}
}

// TestIdleFromBirthWakeMatchesFullPipeline covers the deferred first idle
// tick. A server idle from birth holds 30 VMs; after a few ticks, 28 of
// them migrate away, which leaves the departed VMs' disk jitter state
// past the AR(1) keep-set GC threshold (4·2+16 < 30); later one of them
// migrates back with a busy workload and wakes the server. Its jitter
// state must have been collected in between — exactly when the full
// pipeline collects it — so the returning VM restarts from a fresh luck
// factor. Every grant and cgroup counter must match the reference
// cluster's bit for bit. A warm variant gives every VM a
// short burst of work first, so the first idle tick also has memory-
// system jitter state to collect; the returning VM is memory-bound, so
// that state shows in its grants.
func TestIdleFromBirthWakeMatchesFullPipeline(t *testing.T) {
	type result struct {
		grants   map[string][]Grant
		counters map[string]any
	}
	run := func(ref, warm bool) result {
		eng := sim.NewEngine(100*time.Millisecond, 42)
		c := newCluster(ref)
		eng.RegisterPriority(c, 0)
		cold := c.AddServer("server-cold", DefaultServerConfig(), eng.RNG())
		other := c.AddServer("server-other", DefaultServerConfig(), eng.RNG())
		works := map[string]*fakeWorkload{"vm-busy": {name: "busy", demand: busyDemand()}}
		var ids []string
		for i := 0; i < 30; i++ {
			id := fmt.Sprintf("vm-%02d", i)
			v := c.AddVM(cold, id, 2, LowPriority, "")
			ids = append(ids, id)
			if warm {
				works[id+"/warm"] = &fakeWorkload{name: id, demand: busyDemand(), maxWork: 0.1}
				v.SetWorkload(works[id+"/warm"])
			}
		}
		busy := c.AddVM(other, "vm-busy", 2, HighPriority, "app")
		busy.SetWorkload(works["vm-busy"])
		eng.Run(7)
		for _, id := range ids[2:] {
			if err := c.MoveVM(id, "server-other"); err != nil {
				t.Fatal(err)
			}
		}
		eng.Run(5)
		if err := c.MoveVM("vm-05", "server-cold"); err != nil {
			t.Fatal(err)
		}
		// Memory-bound, so the returning VM congests the memory bus and its
		// memory-system jitter state shows in the grants.
		back := busyDemand()
		back.BytesPerInstr = 30
		works["vm-05"] = &fakeWorkload{name: "back", demand: back}
		c.FindVM("vm-05").SetWorkload(works["vm-05"])
		works["vm-00"] = &fakeWorkload{name: "first", demand: busyDemand(), maxWork: 0.6}
		c.FindVM("vm-00").SetWorkload(works["vm-00"])
		eng.Run(12)
		r := result{grants: map[string][]Grant{}, counters: map[string]any{}}
		for id, w := range works {
			r.grants[id] = w.grants
		}
		c.EachVM(func(v *VM) { r.counters[v.ID()] = v.Cgroup().Snapshot() })
		return r
	}
	for _, warm := range []bool{false, true} {
		want := run(true, warm)
		if got := run(false, warm); !reflect.DeepEqual(got, want) {
			t.Errorf("warm=%v: optimised run differs from the reference:\nopt: %+v\nref: %+v", warm, got, want)
		}
	}
}

// coldServerRuns counts TestColdServerStreamsUnseededUntilWake's runs.
var coldServerRuns int64

// TestColdServerStreamsUnseededUntilWake checks that a server idle from
// birth never derives its disk and memory-system random streams: both
// stay unseeded across its idle ticks and are seeded by the first tick
// that draws from them, after a workload wakes the server.
func TestColdServerStreamsUnseededUntilWake(t *testing.T) {
	// A seed no other test or earlier run (-count) uses, so the
	// process-wide seed cache cannot already hold these streams.
	coldServerRuns++
	eng := sim.NewEngine(100*time.Millisecond, 0x5eed_c01d+coldServerRuns)
	c := New()
	eng.RegisterPriority(c, 0)
	srv := c.AddServer("server-cold", DefaultServerConfig(), eng.RNG())
	v := c.AddVM(srv, "vm-0", 2, LowPriority, "")
	c.AddVM(srv, "vm-1", 2, LowPriority, "")
	streams := []string{"disk/server-cold", "memsys/server-cold"}
	eng.Run(20)
	for _, name := range streams {
		if eng.RNG().StreamSeeded(name) {
			t.Fatalf("stream %s seeded while its server was idle from birth", name)
		}
	}
	if got := srv.FastPathStats(); got.Rebuilds != 0 || got.QuiescentSkips != 20 {
		t.Fatalf("cold server rebuilds=%d skips=%d, want 0, 20", got.Rebuilds, got.QuiescentSkips)
	}
	v.SetWorkload(&fakeWorkload{name: "w", demand: busyDemand()})
	eng.Run(1)
	for _, name := range streams {
		if !eng.RNG().StreamSeeded(name) {
			t.Errorf("stream %s not seeded after its server woke", name)
		}
	}
}
