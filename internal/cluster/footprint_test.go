package cluster

import (
	"fmt"
	"reflect"
	"testing"
	"time"
	"unsafe"

	"perfcloud/internal/sim"
)

// TestVMFootprint pins the size of a VM object, the unit a planet-scale
// fleet holds a million of. The tick-only state — the last grant, 56
// bytes, and the idle flag — lives in vectors of the hosting server,
// which leaves 160 bytes: Go's allocator serves that from its 160-byte
// size class. One more field would need the 176-byte class.
func TestVMFootprint(t *testing.T) {
	if size := unsafe.Sizeof(VM{}); size > 160 {
		t.Errorf("VM is %d bytes, want at most 160", size)
	}
}

// endless returns a busy workload that never finishes.
func endless(name string) *fakeWorkload { return &fakeWorkload{name: name, demand: busyDemand()} }

// hookWorkload is a busy workload that runs fn once, from its Advance,
// the first time ready reports true — a placement change made while the
// advance sweep is under way.
type hookWorkload struct {
	fakeWorkload
	ready func() bool
	fn    func()
}

func (h *hookWorkload) Advance(nowSec, tickSec float64, g Grant) bool {
	h.fakeWorkload.Advance(nowSec, tickSec, g)
	if h.fn != nil && h.ready() {
		h.fn()
		h.fn = nil
	}
	return true
}

// parkedScript parks a server with every VM idle and, while it is
// parked, adds a VM, migrates one in, migrates one out and removes one.
// Then it wakes the server with busy workloads. It returns every VM's
// cgroup counters and last grant and every workload's grants. Modes:
//
//   - "gap": all four changes between two ticks, after a cap change has
//     already dirtied the parked server (MarkDirty clears quiescent but
//     does not end the skipped stretch);
//   - "spread": a few ticks between the changes, each of which wakes the
//     server, replays its stretch and parks it again;
//   - "advance": the changes come from another server's workload during
//     the advance sweep of the very tick the server settles, while it is
//     still active with one skipped tick pending.
//
// hit reports, for an optimised cluster, whether the changes really
// landed on a parked server, or in "advance" mode on an active one with
// a skipped tick pending.
func parkedScript(c *Cluster, mode string) (out map[string]any, hit bool) {
	eng := sim.NewEngine(100*time.Millisecond, 42)
	eng.RegisterPriority(c, 0)
	hook := c.AddServer("server-hook", DefaultServerConfig(), eng.RNG())
	park := c.AddServer("server-park", DefaultServerConfig(), eng.RNG())
	other := c.AddServer("server-other", DefaultServerConfig(), eng.RNG())
	var vms []*VM
	add := func(s *Server, id string) *VM {
		v := c.AddVM(s, id, 2, LowPriority, "")
		vms = append(vms, v)
		return v
	}
	for i := 0; i < 4; i++ {
		add(park, fmt.Sprintf("p%d", i))
	}
	add(other, "o0")
	add(other, "vm-in")
	// A short burst of work warms the parked server's disk and memory
	// jitter state, so the replayed draws land on tracked clients.
	warm := &fakeWorkload{name: "warm", demand: busyDemand(), maxWork: 0.3}
	c.FindVM("p0").SetWorkload(warm)
	works := []*fakeWorkload{warm}

	steps := []func(){
		func() { add(park, "p-new") },
		func() {
			if err := c.MoveVM("vm-in", park.ID()); err != nil {
				panic(err)
			}
		},
		func() {
			if err := c.MoveVM("p1", other.ID()); err != nil {
				panic(err)
			}
		},
		func() { c.RemoveVM("p2") },
	}
	h := &hookWorkload{fakeWorkload: *endless("hook")}
	add(hook, "h0").SetWorkload(h)
	if mode == "advance" {
		// The hook server precedes the parked one, so its Advance runs
		// before the parked server would be deactivated.
		h.ready = warm.Done
		h.fn = func() {
			hit = !c.reference && park.active && park.skipped > 0
			for _, step := range steps {
				step()
			}
		}
		eng.Run(8)
	} else {
		eng.Run(10)
		hit = !c.reference && !park.active
		c.FindVM("p3").Cgroup().SetReadIOPS(500)
		park.MarkDirty()
		for _, step := range steps {
			step()
			if mode == "spread" {
				eng.Run(3)
			}
		}
		eng.Run(4)
	}
	for _, id := range []string{"p3", "vm-in"} {
		w := endless("wake-" + id)
		works = append(works, w)
		c.FindVM(id).SetWorkload(w)
	}
	eng.Run(10)

	out = map[string]any{}
	for _, v := range vms {
		out[v.ID()+"/counters"] = v.Cgroup().Snapshot()
		out[v.ID()+"/last"] = v.LastGrant()
	}
	for _, w := range append(works, &h.fakeWorkload) {
		out[w.name+"/grants"] = w.grants
	}
	return out, hit
}

// TestParkedPlacementChangesMatchReference checks the frozen skip set: a
// parked server copies no VM ids, so a placement change that hits it
// before its skipped stretch is replayed must first snapshot the VM set
// the stretch ran with. Every output must match the reference cluster.
func TestParkedPlacementChangesMatchReference(t *testing.T) {
	for _, mode := range []string{"gap", "spread", "advance"} {
		want, _ := parkedScript(NewReference(), mode)
		got, hit := parkedScript(New(), mode)
		if !reflect.DeepEqual(got, want) {
			for k := range want {
				if !reflect.DeepEqual(got[k], want[k]) {
					t.Errorf("%s: %s differs from the reference:\nopt: %+v\nref: %+v", mode, k, got[k], want[k])
				}
			}
		}
		if !hit {
			t.Errorf("%s: the changes did not land on a server with skipped ticks pending", mode)
		}
	}
}

// TestFilledEmptyServerMatchesReference covers a skip set frozen with no
// ticks to replay: a parked server with no VMs receives one, which
// freezes the empty set, and wakes on the very next tick, so nothing is
// replayed. The freeze must still end there; the VM then idles through a
// long parked stretch whose replay, when a workload wakes the server,
// must cover it.
func TestFilledEmptyServerMatchesReference(t *testing.T) {
	run := func(c *Cluster) (any, []Grant) {
		eng := sim.NewEngine(100*time.Millisecond, 42)
		eng.RegisterPriority(c, 0)
		srv := c.AddServer("server-empty", DefaultServerConfig(), eng.RNG())
		eng.Run(1) // the empty server parks at the end of this tick
		v := c.AddVM(srv, "late", 2, LowPriority, "")
		eng.Run(20)
		w := endless("w")
		v.SetWorkload(w)
		eng.Run(5)
		return v.Cgroup().Snapshot(), w.grants
	}
	wantCounters, wantGrants := run(NewReference())
	gotCounters, gotGrants := run(New())
	if gotCounters != wantCounters || !reflect.DeepEqual(gotGrants, wantGrants) {
		t.Errorf("optimised run differs from the reference:\nopt: %+v %+v\nref: %+v %+v",
			gotCounters, gotGrants, wantCounters, wantGrants)
	}
}

// TestLastGrantSurvivesMoveVM checks that a migrating VM carries its last
// grant to the destination's grant vector, whether that vector is still
// unsized (the destination never ran a pipeline) or already sized, and
// that the neighbours it leaves behind keep theirs.
func TestLastGrantSurvivesMoveVM(t *testing.T) {
	eng, c, s0, s1 := twoServerCluster(t)
	x := c.AddVM(s0, "x", 2, HighPriority, "")
	y := c.AddVM(s0, "y", 2, LowPriority, "")
	z := c.AddVM(s0, "z", 2, LowPriority, "")
	x.SetWorkload(endless("wx"))
	z.SetWorkload(endless("wz"))
	c.AddVM(s1, "idle", 2, LowPriority, "")
	eng.Run(3)
	gx, gz := x.LastGrant(), z.LastGrant()
	if gx.CPUSeconds == 0 || gz.CPUSeconds == 0 {
		t.Fatalf("busy VMs got no grant: %+v, %+v", gx, gz)
	}
	if len(s1.grants) != 0 {
		t.Fatalf("idle server sized its grant vector: %d", len(s1.grants))
	}
	if err := c.MoveVM("x", "s1"); err != nil {
		t.Fatal(err)
	}
	if got := x.LastGrant(); got != gx {
		t.Errorf("after a move to an unsized vector: LastGrant = %+v, want %+v", got, gx)
	}
	if got := z.LastGrant(); got != gz {
		t.Errorf("neighbour's LastGrant = %+v, want %+v", got, gz)
	}
	if got := y.LastGrant(); got != (Grant{}) {
		t.Errorf("idle neighbour's LastGrant = %+v, want zero", got)
	}
	if err := c.MoveVM("x", "s0"); err != nil {
		t.Fatal(err)
	}
	if got := x.LastGrant(); got != gx {
		t.Errorf("after a move back to a sized vector: LastGrant = %+v, want %+v", got, gx)
	}
	if len(s0.grants) != len(s0.vms) || len(s1.grants) != len(s1.vms) {
		t.Errorf("grant vectors out of line: %d/%d and %d/%d VMs",
			len(s0.grants), len(s0.vms), len(s1.grants), len(s1.vms))
	}
	c.RemoveVM("x")
	if got := x.LastGrant(); got != (Grant{}) {
		t.Errorf("removed VM's LastGrant = %+v, want zero", got)
	}
}

// TestFirstTickAllocsIndependentOfVMCount checks the first tick over a
// cold fleet — every server settles idle and parks — allocates the same
// number of objects whether each server hosts one VM or 32: parking
// copies no VM ids and sizes no grant vector.
func TestFirstTickAllocsIndependentOfVMCount(t *testing.T) {
	const servers, runs = 64, 3
	firstTick := func(vmsPerServer int) float64 {
		eng := sim.NewEngine(100*time.Millisecond, 1)
		fleets := make([]*Cluster, runs+1) // AllocsPerRun adds a warm-up call
		for f := range fleets {
			c := New()
			for s := 0; s < servers; s++ {
				srv := c.AddServer(fmt.Sprintf("s%d", s), DefaultServerConfig(), eng.RNG())
				for v := 0; v < vmsPerServer; v++ {
					c.AddVM(srv, fmt.Sprintf("vm-%d-%d", s, v), 2, LowPriority, "")
				}
			}
			fleets[f] = c
		}
		next := 0
		allocs := testing.AllocsPerRun(runs, func() {
			fleets[next].Tick(eng.Clock())
			next++
		})
		for _, c := range fleets {
			if c.ActiveServers() != 0 {
				t.Fatalf("%d VMs per server: %d servers still active after the first tick", vmsPerServer, c.ActiveServers())
			}
		}
		return allocs
	}
	if one, many := firstTick(1), firstTick(32); one != many {
		t.Errorf("first tick allocates %v objects with 1 VM per server and %v with 32", one, many)
	}
}
