package cluster

import (
	"testing"
	"time"

	"perfcloud/internal/sim"
)

// fakeWorkload demands a constant profile and records grants. It does
// not bound its changes (Done moves with the work it consumes), so it
// reports a fresh demand epoch on every call.
type fakeWorkload struct {
	name    string
	demand  Demand
	grants  []Grant
	maxWork float64 // total CPU-seconds to consume; 0 = endless
	usedCPU float64
	epochs  uint64
}

func (f *fakeWorkload) Name() string { return f.name }

func (f *fakeWorkload) Demand(tickSec float64) Demand { return f.demand }

func (f *fakeWorkload) Advance(tickSec float64, g Grant) {
	f.grants = append(f.grants, g)
	f.usedCPU += g.CPUSeconds
}

func (f *fakeWorkload) Done() bool { return f.maxWork > 0 && f.usedCPU >= f.maxWork }

func (f *fakeWorkload) DemandEpoch() uint64 {
	f.epochs++
	return f.epochs
}

func busyDemand() Demand {
	return Demand{
		CPUSeconds:      0.2,
		IOOps:           50,
		IOBytes:         50 * 4096,
		CoreCPI:         0.9,
		LLCRefsPerInstr: 0.02,
		BytesPerInstr:   0.3,
		WorkingSetBytes: 100 << 20,
	}
}

// newCluster returns a reference cluster when ref is set and an
// optimised one otherwise, so scenarios can run under both and compare.
func newCluster(ref bool) *Cluster {
	if ref {
		return NewReference()
	}
	return New()
}

func newTestCluster(t *testing.T) (*sim.Engine, *Cluster, *Server) {
	t.Helper()
	eng := sim.NewEngine(100*time.Millisecond, 42)
	c := New()
	srv := c.AddServer("server-0", DefaultServerConfig(), eng.RNG())
	eng.Register(c)
	return eng, c, srv
}

func TestVMAccessors(t *testing.T) {
	_, c, srv := newTestCluster(t)
	vm := c.AddVM(srv, "vm-0", 2, 8<<30, HighPriority, "hadoop")
	if vm.ID() != "vm-0" || vm.VCPUs() != 2 || vm.MemBytes() != 8<<30 {
		t.Errorf("vm = %+v", vm)
	}
	if vm.Priority() != HighPriority || vm.AppID() != "hadoop" {
		t.Errorf("priority/app = %v/%v", vm.Priority(), vm.AppID())
	}
	if vm.Server() != srv || vm.Cgroup() == nil {
		t.Error("server/cgroup wiring")
	}
	if !vm.Idle() {
		t.Error("fresh VM should be idle")
	}
	if HighPriority.String() != "high" || LowPriority.String() != "low" {
		t.Error("priority strings")
	}
}

func TestTickDrivesPipelineAndCounters(t *testing.T) {
	eng, c, srv := newTestCluster(t)
	vm := c.AddVM(srv, "vm-0", 2, 8<<30, HighPriority, "app")
	w := &fakeWorkload{name: "w", demand: busyDemand()}
	vm.SetWorkload(w)
	eng.Run(10)

	if len(w.grants) != 10 {
		t.Fatalf("grants = %d, want 10", len(w.grants))
	}
	g := w.grants[0]
	if g.CPUSeconds <= 0 || g.Instructions <= 0 || g.IOOps <= 0 || g.CPI <= 0 {
		t.Errorf("grant = %+v", g)
	}
	s := vm.Cgroup().Snapshot()
	if s.CPU.UsageSeconds <= 0 || s.Blkio.IoServiced <= 0 || s.Perf.Instructions <= 0 {
		t.Errorf("counters = %+v", s)
	}
	// Uncontended: full demand served.
	if g.CPUSeconds != 0.2 || g.IOOps != 50 {
		t.Errorf("uncontended grant = %+v", g)
	}
	if vm.LastGrant() != w.grants[9] {
		t.Error("LastGrant should match final grant")
	}
}

func TestIdleVMGetsNothing(t *testing.T) {
	eng, c, srv := newTestCluster(t)
	vm := c.AddVM(srv, "vm-0", 2, 8<<30, LowPriority, "")
	eng.Run(5)
	s := vm.Cgroup().Snapshot()
	if s.CPU.UsageSeconds != 0 || s.Blkio.IoServiced != 0 {
		t.Errorf("idle VM accumulated counters: %+v", s)
	}
}

func TestDoneWorkloadStopsConsuming(t *testing.T) {
	eng, c, srv := newTestCluster(t)
	vm := c.AddVM(srv, "vm-0", 2, 8<<30, LowPriority, "")
	w := &fakeWorkload{name: "w", demand: busyDemand(), maxWork: 0.4} // 2 ticks
	vm.SetWorkload(w)
	eng.Run(10)
	if !w.Done() {
		t.Fatal("workload should be done")
	}
	if len(w.grants) != 2 {
		t.Errorf("grants = %d, want 2", len(w.grants))
	}
	if !vm.Idle() {
		t.Error("VM with done workload should be idle")
	}
}

func TestThrottleCapsFlowThroughPipeline(t *testing.T) {
	eng, c, srv := newTestCluster(t)
	vm := c.AddVM(srv, "vm-0", 2, 8<<30, LowPriority, "")
	w := &fakeWorkload{name: "w", demand: busyDemand()}
	vm.SetWorkload(w)
	vm.Cgroup().SetReadIOPS(100) // 10 ops per 0.1 s tick
	vm.Cgroup().SetCPUCores(0.5) // 0.05 core-seconds per tick
	eng.Run(3)
	g := w.grants[len(w.grants)-1]
	if g.IOOps > 10.01 {
		t.Errorf("IOOps = %v, want <= 10 under cap", g.IOOps)
	}
	if g.CPUSeconds > 0.0501 {
		t.Errorf("CPUSeconds = %v, want <= 0.05 under cap", g.CPUSeconds)
	}
}

func TestClusterRegistryAndLookup(t *testing.T) {
	eng, c, srv := newTestCluster(t)
	srv2 := c.AddServer("server-1", DefaultServerConfig(), eng.RNG())
	a := c.AddVM(srv, "a", 2, 1<<30, HighPriority, "app1")
	b := c.AddVM(srv2, "b", 2, 1<<30, HighPriority, "app1")
	c.AddVM(srv2, "x", 2, 1<<30, LowPriority, "")

	if len(c.Servers()) != 2 {
		t.Errorf("servers = %d", len(c.Servers()))
	}
	if c.FindServer("server-1") != srv2 || c.FindServer("zzz") != nil {
		t.Error("FindServer")
	}
	if c.FindVM("a") != a || c.FindVM("zzz") != nil {
		t.Error("FindVM")
	}
	if srv.FindVM("a") != a || srv.FindVM("b") != nil {
		t.Error("Server.FindVM")
	}
	if got := len(c.VMs()); got != 3 {
		t.Errorf("VMs = %d", got)
	}
	app := c.AppVMs("app1")
	if len(app) != 2 || app[0] != a || app[1] != b {
		t.Errorf("AppVMs = %v", app)
	}
}

func TestRemoveVM(t *testing.T) {
	_, c, srv := newTestCluster(t)
	c.AddVM(srv, "a", 2, 1<<30, LowPriority, "")
	c.AddVM(srv, "b", 2, 1<<30, LowPriority, "")
	c.RemoveVM("a")
	if c.FindVM("a") != nil || srv.FindVM("a") != nil {
		t.Error("a should be gone")
	}
	if c.FindVM("b") == nil || len(srv.VMs()) != 1 {
		t.Error("b should remain")
	}
	c.RemoveVM("nonexistent") // no-op, no panic
}

func TestDuplicateIDsPanic(t *testing.T) {
	eng, c, srv := newTestCluster(t)
	c.AddVM(srv, "a", 2, 1<<30, LowPriority, "")
	func() {
		defer func() {
			if recover() == nil {
				t.Error("duplicate VM should panic")
			}
		}()
		c.AddVM(srv, "a", 2, 1<<30, LowPriority, "")
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("duplicate server should panic")
			}
		}()
		c.AddServer("server-0", DefaultServerConfig(), eng.RNG())
	}()
}

func TestContentionBetweenVMsOnOneServer(t *testing.T) {
	eng, c, srv := newTestCluster(t)
	// One disk hog plus one moderate VM; the hog's demand exceeds device
	// capacity so the moderate VM's waits should rise vs running alone.
	victim := c.AddVM(srv, "victim", 2, 8<<30, HighPriority, "app")
	vw := &fakeWorkload{name: "v", demand: busyDemand()}
	victim.SetWorkload(vw)
	hog := c.AddVM(srv, "hog", 2, 8<<30, LowPriority, "")
	hw := &fakeWorkload{name: "h", demand: Demand{
		CPUSeconds: 0.1, IOOps: 2000, IOBytes: 2000 * 4096,
		CoreCPI: 1, LLCRefsPerInstr: 0.01, BytesPerInstr: 0.1, WorkingSetBytes: 1 << 20,
	}}
	hog.SetWorkload(hw)
	eng.Run(50)
	contended := victim.Cgroup().Snapshot().Blkio.IoWaitTimeMs / victim.Cgroup().Snapshot().Blkio.IoServiced

	// Rebuild without the hog.
	eng2 := sim.NewEngine(100*time.Millisecond, 42)
	c2 := New()
	srv2 := c2.AddServer("server-0", DefaultServerConfig(), eng2.RNG())
	eng2.Register(c2)
	v2 := c2.AddVM(srv2, "victim", 2, 8<<30, HighPriority, "app")
	v2.SetWorkload(&fakeWorkload{name: "v", demand: busyDemand()})
	eng2.Run(50)
	alone := v2.Cgroup().Snapshot().Blkio.IoWaitTimeMs / v2.Cgroup().Snapshot().Blkio.IoServiced

	if contended < 2*alone {
		t.Errorf("wait/op contended=%v alone=%v, want >= 2x", contended, alone)
	}
}
