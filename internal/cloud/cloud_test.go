package cloud

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"perfcloud/internal/cluster"
	"perfcloud/internal/sim"
	"perfcloud/internal/workloads"
)

func setup(t *testing.T) (*sim.Engine, *Manager) {
	t.Helper()
	eng := sim.NewEngine(100*time.Millisecond, 1)
	c := cluster.New()
	eng.Register(c)
	return eng, NewManager(c, eng.RNG())
}

func TestProvisionServers(t *testing.T) {
	_, m := setup(t)
	srvs := m.ProvisionServers(3)
	if len(srvs) != 3 {
		t.Fatalf("provisioned %d", len(srvs))
	}
	if srvs[0].ID() != "server-0" || srvs[2].ID() != "server-2" {
		t.Errorf("names = %v, %v", srvs[0].ID(), srvs[2].ID())
	}
	more := m.ProvisionServers(1)
	if more[0].ID() != "server-3" {
		t.Errorf("continued naming = %v", more[0].ID())
	}
}

func TestBootExplicitAndSpreadPlacement(t *testing.T) {
	_, m := setup(t)
	m.ProvisionServers(2)
	v, err := m.Boot(VMSpec{Name: "a", ServerID: "server-1", Priority: cluster.HighPriority, AppID: "app"})
	if err != nil {
		t.Fatal(err)
	}
	if v.Server().ID() != "server-1" {
		t.Errorf("placed on %v", v.Server().ID())
	}
	if v.VCPUs() != 2 || v.MemBytes() != 8<<30 {
		t.Errorf("defaults not applied: %v vcpus, %v mem", v.VCPUs(), v.MemBytes())
	}
	// Spread: next boot without ServerID goes to the emptier server-0.
	b, err := m.Boot(VMSpec{Name: "b"})
	if err != nil {
		t.Fatal(err)
	}
	if b.Server().ID() != "server-0" {
		t.Errorf("spread placement chose %v, want server-0", b.Server().ID())
	}
	// And the one after balances again.
	c, _ := m.Boot(VMSpec{Name: "c"})
	d, _ := m.Boot(VMSpec{Name: "d"})
	if c.Server() == d.Server() {
		t.Errorf("c and d both on %v", c.Server().ID())
	}
}

func TestBootErrors(t *testing.T) {
	_, m := setup(t)
	if _, err := m.Boot(VMSpec{Name: "x"}); err == nil {
		t.Error("no servers: want error")
	}
	m.ProvisionServers(1)
	if _, err := m.Boot(VMSpec{}); err == nil {
		t.Error("empty name: want error")
	}
	if _, err := m.Boot(VMSpec{Name: "x", ServerID: "nope"}); err == nil {
		t.Error("bad server: want error")
	}
	if _, err := m.Boot(VMSpec{Name: "x"}); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Boot(VMSpec{Name: "x"}); err == nil {
		t.Error("duplicate name: want error")
	}
}

func TestVMsOnServerAndGrouping(t *testing.T) {
	_, m := setup(t)
	m.ProvisionServers(1)
	mustBoot(t, m, VMSpec{Name: "h1", ServerID: "server-0", Priority: cluster.HighPriority, AppID: "hadoop"})
	mustBoot(t, m, VMSpec{Name: "h0", ServerID: "server-0", Priority: cluster.HighPriority, AppID: "hadoop"})
	mustBoot(t, m, VMSpec{Name: "fio", ServerID: "server-0", Priority: cluster.LowPriority})
	mustBoot(t, m, VMSpec{Name: "solo", ServerID: "server-0", Priority: cluster.HighPriority})

	infos, err := m.VMsOnServer("server-0")
	if err != nil || len(infos) != 4 {
		t.Fatalf("infos = %v, %v", infos, err)
	}
	apps, err := m.HighPriorityApps("server-0")
	if err != nil {
		t.Fatal(err)
	}
	if len(apps) != 1 {
		t.Fatalf("apps = %v", apps)
	}
	got := apps["hadoop"]
	if len(got) != 2 || got[0] != "h0" || got[1] != "h1" {
		t.Errorf("hadoop VMs = %v (want sorted h0,h1)", got)
	}
	if _, err := m.VMsOnServer("nope"); err == nil {
		t.Error("unknown server: want error")
	}
	if _, err := m.HighPriorityApps("nope"); err == nil {
		t.Error("unknown server: want error")
	}
}

// TestTerminate: a VM removed through the cluster leaves the placement
// queries, and the manager's index frees its vCPUs for the next boot —
// also in the zone a caller read before the removal.
func TestTerminate(t *testing.T) {
	_, m := setup(t)
	m.ProvisionServers(2)
	mustBoot(t, m, VMSpec{Name: "x", ServerID: "server-0"})
	mustBoot(t, m, VMSpec{Name: "y", ServerID: "server-1"})
	mustBoot(t, m, VMSpec{Name: "z", ServerID: "server-1"})
	zone := m.Zones()[0]
	m.cluster.RemoveVM("y")
	m.cluster.RemoveVM("z")
	if infos, err := m.VMsOnServer("server-1"); err != nil || len(infos) != 0 {
		t.Errorf("server-1 still lists %v (%v)", infos, err)
	}
	if z := m.Zones()[0]; z != zone || zone.PlacedVCPUs() != vmVCPUs {
		t.Errorf("zone placed = %v after removing 2 of 3 VMs, want %v (same zone: %v)", zone.PlacedVCPUs(), vmVCPUs, z == zone)
	}
	if v := mustBoot(t, m, VMSpec{Name: "next"}); v.Server().ID() != "server-1" {
		t.Errorf("next boot placed on %s, want the emptied server-1", v.Server().ID())
	}
}

func TestMigratePreservesStateAndCaps(t *testing.T) {
	_, m := setup(t)
	m.ProvisionServers(2)
	v := mustBoot(t, m, VMSpec{Name: "x", ServerID: "server-0", Priority: cluster.LowPriority})
	w := workloads.NewFioRandRead(workloads.AlwaysOn)
	v.SetWorkload(w)
	v.Cgroup().SetReadIOPS(1234)

	if err := m.Migrate("x", "server-1"); err != nil {
		t.Fatal(err)
	}
	nv := m.cluster.FindVM("x")
	if nv.Server().ID() != "server-1" {
		t.Errorf("on %v", nv.Server().ID())
	}
	if nv.Cgroup().Throttle().ReadIOPS != 1234 {
		t.Errorf("caps lost: %+v", nv.Cgroup().Throttle())
	}
	if nv.Workload() != w {
		t.Error("workload lost")
	}
	if nv.Priority() != cluster.LowPriority {
		t.Error("priority lost")
	}
	// Migrating to the same server is a no-op.
	if err := m.Migrate("x", "server-1"); err != nil {
		t.Fatal(err)
	}
	// Errors.
	if err := m.Migrate("nope", "server-0"); err == nil {
		t.Error("unknown VM: want error")
	}
	if err := m.Migrate("x", "nope"); err == nil {
		t.Error("unknown server: want error")
	}
}

// TestBootAllocatesOneObject pins Boot's allocation budget: the VM, with
// its cgroup embedded, is the only object a boot creates, apart from the
// amortized growth of the cluster's VM registry and the server's VM list.
func TestBootAllocatesOneObject(t *testing.T) {
	_, m := setup(t)
	m.ProvisionServers(10)
	const runs = 2000
	names := make([]string, runs+1) // AllocsPerRun adds a warm-up call
	for i := range names {
		names[i] = fmt.Sprintf("vm-%d", i)
	}
	next := 0
	allocs := testing.AllocsPerRun(runs, func() {
		if _, err := m.Boot(VMSpec{Name: names[next]}); err != nil {
			t.Fatal(err)
		}
		next++
	})
	if allocs > 1 {
		t.Errorf("Boot makes %v allocations per VM, want 1", allocs)
	}
}

func mustBoot(t *testing.T, m *Manager, spec VMSpec) *cluster.VM {
	t.Helper()
	v, err := m.Boot(spec)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// TestBootTakenNameKeepsPrecedence checks Boot's error precedence now
// that the registry insert is its duplicate check: a taken name is
// reported as "already exists" on every placement path, including an
// unknown ServerID, and the rejected boot leaves the cluster and the
// placement index exactly as they were.
func TestBootTakenNameKeepsPrecedence(t *testing.T) {
	_, m := setup(t)
	m.ProvisionServers(3)
	mustBoot(t, m, VMSpec{Name: "x", ServerID: "server-1"})
	type state struct {
		vms    int
		seq    uint64
		heap   []loadKey
		placed []float64
	}
	snap := func() state {
		st := state{vms: m.cluster.NumVMs(), seq: m.cluster.PlacementSeq(), heap: append([]loadKey(nil), m.heap...)}
		m.EachZone(func(z *Zone) { st.placed = append(st.placed, z.PlacedVCPUs()) })
		return st
	}
	before := snap()
	for _, spec := range []VMSpec{
		{Name: "x"},
		{Name: "x", ServerID: "server-0"},
		{Name: "x", ServerID: "nope"},
	} {
		_, err := m.Boot(spec)
		if err == nil || !strings.Contains(err.Error(), `"x" already exists`) {
			t.Errorf("Boot(%+v) error = %v, want already exists", spec, err)
		}
		if after := snap(); !reflect.DeepEqual(after, before) {
			t.Errorf("Boot(%+v) changed the cluster or index:\nbefore %+v\nafter  %+v", spec, before, after)
		}
	}
	if m.cluster.FindVM("x").Server().ID() != "server-1" {
		t.Error("the rejected boots moved the existing VM")
	}
	if _, err := m.Boot(VMSpec{Name: "y", ServerID: "nope"}); err == nil || !strings.Contains(err.Error(), "no server") {
		t.Errorf("free name on unknown server: error = %v, want no server", err)
	}
}
