package cluster

import (
	"testing"
	"time"

	"perfcloud/internal/sim"
)

func twoServerCluster(t *testing.T) (*sim.Engine, *Cluster, *Server, *Server) {
	t.Helper()
	eng := sim.NewEngine(100*time.Millisecond, 5)
	c := New()
	s0 := c.AddServer("s0", DefaultServerConfig(), eng.RNG())
	s1 := c.AddServer("s1", DefaultServerConfig(), eng.RNG())
	eng.Register(c)
	return eng, c, s0, s1
}

func TestMoveVMRelinksEverything(t *testing.T) {
	eng, c, s0, s1 := twoServerCluster(t)
	vm := c.AddVM(s0, "x", 2, 8<<30, HighPriority, "app")
	vm.Cgroup().SetReadIOPS(777)
	w := &fakeWorkload{name: "w", demand: busyDemand()}
	vm.SetWorkload(w)
	eng.Run(3)
	beforeOps := vm.Cgroup().Snapshot().Blkio.IoServiced
	cg := vm.Cgroup()

	if err := c.MoveVM("x", "s1"); err != nil {
		t.Fatal(err)
	}
	if vm.Server() != s1 {
		t.Fatal("VM not relinked to destination")
	}
	if s0.FindVM("x") != nil || s1.FindVM("x") != vm {
		t.Fatal("server VM lists not updated")
	}
	if c.FindVM("x") != vm {
		t.Fatal("registry must keep the same VM object")
	}
	if vm.Cgroup() != cg || cg.Name() != "x" {
		t.Fatal("migration must keep the VM's own cgroup")
	}
	if vm.Cgroup().Throttle().ReadIOPS != 777 {
		t.Error("caps lost across migration")
	}
	// The workload keeps running on the new server.
	eng.Run(3)
	if after := vm.Cgroup().Snapshot().Blkio.IoServiced; after <= beforeOps {
		t.Errorf("no progress after migration: %v -> %v", beforeOps, after)
	}
}

func TestMoveVMErrorsAndNoop(t *testing.T) {
	_, c, s0, _ := twoServerCluster(t)
	c.AddVM(s0, "x", 2, 8<<30, LowPriority, "")
	if err := c.MoveVM("nope", "s1"); err == nil {
		t.Error("unknown VM: want error")
	}
	if err := c.MoveVM("x", "nope"); err == nil {
		t.Error("unknown server: want error")
	}
	if err := c.MoveVM("x", "s0"); err != nil {
		t.Errorf("same-server move should be a no-op: %v", err)
	}
	if len(s0.VMs()) != 1 {
		t.Error("no-op move must not duplicate the VM")
	}
}

func TestServerAccessors(t *testing.T) {
	_, c, s0, _ := twoServerCluster(t)
	vm := c.AddVM(s0, "x", 2, 8<<30, LowPriority, "")
	if s0.ID() != "s0" || s0.Disk() == nil || s0.Mem() == nil || s0.Cache() == nil {
		t.Error("server accessors")
	}
	if s0.CPUConfig().Cores != DefaultServerConfig().CPU.Cores {
		t.Error("CPUConfig")
	}
	if vm.Workload() != nil {
		t.Error("fresh VM workload should be nil")
	}
	w := &fakeWorkload{name: "w"}
	vm.SetWorkload(w)
	if vm.Workload() != w {
		t.Error("Workload accessor")
	}
}
