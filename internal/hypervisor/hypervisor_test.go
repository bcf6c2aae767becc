package hypervisor

import (
	"errors"
	"testing"
	"time"

	"perfcloud/internal/cgroup"
	"perfcloud/internal/cluster"
	"perfcloud/internal/sim"
)

func setup(t *testing.T) (*sim.Engine, *cluster.Cluster, *Hypervisor) {
	t.Helper()
	eng := sim.NewEngine(100*time.Millisecond, 1)
	c := cluster.New()
	srv := c.AddServer("s0", cluster.DefaultServerConfig(), eng.RNG())
	c.AddVM(srv, "vm-a", 2, cluster.HighPriority, "app")
	c.AddVM(srv, "vm-b", 2, cluster.LowPriority, "")
	eng.RegisterPriority(c, 0)
	return eng, c, New(srv)
}

func TestListDomains(t *testing.T) {
	_, _, h := setup(t)
	var doms []string
	h.EachDomainStats(func(id string, _ cgroup.Counters) { doms = append(doms, id) })
	if h.NumDomains() != 2 || len(doms) != 2 || doms[0] != "vm-a" || doms[1] != "vm-b" {
		t.Errorf("domains = %v", doms)
	}
	if h.ServerID() != "s0" {
		t.Errorf("server id = %q", h.ServerID())
	}
}

func TestDomainStats(t *testing.T) {
	_, c, h := setup(t)
	c.FindVM("vm-a").Cgroup().AddTick(10, 4096, 5, 0, 0, 0, 0, 0)
	stats := make(map[string]cgroup.Counters)
	h.EachDomainStats(func(id string, c cgroup.Counters) { stats[id] = c })
	if s := stats["vm-a"]; s.Blkio.IoServiced != 10 || len(stats) != 2 {
		t.Errorf("stats = %+v", stats)
	}
	err := h.SetVCPUQuota("nope", 1)
	var nd ErrNoDomain
	if !errors.As(err, &nd) || nd.ID != "nope" {
		t.Errorf("err = %v, want ErrNoDomain{nope}", err)
	}
}

func TestApplyAndClearCaps(t *testing.T) {
	_, c, h := setup(t)
	if err := h.SetVCPUQuota("vm-b", 0.5); err != nil {
		t.Fatal(err)
	}
	if err := h.SetBlkioThrottleIOPS("vm-b", 2000); err != nil {
		t.Fatal(err)
	}
	if err := h.SetBlkioThrottleBPS("vm-b", 1<<20); err != nil {
		t.Fatal(err)
	}
	th := c.FindVM("vm-b").Cgroup().Throttle()
	if th.CPUCores != 0.5 || th.ReadIOPS != 2000 || th.ReadBPS != 1<<20 {
		t.Errorf("throttle = %+v", th)
	}
	for _, clear := range []error{h.SetVCPUQuota("vm-b", 0), h.SetBlkioThrottleIOPS("vm-b", 0), h.SetBlkioThrottleBPS("vm-b", 0)} {
		if clear != nil {
			t.Fatal(clear)
		}
	}
	if th := c.FindVM("vm-b").Cgroup().Throttle(); th.Active() {
		t.Errorf("after clear: %+v", th)
	}
}

func TestUnknownDomainErrors(t *testing.T) {
	_, _, h := setup(t)
	if err := h.SetVCPUQuota("nope", 1); err == nil {
		t.Error("SetVCPUQuota: want error")
	}
	if err := h.SetBlkioThrottleIOPS("nope", 1); err == nil {
		t.Error("SetBlkioThrottleIOPS: want error")
	}
	if err := h.SetBlkioThrottleBPS("nope", 1); err == nil {
		t.Error("SetBlkioThrottleBPS: want error")
	}
}

func TestNegativeCapsRejected(t *testing.T) {
	_, _, h := setup(t)
	if err := h.SetVCPUQuota("vm-b", -1); err == nil {
		t.Error("negative quota: want error")
	}
	if err := h.SetBlkioThrottleIOPS("vm-b", -1); err == nil {
		t.Error("negative iops: want error")
	}
	if err := h.SetBlkioThrottleBPS("vm-b", -1); err == nil {
		t.Error("negative bps: want error")
	}
}
