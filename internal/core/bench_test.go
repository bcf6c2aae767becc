package core

import (
	"fmt"
	"testing"
	"time"

	"perfcloud/internal/cluster"
	"perfcloud/internal/hypervisor"
	"perfcloud/internal/sim"
)

// benchServer builds one server hosting n VMs with live counters, the
// shape of the monitoring hot loop on a loaded host.
func benchServer(b *testing.B, n int) (*cluster.Cluster, *cluster.Server, []*cluster.VM) {
	b.Helper()
	eng := sim.NewEngine(100*time.Millisecond, 3)
	cl := cluster.New()
	srv := cl.AddServer("s0", cluster.DefaultServerConfig(), eng.RNG())
	vms := make([]*cluster.VM, 0, n)
	for i := 0; i < n; i++ {
		prio, app := cluster.LowPriority, ""
		if i%2 == 0 {
			prio, app = cluster.HighPriority, "app"
		}
		vms = append(vms, cl.AddVM(srv, fmt.Sprintf("vm-%02d", i), 2, prio, app))
	}
	return cl, srv, vms
}

// advanceCounters simulates one interval of activity on every VM so each
// Sample call computes fresh deltas and folds them into the EWMAs.
func advanceCounters(vms []*cluster.VM) {
	for _, v := range vms {
		cg := v.Cgroup()
		cg.AddTick(500, 500*4096, 1000, 5, 2e9, 1e9, 1e7, 5e6)
	}
}

// BenchmarkMonitorSample measures one monitoring interval over a
// 32-domain server: reading every domain's counters, computing deltas and
// smoothing the five detection signals.
func BenchmarkMonitorSample(b *testing.B) {
	_, srv, vms := benchServer(b, 32)
	m := NewMonitor(hypervisor.New(srv), 0.7)
	advanceCounters(vms)
	m.Sample(0, 5) // prime previous counters
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		advanceCounters(vms)
		m.Sample(float64(i+1)*5, 5)
	}
}

// BenchmarkCorrelatorIdentify measures one identification round over 32
// suspects: recording the interval's sample into the correlation state and
// identifying the I/O and CPU antagonists over the trailing window.
func BenchmarkCorrelatorIdentify(b *testing.B) {
	const suspects = 32
	c := NewCorrelator(4, 0.8)
	ids := make([]string, 0, suspects)
	for i := 0; i < suspects; i++ {
		ids = append(ids, fmt.Sprintf("vm-%02d", i))
	}
	vms := make(map[string]VMSample, suspects)
	for i, id := range ids {
		vms[id] = VMSample{
			IOActive:        true,
			IOPS:            100 + float64(i),
			IOThroughputBps: (100 + float64(i)) * 4096,
			LLCMissRate:     1e6 + float64(i),
			CPI:             1.2,
			CPUUsageCores:   1,
		}
	}
	s := MakeSample(0, vms)
	// Warm up past the correlation window so every round identifies.
	for i := 0; i < 8; i++ {
		c.Record(float64(i)*5, Detection{IowaitDev: float64(i % 7), CPIDev: float64(i % 3)}, s, ids)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t := float64(i+8) * 5
		c.Record(t, Detection{IowaitDev: float64(i % 7), CPIDev: float64(i % 3)}, s, ids)
		if got := len(c.IOAntagonists()) + len(c.CPUAntagonists()); got < 0 {
			b.Fatal("impossible")
		}
	}
}
