package cluster

import (
	"fmt"
	"testing"
	"time"

	"perfcloud/internal/sim"
)

// BenchmarkQuiescentCluster ticks a 16-server, 128-VM cluster in which
// every VM is idle (no workload attached). This is the shape of the
// large-scale mixes between task waves: most servers host only VMs that
// currently place zero demand, yet the seed pipeline paid the full grant
// phase (CPU, memory and disk allocation plus cgroup accounting) on every
// one of them every tick.
func BenchmarkQuiescentCluster(b *testing.B) {
	eng := sim.NewEngine(100*time.Millisecond, 3)
	cl := New()
	for s := 0; s < 16; s++ {
		srv := cl.AddServer(fmt.Sprintf("s%02d", s), DefaultServerConfig(), eng.RNG())
		for i := 0; i < 8; i++ {
			cl.AddVM(srv, fmt.Sprintf("s%02d-vm%d", s, i), 2, 8<<30, LowPriority, "")
		}
	}
	clk := eng.Clock()
	cl.Tick(clk) // settle scratch buffers and quiescence state
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cl.Tick(clk)
	}
}

// steadyBench is a minimal epoch-reporting workload with constant demand
// and no bookkeeping, so the benchmark measures only the pipeline.
type steadyBench struct{ demand Demand }

func (w *steadyBench) Name() string                     { return "steady" }
func (w *steadyBench) Demand(tickSec float64) Demand    { return w.demand }
func (w *steadyBench) Advance(tickSec float64, g Grant) {}
func (w *steadyBench) Done() bool                       { return false }
func (w *steadyBench) DemandEpoch() uint64              { return 0 }

// activeCluster populates cl with 16 servers and 128 VMs, every VM
// running an epoch-reporting workload with constant demand — the steady
// state of a busy mix mid-wave, where quiescence never applies and the
// demand vectors repeat tick after tick.
func activeCluster(eng *sim.Engine, cl *Cluster) {
	for s := 0; s < 16; s++ {
		srv := cl.AddServer(fmt.Sprintf("s%02d", s), DefaultServerConfig(), eng.RNG())
		for i := 0; i < 8; i++ {
			vm := cl.AddVM(srv, fmt.Sprintf("s%02d-vm%d", s, i), 2, 8<<30, LowPriority, "")
			vm.SetWorkload(&steadyBench{demand: busyDemand()})
		}
	}
}

// BenchmarkActiveServerTick measures the steady-state cost of ticking
// busy servers on the optimised path, with the steady-tick replay and the
// allocator memos. Compare against
// BenchmarkActiveServerTickNoReuse for the win.
func BenchmarkActiveServerTick(b *testing.B) {
	benchActiveTick(b, New())
}

// BenchmarkActiveServerTickNoReuse is the same workload on the reference
// cluster — the unoptimised pipeline, re-solving every tick in full.
func BenchmarkActiveServerTickNoReuse(b *testing.B) {
	benchActiveTick(b, NewReference())
}

// churnBench bumps its demand epoch on every grant — the steady replay never
// applies, so every tick of its server is a full rebuild.
type churnBench struct {
	demand Demand
	epoch  uint64
}

func (w *churnBench) Name() string                     { return "churn" }
func (w *churnBench) Demand(tickSec float64) Demand    { return w.demand }
func (w *churnBench) Advance(tickSec float64, g Grant) { w.epoch++ }
func (w *churnBench) Done() bool                       { return false }
func (w *churnBench) DemandEpoch() uint64              { return w.epoch }

// BenchmarkStrideAdvance measures Cluster.Stride over a mixed cluster —
// the shape event-driven stepping actually sees mid-experiment: some
// servers all-idle (quiescence skip), some steady (steady replay), some
// churning demand every tick (full rebuild). One op is a 16-tick stride.
func BenchmarkStrideAdvance(b *testing.B) {
	eng := sim.NewEngine(100*time.Millisecond, 3)
	cl := New()
	for s := 0; s < 16; s++ {
		srv := cl.AddServer(fmt.Sprintf("s%02d", s), DefaultServerConfig(), eng.RNG())
		for i := 0; i < 8; i++ {
			vm := cl.AddVM(srv, fmt.Sprintf("s%02d-vm%d", s, i), 2, 8<<30, LowPriority, "")
			switch s % 3 {
			case 0: // quiescent: no workload attached
			case 1:
				vm.SetWorkload(&steadyBench{demand: busyDemand()})
			case 2:
				vm.SetWorkload(&churnBench{demand: busyDemand()})
			}
		}
	}
	clk := eng.Clock()
	cl.Tick(clk) // settle scratch buffers, arm memos and quiescence
	sync := func(nowSec float64) {}
	stop := func() bool { return false }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if n := cl.Stride(clk, 16, sync, stop); n != 16 {
			b.Fatalf("stride elided %d ticks, want 16", n)
		}
	}
}

// BenchmarkShardScale pins the tick's O(active + servers/64) contract:
// the same fixed set of busy servers (8 steady workloads) inside fleets of
// different total size. Growing the fleet 10x grows only the active
// bitset (one-comparison skips of 64 parked servers per tick), so ns/tick
// between the sub-benchmarks should stay well inside 2x — the ratio
// `make bench-scale` gates on. Visiting every server would scale the cost
// 10x.
func BenchmarkShardScale(b *testing.B) {
	for _, total := range []int{1024, 10240} {
		b.Run(fmt.Sprintf("servers=%d", total), func(b *testing.B) {
			eng := sim.NewEngine(100*time.Millisecond, 3)
			cl := New()
			const busy = 8
			for s := 0; s < total; s++ {
				srv := cl.AddServer(fmt.Sprintf("s%05d", s), DefaultServerConfig(), eng.RNG())
				vm := cl.AddVM(srv, fmt.Sprintf("s%05d-vm", s), 2, 8<<30, LowPriority, "")
				if s < busy {
					vm.SetWorkload(&steadyBench{demand: busyDemand()})
				}
			}
			clk := eng.Clock()
			cl.Tick(clk) // first tick parks every idle server
			cl.Tick(clk) // second settles scratch buffers and arms the memos
			if got := cl.ActiveServers(); got != busy {
				b.Fatalf("active servers = %d, want %d", got, busy)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cl.Tick(clk)
			}
		})
	}
}

func benchActiveTick(b *testing.B, cl *Cluster) {
	eng := sim.NewEngine(100*time.Millisecond, 3)
	activeCluster(eng, cl)
	clk := eng.Clock()
	cl.Tick(clk) // settle scratch buffers and arm the memos
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cl.Tick(clk)
	}
}
