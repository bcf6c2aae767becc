package cluster

import (
	"testing"
	"time"

	"perfcloud/internal/obs"
	"perfcloud/internal/sim"
)

// TestFastPathStatsAccounting runs one busy and one idle server through
// a mix of reused, rebuilt and skipped ticks and checks that the
// counters partition the grant phases the way the fast paths actually
// ran them.
func TestFastPathStatsAccounting(t *testing.T) {
	eng := sim.NewEngine(100*time.Millisecond, 7)
	c := New()
	busy := c.AddServer("busy", DefaultServerConfig(), eng.RNG())
	idle := c.AddServer("idle", DefaultServerConfig(), eng.RNG())
	vm := c.AddVM(busy, "vm-busy", 2, 8<<30, LowPriority, "")
	c.AddVM(idle, "vm-idle", 2, 8<<30, LowPriority, "")
	w := &epochWorkload{fakeWorkload: fakeWorkload{name: "vm-busy", demand: busyDemand()}}
	vm.SetWorkload(w)
	eng.Register(c)

	const ticks = 20
	eng.Run(ticks)

	bfp := busy.FastPathStats()
	if bfp.QuiescentSkips != 0 {
		t.Fatalf("busy server skipped %d ticks, want 0", bfp.QuiescentSkips)
	}
	if got := bfp.SteadyReuses + bfp.Rebuilds; got != ticks {
		t.Fatalf("busy server ran %d grant phases, want %d", got, ticks)
	}
	// Constant demand: the first tick rebuilds, every later one reuses.
	if bfp.Rebuilds != 1 || bfp.SteadyReuses != ticks-1 {
		t.Fatalf("busy server rebuilds=%d steady=%d, want 1, %d", bfp.Rebuilds, bfp.SteadyReuses, ticks-1)
	}
	// Reused ticks still run the (memoized) allocators.
	if bfp.CPUMemoHits == 0 || bfp.DiskMemoHits == 0 || bfp.MemMemoHits == 0 {
		t.Fatalf("busy server recorded no allocator memo hits: %+v", bfp)
	}

	ifp := idle.FastPathStats()
	// The idle server settles its first tick without running the pipeline
	// and skips every tick, that one included.
	if ifp.Rebuilds != 0 || ifp.QuiescentSkips != ticks {
		t.Fatalf("idle server rebuilds=%d skips=%d, want 0, %d", ifp.Rebuilds, ifp.QuiescentSkips, ticks)
	}

	// The cluster total is the per-server sum.
	var want obs.FastPathSnapshot
	want.Add(bfp)
	want.Add(ifp)
	if got := c.FastPathStats(); got != want {
		t.Fatalf("cluster stats = %+v, want %+v", got, want)
	}

	// A demand-epoch bump forces exactly one more rebuild.
	w.setDemand(Demand{CPUSeconds: 0.05, CoreCPI: 1})
	eng.Run(2)
	bfp2 := busy.FastPathStats()
	if bfp2.Rebuilds != bfp.Rebuilds+1 || bfp2.SteadyReuses != bfp.SteadyReuses+1 {
		t.Fatalf("after epoch bump rebuilds=%d steady=%d, want %d, %d",
			bfp2.Rebuilds, bfp2.SteadyReuses, bfp.Rebuilds+1, bfp.SteadyReuses+1)
	}
}
