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
// ran them. The steady replay is every resource model's only reuse of a
// solve, so on the optimised and the reference cluster alike each
// model's memo hits equal the steady reuses and its misses the rebuilds.
func TestFastPathStatsAccounting(t *testing.T) {
	const ticks = 20
	for _, ref := range []bool{false, true} {
		eng := sim.NewEngine(100*time.Millisecond, 7)
		c := newCluster(ref)
		busy := c.AddServer("busy", DefaultServerConfig(), eng.RNG())
		idle := c.AddServer("idle", DefaultServerConfig(), eng.RNG())
		vm := c.AddVM(busy, "vm-busy", 2, LowPriority, "")
		c.AddVM(idle, "vm-idle", 2, LowPriority, "")
		w := attachPush(vm, busyDemand())
		eng.RegisterPriority(c, 0)
		eng.Run(ticks)

		bfp, ifp := busy.FastPathStats(), idle.FastPathStats()
		// Constant demand: the first tick rebuilds, every later one
		// reuses; the idle server settles its first tick without running
		// the pipeline and skips every tick, that one included. The
		// reference cluster rebuilds every tick of both.
		wantBusy := obs.FastPathSnapshot{Rebuilds: 1, SteadyReuses: ticks - 1}
		wantIdle := obs.FastPathSnapshot{QuiescentSkips: ticks}
		if ref {
			wantBusy = obs.FastPathSnapshot{Rebuilds: ticks}
			wantIdle = obs.FastPathSnapshot{Rebuilds: ticks}
		}
		checkCounts(t, ref, "busy", bfp, wantBusy)
		checkCounts(t, ref, "idle", ifp, wantIdle)

		// The cluster total is the per-server sum.
		var want obs.FastPathSnapshot
		want.Add(bfp)
		want.Add(ifp)
		if got := c.FastPathStats(); got != want {
			t.Fatalf("reference=%v: cluster stats = %+v, want %+v", ref, got, want)
		}

		// A pushed demand change forces exactly one more rebuild.
		w.setDemand(Demand{CPUSeconds: 0.05, CoreCPI: 1})
		eng.Run(2)
		wantBusy.Rebuilds++
		wantBusy.SteadyReuses++
		if ref {
			wantBusy = obs.FastPathSnapshot{Rebuilds: ticks + 2}
		}
		checkCounts(t, ref, "busy after a demand change", busy.FastPathStats(), wantBusy)
	}
}

// checkCounts compares a server's skip, reuse and rebuild counts with
// want's, and requires each model's memo hits and misses to equal the
// server's reuses and rebuilds.
func checkCounts(t *testing.T, ref bool, name string, got, want obs.FastPathSnapshot) {
	t.Helper()
	if got.QuiescentSkips != want.QuiescentSkips || got.SteadyReuses != want.SteadyReuses || got.Rebuilds != want.Rebuilds {
		t.Fatalf("reference=%v: %s server skips=%d steady=%d rebuilds=%d, want %d, %d, %d", ref, name,
			got.QuiescentSkips, got.SteadyReuses, got.Rebuilds, want.QuiescentSkips, want.SteadyReuses, want.Rebuilds)
	}
	for _, hits := range []uint64{got.CPUMemoHits, got.MemMemoHits, got.DiskMemoHits} {
		if hits != got.SteadyReuses {
			t.Fatalf("reference=%v: %s server memo hits %+v, want each equal to the %d steady reuses", ref, name, got, got.SteadyReuses)
		}
	}
	for _, misses := range []uint64{got.CPUMemoMisses, got.MemMemoMisses, got.DiskMemoMisses} {
		if misses != got.Rebuilds {
			t.Fatalf("reference=%v: %s server memo misses %+v, want each equal to the %d rebuilds", ref, name, got, got.Rebuilds)
		}
	}
}
