package experiments

import (
	"testing"

	"perfcloud/internal/core"
)

// TestStrideBoundRespectsMonitorInterval pins the control-interval event
// source: System.StrideBound must cap a stride so the tick carrying the
// next node-manager sample executes in the engine, never inside a stride.
func TestStrideBoundRespectsMonitorInterval(t *testing.T) {
	pc := ControllerConfig()
	tb := NewTestbed(TestbedConfig{Seed: 5, Servers: 2, PerfCloud: pc})
	if tb.Sys == nil {
		t.Fatal("testbed has no control plane")
	}
	clk := tb.Eng.Clock()
	for i := 0; i < 40; i++ {
		tb.Eng.Step()
		b := tb.Sys.StrideBound(clk, 1<<40)
		next := tb.Sys.Manager("server-0").NextSampleSec()
		if n2 := tb.Sys.Manager("server-1").NextSampleSec(); n2 < next {
			next = n2
		}
		if clk.PeekSeconds(b) < next {
			t.Fatalf("tick %d: bound %d stops before the sample tick (%.2f < %.2f)", clk.Tick(), b, clk.PeekSeconds(b), next)
		}
		if b > 0 && !(clk.PeekSeconds(b-1) < next) {
			t.Fatalf("tick %d: bound %d would elide the sample tick at %.2f", clk.Tick(), b, next)
		}
	}
}

// TestStrideBoundCacheMatchesDirect pins the bound's O(1) cache: across
// ticks that cross several control intervals, the cached StrideBound
// must equal the uncached per-manager minimum it replaced, at every max.
func TestStrideBoundCacheMatchesDirect(t *testing.T) {
	pc := ControllerConfig()
	tb := NewTestbed(TestbedConfig{Seed: 9, Servers: 3, PerfCloud: pc})
	clk := tb.Eng.Clock()
	for i := 0; i < 60; i++ {
		tb.Eng.Step()
		for _, max := range []int64{1, 3, 10, 1 << 40} {
			want := max
			tb.Sys.EachManager(func(nm *core.NodeManager) {
				if b := clk.TicksBefore(nm.NextSampleSec(), want); b < want {
					want = b
				}
			})
			if got := tb.Sys.StrideBound(clk, max); got != want {
				t.Fatalf("tick %d max %d: cached bound %d, direct %d", clk.Tick(), max, got, want)
			}
		}
	}
}
