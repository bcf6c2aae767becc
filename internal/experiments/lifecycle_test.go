package experiments

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"perfcloud/internal/cluster"
	"perfcloud/internal/mapreduce"
	"perfcloud/internal/sim"
)

// lifecycleVariability is a small Fig 12 grid: enough testbeds that the
// second of two runs loads every stream into a vector, and builds every
// server on a kit, that an earlier testbed's Close released.
func lifecycleVariability() VariabilityConfig {
	return VariabilityConfig{
		Seed:             9,
		Servers:          3,
		WorkersPerServer: 6,
		Runs:             3,
		Fio:              2,
		Streams:          2,
		Tasks:            18,
		Limit:            time.Hour,
	}
}

// TestFig12RecycledStreamsIdentical runs a small Fig 12 grid twice in one
// process and once on the reference oracle. The first run starts from
// whatever the free lists hold; the second runs entirely on recycled
// state vectors and server kits, which the test checks for the kits (it
// is not parallel, so no other test takes from the list meanwhile). All
// three results must DeepEqual: recycling is invisible to every draw and
// every grant. The reference run builds every server afresh.
func TestFig12RecycledStreamsIdentical(t *testing.T) {
	cfg := lifecycleVariability()
	run := func(o Options) Fig12Result {
		c := cfg
		c.Options = o
		return Fig12With(c, []Scheme{SchemeLATE(), SchemeDolly(2), SchemePerfCloud()})
	}
	first := run(Options{})
	misses := cluster.KitMisses()
	second := run(Options{})
	if n := cluster.KitMisses() - misses; n != 0 {
		t.Errorf("the second run built %d servers on fresh kits, want none", n)
	}
	if !reflect.DeepEqual(first, second) {
		t.Errorf("second run on recycled streams and kits differs:\nfirst:  %+v\nsecond: %+v", first, second)
	}
	if ref := run(Options{reference: true}); !reflect.DeepEqual(first, ref) {
		t.Errorf("run differs from the reference:\nopt: %+v\nref: %+v", first, ref)
	}
}

// TestTestbedClose: Close may be called twice, and afterwards every
// stream of the testbed's engine — the DFS placement stream included —
// refuses to draw rather than read a recycled vector.
func TestTestbedClose(t *testing.T) {
	tb := NewTestbed(TestbedConfig{Seed: 3, Servers: 2, WorkersPerServer: 3})
	tb.MustInput("input", 4*(64<<20))
	tb.Close()
	tb.Close()
	defer func() {
		if got := recover(); got != sim.ReleasedStream {
			t.Fatalf("DFS placement after Close recovered %v, want %q", got, sim.ReleasedStream)
		}
	}()
	tb.MustInput("more", 64<<20)
}

// BenchmarkTestbedLifecycle measures one Fig 12 testbed's set-up, first
// rebuilds and teardown: NewTestbed at the paper's size (15 servers of 10
// workers), the 50-block input file, a terasort's first ten ticks — the
// first wave of tasks, which rebuilds every server's grant phase for the
// first time — and Close. With -benchmem its B/op is the per-repetition
// garbage of what Fig 12 pays 182 times a call before its steady ticks.
func BenchmarkTestbedLifecycle(b *testing.B) {
	cfg := DefaultVariabilityConfig()
	b.ReportAllocs()
	var rebuilds uint64
	for i := 0; i < b.N; i++ {
		tb := NewTestbed(TestbedConfig{
			Seed:             cfg.Seed + int64(i%cfg.Runs)*997,
			Servers:          cfg.Servers,
			WorkersPerServer: cfg.WorkersPerServer,
			BlockBytes:       mixBlockBytes,
		})
		tb.MustInput("input", float64(cfg.Tasks)*mixBlockBytes)
		if _, err := tb.JT.Submit(mapreduce.Terasort("input", cfg.Tasks/5), 0); err != nil {
			b.Fatal(err)
		}
		tb.Eng.Run(10)
		tb.Close()
		rebuilds += tb.Clus.FastPathStats().Rebuilds
	}
	b.ReportMetric(float64(rebuilds)/float64(b.N), "rebuilds/op")
}

// TestTestbedIDsMatchSprintf: the worker and server ids NewTestbed builds
// without fmt are the ones fmt builds, through the three-digit indexes
// where %02d stops padding.
func TestTestbedIDsMatchSprintf(t *testing.T) {
	for s := 0; s <= 150; s++ {
		if got, want := serverID(s), fmt.Sprintf("server-%d", s); got != want {
			t.Fatalf("serverID(%d) = %q, want %q", s, got, want)
		}
		for w := 0; w <= 150; w++ {
			if got, want := workerID(s, w), fmt.Sprintf("worker-%02d-%02d", s, w); got != want {
				t.Fatalf("workerID(%d, %d) = %q, want %q", s, w, got, want)
			}
		}
	}
}
