package experiments

import (
	"reflect"
	"testing"
	"time"

	"perfcloud/internal/sim"
)

// lifecycleVariability is a small Fig 12 grid: enough testbeds that the
// second of two runs loads every stream into a vector an earlier
// testbed's Close released.
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
// whatever the free list holds; the second runs entirely on recycled
// state vectors. All three results must DeepEqual: recycling is
// invisible to every draw.
func TestFig12RecycledStreamsIdentical(t *testing.T) {
	cfg := lifecycleVariability()
	run := func(o Options) Fig12Result {
		c := cfg
		c.Options = o
		return Fig12With(c, []Scheme{SchemeLATE(), SchemeDolly(2), SchemePerfCloud()})
	}
	first := run(Options{})
	if second := run(Options{}); !reflect.DeepEqual(first, second) {
		t.Errorf("second run on recycled streams differs:\nfirst:  %+v\nsecond: %+v", first, second)
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

// BenchmarkTestbedLifecycle measures one Fig 12 testbed's set-up and
// teardown: NewTestbed at the paper's size (15 servers of 10 workers),
// the 50-block input file, and Close. With -benchmem its B/op is the
// per-repetition set-up garbage Fig 12 pays 182 times a call.
func BenchmarkTestbedLifecycle(b *testing.B) {
	cfg := DefaultVariabilityConfig()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tb := NewTestbed(TestbedConfig{
			Seed:             cfg.Seed + int64(i%cfg.Runs)*997,
			Servers:          cfg.Servers,
			WorkersPerServer: cfg.WorkersPerServer,
			BlockBytes:       mixBlockBytes,
		})
		tb.MustInput("input", float64(cfg.Tasks)*mixBlockBytes)
		tb.Close()
	}
}
