package experiments

import (
	"reflect"
	"testing"
	"time"

	"perfcloud/internal/sim"
)

// TestParallelMatchesSequential is the determinism contract of the run
// fan-out: for the same seed, concurrent experiment repetitions must
// produce results bit-for-bit identical to the sequential mode. Run with
// -race to also exercise the data-race freedom of the run fan-out. The
// parallel run asks for an explicit 4 workers: on a single-core host the
// GOMAXPROCS default resolves to 1, which would not exercise the
// concurrent path at all.
func TestParallelMatchesSequential(t *testing.T) {
	const s = seed

	smallVariability := VariabilityConfig{
		Seed:             s,
		Servers:          3,
		WorkersPerServer: 6,
		Runs:             3,
		Fio:              2,
		Streams:          2,
		Tasks:            18,
		Limit:            time.Hour,
	}
	mix := smallMix()
	mix.NumMR, mix.NumSpark = 4, 4

	cases := []struct {
		name string
		run  func(Options) any
	}{
		{"Fig3", func(o Options) any { return Fig3(s, o) }},
		{"Fig9", func(o Options) any { return Fig9(s, o) }},
		{"Fig12", func(o Options) any {
			cfg := smallVariability
			cfg.Options = o
			return Fig12With(cfg, []Scheme{SchemeLATE(), SchemePerfCloud()})
		}},
		{"Fig11", func(o Options) any {
			cfg := mix
			cfg.Options = o
			return Fig11With(cfg, []Scheme{SchemeLATE()})
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sequential := tc.run(Options{Parallel: 1})
			parallel := tc.run(Options{Parallel: 4})

			if !reflect.DeepEqual(sequential, parallel) {
				t.Errorf("parallel result differs from sequential:\nseq: %+v\npar: %+v", sequential, parallel)
			}
		})
	}
}

// TestFig12DefaultParallelismMatchesSequential runs Fig 12 the way
// `perfbench -fig 12` does by default — repetitions fanned out over
// GOMAXPROCS — and requires the result of `-parallel 1`. Every
// repetition's testbed shares the scheme's speculator value, so this
// pins that concurrent testbeds never share LATE's per-call scratch.
func TestFig12DefaultParallelismMatchesSequential(t *testing.T) {
	cfg := VariabilityConfig{
		Seed:             seed,
		Servers:          3,
		WorkersPerServer: 6,
		Runs:             4,
		Fio:              2,
		Streams:          2,
		Tasks:            18,
		Limit:            time.Hour,
	}
	schemes := []Scheme{SchemeLATE(), SchemePerfCloud()}
	seqCfg := cfg
	seqCfg.Options.Parallel = 1
	sequential := Fig12With(seqCfg, schemes)
	for i := 0; i < 3; i++ {
		if got := Fig12With(cfg, schemes); !reflect.DeepEqual(sequential, got) {
			t.Fatalf("run %d at default parallelism differs from -parallel 1:\nseq: %+v\ngot: %+v", i, sequential, got)
		}
	}
}

// TestSharedPoolBoundsWorkers runs concurrent experiment repetitions and
// asserts the process-wide slot pool never hands out more slots than
// it has: total concurrent workers stay at or below GOMAXPROCS (the pool
// capacity plus the one root goroutine). `make race` runs this under the
// race detector, exercising the pool's acquire/release paths.
func TestSharedPoolBoundsWorkers(t *testing.T) {
	pool := sim.SharedPool()
	pool.ResetPeak()

	// The zero Options ask for as many repetition workers as allowed.
	cfg := VariabilityConfig{
		Seed:             seed,
		Servers:          3,
		WorkersPerServer: 6,
		Runs:             6,
		Fio:              2,
		Streams:          2,
		Tasks:            18,
		Limit:            time.Hour,
	}
	Fig12With(cfg, []Scheme{SchemeLATE()})

	if peak, capacity := pool.PeakInUse(), pool.Capacity(); peak > capacity {
		t.Fatalf("pool handed out %d slots, capacity %d: worker fan-outs multiplied", peak, capacity)
	}
	if used := pool.InUse(); used != 0 {
		t.Fatalf("%d slots still held after the suite finished", used)
	}
}
