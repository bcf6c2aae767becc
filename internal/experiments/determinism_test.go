package experiments

import (
	"reflect"
	"testing"
	"time"

	"perfcloud/internal/sim"
)

// setParallel bounds concurrent experiment repetitions for the duration
// of a test. Explicit counts matter — on a single-core host
// GOMAXPROCS-based defaults resolve to 1 worker, which would not exercise
// the concurrent path at all.
func setParallel(t *testing.T, runs int) {
	t.Helper()
	prev := SetMaxParallelRuns(runs)
	t.Cleanup(func() { SetMaxParallelRuns(prev) })
}

// TestParallelMatchesSequential is the determinism contract of the run
// fan-out: for the same seed, concurrent experiment repetitions must
// produce results bit-for-bit identical to the sequential mode. Run with
// -race to also exercise the data-race freedom of the run fan-out.
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
		run  func() any
	}{
		{"Fig3", func() any { return Fig3(s) }},
		{"Fig9", func() any { return Fig9(s) }},
		{"Fig12", func() any { return Fig12With(smallVariability, []Scheme{SchemeLATE(), SchemePerfCloud()}) }},
		{"Fig11", func() any { return Fig11With(mix, []Scheme{SchemeLATE()}) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			setParallel(t, 1)
			sequential := tc.run()

			setParallel(t, 4)
			parallel := tc.run()

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
	setParallel(t, 1)
	sequential := Fig12With(cfg, schemes)
	setParallel(t, 0)
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

	prev := SetMaxParallelRuns(0) // automatic: as many repetition workers as allowed
	t.Cleanup(func() { SetMaxParallelRuns(prev) })

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
