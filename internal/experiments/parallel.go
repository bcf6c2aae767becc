package experiments

import (
	"sync/atomic"

	"perfcloud/internal/sim"
)

// maxParallelRuns caps how many independent experiment repetitions (each
// with its own engine, testbed and seed) run concurrently. 0 selects
// GOMAXPROCS; 1 forces the sequential mode determinism tests compare
// against.
var maxParallelRuns atomic.Int64

// SetMaxParallelRuns sets the package-wide concurrency cap for repeated
// experiment runs and returns the previous value, so tests can restore it
// with defer. n <= 0 resets to automatic (GOMAXPROCS).
func SetMaxParallelRuns(n int) int {
	if n < 0 {
		n = 0
	}
	return int(maxParallelRuns.Swap(int64(n)))
}

// MaxParallelRuns reports the current setting (0 = automatic).
func MaxParallelRuns() int { return int(maxParallelRuns.Load()) }

// forEachRun executes fn(i) for i in [0, n), fanning independent
// repetitions out across at most MaxParallelRuns goroutines. Each engine
// is self-contained (own RNG streams, own cluster), so results written to
// index-owned slots are bit-for-bit identical to a sequential loop.
// Workers come from the process-wide shared slot pool, so concurrent or
// nested repetition fan-outs never oversubscribe GOMAXPROCS.
func forEachRun(n int, fn func(i int)) {
	sim.ForEachShared(n, sim.Workers(MaxParallelRuns()), fn)
}
