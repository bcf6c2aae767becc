package experiments

import (
	"testing"
	"time"
)

// BenchmarkFigSuite times one full pass of the evaluation suite at paper
// scale: the Figures entries marked Suite, run as `perfbench -suite`
// runs them. One iteration takes a few seconds, so `make bench-suite`
// runs it with -benchtime=1x and merges the result into BENCH_suite.json
// alongside perfbench's per-figure timings.
func BenchmarkFigSuite(b *testing.B) {
	var suite []Figure
	for _, f := range Figures() {
		if f.Suite {
			suite = append(suite, f)
		}
	}
	discard := func(Figure, Output, time.Duration) error { return nil }
	for i := 0; i < b.N; i++ {
		if err := RunFigures(suite, 42, Options{}, false, discard); err != nil {
			b.Fatal(err)
		}
	}
}
