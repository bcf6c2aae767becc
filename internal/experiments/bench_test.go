package experiments

import "testing"

// BenchmarkFigSuite times one full pass of the Fig 3-12 evaluation
// suite at paper scale — the same figure set and configurations that
// `perfbench -suite` runs. One iteration takes a few seconds, so `make
// bench-suite` runs it with -benchtime=1x and merges the result into
// BENCH_suite.json alongside perfbench's per-figure timings.
func BenchmarkFigSuite(b *testing.B) {
	const seed = 42
	for i := 0; i < b.N; i++ {
		Fig3(seed, Options{})
		Fig4(seed, Options{})
		Fig5(seed, Options{})
		Fig6(seed, Options{})
		Fig7()
		r9 := Fig9(seed, Options{})
		Fig10(r9.Arm("perfcloud"))
		cfg11 := DefaultLargeScaleConfig()
		cfg11.Seed = seed
		Fig11With(cfg11, []Scheme{
			SchemeLATE(),
			SchemeDolly(2),
			SchemeDolly(4),
			SchemeDolly(6),
			SchemePerfCloud(),
		})
		cfg12 := DefaultVariabilityConfig()
		cfg12.Seed = seed
		Fig12With(cfg12, []Scheme{
			SchemeLATE(),
			SchemeDolly(2),
			SchemePerfCloud(),
		})
	}
}
