// Benchmarks that regenerate every figure of the paper's motivation and
// evaluation sections: BenchmarkFigures runs each experiments.Figures
// entry at paper scale as a sub-benchmark named after its perfbench -fig
// value (the per-experiment index in DESIGN.md maps figures to them). A
// sub-benchmark reports the figure's headline quantities as custom
// metrics and, under -v, logs its tables on the first iteration.
//
// Run everything:
//
//	go test -bench=. -benchmem
//
// or a single figure:
//
//	go test -bench='Figures/9$' -benchtime=1x
package perfcloud_test

import (
	"runtime"
	"testing"
	"time"

	"perfcloud/internal/experiments"
	"perfcloud/internal/spark"
	"perfcloud/internal/workloads"
)

const benchSeed = 42

// metrics adapts a report over one figure's typed result to a row of
// figureMetrics.
func metrics[R any](report func(b *testing.B, r R)) func(*testing.B, any) {
	return func(b *testing.B, r any) { report(b, r.(R)) }
}

// figureMetrics maps each figure, by -fig name, to the custom metrics
// its sub-benchmark reports.
var figureMetrics = map[string]func(*testing.B, any){
	"1": metrics(func(b *testing.B, r experiments.Fig1Result) {
		b.ReportMetric(r.Degradation("terasort"), "terasort-normJCT")
		b.ReportMetric(r.Degradation("spark-logreg"), "logreg-normJCT")
	}),
	"2": metrics(func(b *testing.B, r experiments.Fig2Result) {
		b.ReportMetric(r.MeanNormJCT(false), "mr-normJCT")
		b.ReportMetric(r.MeanNormJCT(true), "spark-normJCT")
	}),
	"3": metrics(func(b *testing.B, r experiments.Fig3Result) {
		b.ReportMetric(r.Alone.PeakIowait(), "peak-alone")
		b.ReportMetric(r.WithFio.PeakIowait(), "peak-fio")
		b.ReportMetric(r.PeakRatio(), "peak-ratio")
	}),
	"4": metrics(func(b *testing.B, r experiments.Fig4Result) {
		var maxAlone, minStream float64
		for k, row := range r.Rows {
			maxAlone = max(maxAlone, row.PeakAlone)
			if k == 0 || row.PeakStream < minStream {
				minStream = row.PeakStream
			}
		}
		b.ReportMetric(maxAlone, "max-peak-alone")
		b.ReportMetric(minStream, "min-peak-stream")
	}),
	"5": metrics(func(b *testing.B, r experiments.IdentificationResult) {
		for _, row := range r.Rows {
			if row.Suspect == "fio-randread" {
				b.ReportMetric(row.ByN[3], "fio-r-at-n3")
			}
		}
	}),
	"6": metrics(func(b *testing.B, r experiments.IdentificationResult) {
		for _, row := range r.Rows {
			if row.Suspect == "stream" {
				b.ReportMetric(row.ByN[6], "stream-r-at-n6")
			}
		}
	}),
	"7": metrics(func(b *testing.B, r experiments.Fig7Result) {
		b.ReportMetric(r.K, "K-intervals")
	}),
	"9": metrics(func(b *testing.B, r experiments.Fig9Result) {
		def := r.Arm("default").JCT
		b.ReportMetric(r.Arm("static").JCT/def, "static-normJCT")
		b.ReportMetric(r.Arm("perfcloud").JCT/def, "perfcloud-normJCT")
	}),
	"10": metrics(func(b *testing.B, r experiments.Fig10Result) {
		b.ReportMetric(float64(experiments.ThrottleEpisodes(r.FioCap)), "fio-episodes")
		b.ReportMetric(float64(experiments.ThrottleEpisodes(r.StreamCap)), "stream-episodes")
	}),
	"11": metrics(func(b *testing.B, r experiments.Fig11Result) {
		b.ReportMetric(r.Row("PerfCloud").FracUnder30, "perfcloud-under30")
		b.ReportMetric(r.Row("LATE").FracUnder30, "late-under30")
		b.ReportMetric(r.Row("Dolly-6").FracUnder30, "dolly6-under30")
		b.ReportMetric(r.Row("PerfCloud").Efficiency, "perfcloud-eff")
		b.ReportMetric(r.Row("Dolly-2").Efficiency, "dolly2-eff")
		b.ReportMetric(r.Row("Dolly-6").Efficiency, "dolly6-eff")
	}),
	"12": metrics(func(b *testing.B, r experiments.Fig12Result) {
		ts := r.Row("terasort", "PerfCloud").Summary
		b.ReportMetric(ts.Median, "perfcloud-median")
		b.ReportMetric(ts.IQR(), "perfcloud-iqr")
		b.ReportMetric(r.Row("terasort", "LATE").Summary.Median, "late-median")
	}),
	"ablations": metrics(func(b *testing.B, r experiments.AblationsResult) {
		b.ReportMetric(r.Detector.DevOLTP, "dev-flags-benign")
		b.ReportMetric(r.Detector.AbsOLTP, "abs-flags-benign")
		b.ReportMetric(r.Pearson.MissingAsZero, "missing-as-zero-r")
		b.ReportMetric(r.Pearson.OmitMissing, "omit-r")
		b.ReportMetric(float64(r.Control.Row("cubic").Decreases), "cubic-decreases")
		b.ReportMetric(float64(r.Control.Row("aimd").Decreases), "aimd-decreases")
		b.ReportMetric(r.EWMA.SmoothedAlonePeak, "smoothed-alone-peak")
		b.ReportMetric(r.EWMA.RawAlonePeak, "raw-alone-peak")
	}),
	"extensions": metrics(func(b *testing.B, r experiments.ExtensionsResult) {
		def := r.Heterogeneous.Row("default").MeanJCT
		b.ReportMetric(r.Heterogeneous.Row("PerfCloud").MeanJCT/def, "perfcloud-normJCT")
		b.ReportMetric(r.Heterogeneous.Row("PerfCloud+LATE").MeanJCT/def, "hybrid-normJCT")
		b.ReportMetric(r.Migration.JCTWith/r.Migration.JCTWithout, "migrated-normJCT")
		b.ReportMetric(float64(r.Migration.Migrations), "migrations")
	}),
}

// BenchmarkFigures regenerates each figure of experiments.Figures at
// paper scale, one sub-benchmark per entry.
func BenchmarkFigures(b *testing.B) {
	for _, f := range experiments.Figures() {
		report := figureMetrics[f.Name]
		b.Run(f.Name, func(b *testing.B) {
			if report == nil {
				b.Fatalf("figure %s has no row in figureMetrics", f.Name)
			}
			for i := 0; i < b.N; i++ {
				out := f.Run(benchSeed, experiments.Options{}, false)
				report(b, out.Result)
				if i == 0 {
					for _, t := range out.Tables {
						b.Log("\n" + t.String())
					}
				}
			}
		})
	}
}

// The two overhead benches are the §IV-D1 overhead analysis: simulation
// cost per tick on a loaded 12-worker server with and without the
// PerfCloud agent attached; the difference is the agent's own compute
// (on the paper's hardware, monitoring is counter reads and a cap
// application takes < 30 ms — here both are sub-microsecond amortized).
func BenchmarkOverhead_TickWithPerfCloud(b *testing.B)    { benchTick(b, true) }
func BenchmarkOverhead_TickWithoutPerfCloud(b *testing.B) { benchTick(b, false) }

func benchTick(b *testing.B, perfcloud bool) {
	cfg := experiments.TestbedConfig{Seed: benchSeed, WorkersPerServer: 12}
	if perfcloud {
		cfg.PerfCloud = experiments.ControllerConfig()
	}
	tb := experiments.NewTestbed(cfg)
	tb.MustInput("input", 640<<20)
	tb.AddAntagonist(0, workloads.NewFioRandRead(workloads.AlwaysOn))
	tb.AddAntagonist(0, workloads.NewStream(workloads.AlwaysOn))
	// Keep the cluster busy: one long logistic regression.
	if _, err := tb.Driver.Submit(spark.LogisticRegression(24, 1000, 640<<20), 0); err != nil {
		b.Fatal(err)
	}
	tb.Eng.Run(100) // 10 s of 100 ms ticks: warm up counters and caches
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tb.Eng.Step()
	}
}

// BenchmarkFig12Parallel measures the run-level fan-out: a small Fig 12
// grid executed with sequential repetitions and with GOMAXPROCS-many
// concurrent repetitions, reporting the speedup. The results themselves
// are bit-for-bit identical (see TestParallelMatchesSequential).
func BenchmarkFig12Parallel(b *testing.B) {
	cfg := experiments.VariabilityConfig{
		Seed:             benchSeed,
		Servers:          3,
		WorkersPerServer: 6,
		Runs:             6,
		Fio:              2,
		Streams:          2,
		Tasks:            18,
		Limit:            time.Hour,
	}
	schemes := []experiments.Scheme{experiments.SchemeLATE(), experiments.SchemePerfCloud()}
	run := func(parallel int) float64 {
		cfg.Options.Parallel = parallel
		start := time.Now()
		for i := 0; i < b.N; i++ {
			experiments.Fig12With(cfg, schemes)
		}
		return float64(time.Since(start).Nanoseconds()) / float64(b.N)
	}
	seqNs := run(1)
	b.ResetTimer()
	parNs := run(runtime.GOMAXPROCS(0))
	if parNs > 0 {
		b.ReportMetric(seqNs/parNs, "speedup")
	}
	b.ReportMetric(float64(runtime.GOMAXPROCS(0)), "workers")
}
