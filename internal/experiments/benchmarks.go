package experiments

import (
	"time"

	"perfcloud/internal/mapreduce"
	"perfcloud/internal/spark"
)

// Bench names one of the paper's six application benchmarks: terasort,
// wordcount and inverted-index from PUMA; pagerank, logistic regression
// and svm from SparkBench (§IV-A).
type Bench struct {
	Name  string
	Spark bool
}

// Benches lists all six in the paper's order.
func Benches() []Bench {
	return []Bench{
		{Name: "terasort"},
		{Name: "wordcount"},
		{Name: "inverted-index"},
		{Name: "spark-pagerank", Spark: true},
		{Name: "spark-logreg", Spark: true},
		{Name: "spark-svm", Spark: true},
	}
}

// standardInputBytes is the small-scale input: ten 64 MB blocks, giving
// the "10 map tasks" jobs of §III-A.
const standardInputBytes = 640 << 20

// runLimit bounds any single small-scale job (simulated time).
const runLimit = 30 * time.Minute

// RunBench runs one canonical small-scale instance of the named
// benchmark on the testbed and returns its completion time in seconds.
// The testbed must have an input file named "input" for MapReduce jobs.
func RunBench(tb *Testbed, b Bench) float64 {
	if b.Spark {
		return tb.RunSpark(sparkConfig(b.Name), runLimit).JCT()
	}
	return tb.RunMR(mrConfig(b.Name), runLimit).JCT()
}

// benchAlone runs the benchmark on a fresh interference-free small
// testbed and returns its completion time in seconds.
func benchAlone(seed int64, b Bench, opts Options) float64 {
	tb := smallTestbed(seed, nil, opts)
	defer tb.Close()
	return RunBench(tb, b)
}

// mrConfig maps a benchmark name to its canonical job configuration.
func mrConfig(name string) mapreduce.JobConfig {
	switch name {
	case "terasort":
		return mapreduce.Terasort("input", 10)
	case "wordcount":
		return mapreduce.Wordcount("input", 10)
	case "inverted-index":
		return mapreduce.InvertedIndex("input", 10)
	}
	panic("experiments: unknown MapReduce benchmark " + name)
}

// sparkConfig maps a benchmark name to its canonical app configuration.
func sparkConfig(name string) spark.AppConfig {
	switch name {
	case "spark-pagerank":
		return spark.PageRank(10, 3, standardInputBytes)
	case "spark-logreg":
		return spark.LogisticRegression(10, 4, standardInputBytes)
	case "spark-svm":
		return spark.SVM(10, 3, standardInputBytes)
	case "spark-logreg-mem":
		// Long-running variant used by the §III-B identification case
		// study: a short load followed by enough memory-resident passes to
		// span the whole measurement window, so the victim signal is not
		// modulated by job restarts and disk-load phases.
		return spark.LogisticRegression(10, 60, 128<<20)
	}
	panic("experiments: unknown Spark benchmark " + name)
}

// smallTestbed builds the canonical 6-VM single-server testbed with the
// standard input file.
func smallTestbed(seed int64, pc *TestbedConfig, opts Options) *Testbed {
	cfg := TestbedConfig{Seed: seed}
	if pc != nil {
		cfg = *pc
		cfg.Seed = seed
	}
	tb := opts.newTestbed(cfg)
	tb.MustInput("input", standardInputBytes)
	return tb
}
