// Package spark simulates a Spark-style framework over the exec
// substrate: an application is an n-stage exec.Job, a sequence of
// stages separated by strict barriers, each stage a wave of tasks over
// the executor pool. The Driver is a FIFO exec.Scheduler that validates
// apps and builds their stages' task specs. The defining behaviour the
// paper leans on (§II-C, Fig. 2) is that after an initial load stage
// that reads input from disk, iterative stages operate on
// memory-resident RDDs: almost no block I/O, but heavy memory-bandwidth
// and LLC traffic — which is why Spark suffers more from a colocated
// STREAM antagonist than MapReduce does, and why throttling an I/O
// antagonist below ~20% buys Spark little (Fig. 1b).
//
// SparkBench's logistic regression, pagerank and svm (§IV-A) are provided
// as application-config constructors.
package spark

import (
	"fmt"
	"strconv"

	"perfcloud/internal/exec"
)

// StageShape bundles a stage's per-task memory behaviour. Its I/O uses
// the executor's default op size.
type StageShape struct {
	CoreCPI         float64
	LLCRefsPerInstr float64
	BytesPerInstr   float64
	WorkingSetBytes float64
}

// loadShape is disk-read-dominant (parsing input into an RDD).
func loadShape() StageShape {
	return StageShape{
		CoreCPI:         0.9,
		LLCRefsPerInstr: 0.02,
		BytesPerInstr:   0.4,
		WorkingSetBytes: 200 << 20,
	}
}

// iterShape is the in-memory iteration profile: the RDD is re-read from
// memory every pass, so bytes-per-instruction and the working set are
// large — the LLC/memory-bandwidth sensitivity the paper measures.
func iterShape() StageShape {
	return StageShape{
		CoreCPI:         0.8,
		LLCRefsPerInstr: 0.04,
		BytesPerInstr:   0.8,
		WorkingSetBytes: 400 << 20,
	}
}

// StageConfig describes one stage.
type StageConfig struct {
	Name         string
	NumTasks     int
	IOBytesPer   float64 // disk bytes per task (input load or shuffle spill)
	InstrPerTask float64
	Shape        StageShape
	// InputKeyPrefix, when set, marks the stage's reads as shared content
	// (task i reads "<prefix>/t<i>"): repeated reads — by job clones or
	// re-runs — can then be served from the host page cache. Leave empty
	// for attempt-private data such as shuffle spills.
	InputKeyPrefix string
}

// AppConfig describes a Spark application.
type AppConfig struct {
	Name   string
	Stages []StageConfig
}

// Driver schedules applications over a pool of Spark executors: each
// app runs as an exec.Job with one stage per StageConfig. It implements
// sim.Tickable; register it before the cluster.
type Driver struct{ *exec.Scheduler }

// NewDriver creates a driver over the executor pool. The speculator (may
// be nil) applies to all stages of all submitted apps.
func NewDriver(pool exec.Pool, spec exec.Speculator) *Driver {
	return &Driver{exec.NewScheduler(pool, spec)}
}

// Submit enqueues an application at nowSec.
func (d *Driver) Submit(cfg AppConfig, nowSec float64) (*exec.Job, error) {
	if len(cfg.Stages) == 0 {
		return nil, fmt.Errorf("spark: app %q has no stages", cfg.Name)
	}
	for _, s := range cfg.Stages {
		if s.NumTasks <= 0 {
			return nil, fmt.Errorf("spark: stage %q needs tasks", s.Name)
		}
	}
	return d.Scheduler.Submit(cfg.Name, len(cfg.Stages), func(id string, i int) (string, []exec.TaskSpec) {
		prefix := id + "/s" + pad2(i)
		return prefix, stageSpecs(prefix, cfg.Stages[i])
	}, nowSec), nil
}

// stageSpecs builds one stage's tasks, named <prefix>-tNNN.
func stageSpecs(prefix string, sc StageConfig) []exec.TaskSpec {
	specs := make([]exec.TaskSpec, sc.NumTasks)
	for i := range specs {
		key := ""
		if sc.InputKeyPrefix != "" {
			key = sc.InputKeyPrefix + "/t" + exec.Pad3(i)
		}
		specs[i] = exec.TaskSpec{
			ID:              prefix + "-t" + exec.Pad3(i),
			IOBytes:         sc.IOBytesPer,
			InputKey:        key,
			Instructions:    sc.InstrPerTask,
			CoreCPI:         sc.Shape.CoreCPI,
			LLCRefsPerInstr: sc.Shape.LLCRefsPerInstr,
			BytesPerInstr:   sc.Shape.BytesPerInstr,
			WorkingSetBytes: sc.Shape.WorkingSetBytes,
		}
	}
	return specs
}

// iterativeApp builds a load stage followed by n in-memory iterations.
func iterativeApp(name string, tasksPerStage, iterations int, inputBytes, instrPerIter float64) AppConfig {
	perTask := inputBytes / float64(tasksPerStage)
	stages := []StageConfig{{
		Name:         "load",
		NumTasks:     tasksPerStage,
		IOBytesPer:   perTask,
		InstrPerTask: perTask * 10,
		Shape:        loadShape(),
	}}
	for i := 0; i < iterations; i++ {
		stages = append(stages, StageConfig{
			Name:         "iter-" + strconv.Itoa(i),
			NumTasks:     tasksPerStage,
			InstrPerTask: instrPerIter,
			Shape:        iterShape(),
		})
	}
	return AppConfig{Name: name, Stages: stages}
}

// LogisticRegression builds the SparkBench logistic-regression app: one
// input load stage plus gradient-descent iterations over the cached RDD.
func LogisticRegression(tasksPerStage, iterations int, inputBytes float64) AppConfig {
	return iterativeApp("spark-logreg", tasksPerStage, iterations, inputBytes, 2.5e9)
}

// SVM builds the SparkBench svm app: like logistic regression with
// heavier per-iteration compute.
func SVM(tasksPerStage, iterations int, inputBytes float64) AppConfig {
	return iterativeApp("spark-svm", tasksPerStage, iterations, inputBytes, 3.5e9)
}

// PageRank builds the SparkBench pagerank app: iterations exchange edge
// contributions, so each iteration also spills a modest amount to disk.
func PageRank(tasksPerStage, iterations int, inputBytes float64) AppConfig {
	cfg := iterativeApp("spark-pagerank", tasksPerStage, iterations, inputBytes, 2.0e9)
	for i := 1; i < len(cfg.Stages); i++ {
		cfg.Stages[i].IOBytesPer = 4 << 20 // shuffle spill per task
	}
	return cfg
}

// pad2 renders a nonnegative stage index like fmt's %02d — zero-padded,
// wider values in full — without the printf machinery.
func pad2(n int) string {
	if n < 0 || n >= 100 {
		return strconv.Itoa(n)
	}
	return string([]byte{'0' + byte(n/10), '0' + byte(n%10)})
}
