// Package mapreduce simulates a Hadoop-1-style MapReduce framework over
// the exec substrate. A job is a two-stage exec.Job: one map task per
// HDFS block (with replica locality), a strict shuffle barrier, then the
// reduce wave; a job without reduces is the map stage alone. The
// JobTracker is a FIFO exec.Scheduler that validates jobs against the
// DFS and builds their task specs. Task slots live on per-VM executors
// (TaskTrackers). Straggler mitigation plugs in through exec.Speculator
// (LATE and friends live in the straggler package), and Dolly-style
// whole-job cloning is supported through Job.Kill plus idempotent
// re-submission.
//
// The PUMA benchmarks the paper evaluates — terasort, wordcount and
// inverted-index (§IV-A) — are provided as job-config constructors whose
// resource shapes set their I/O-vs-compute balance: terasort is
// I/O-dominant with a full-size shuffle, wordcount is compute-dominant
// with a tiny shuffle, inverted-index sits between.
package mapreduce

import (
	"fmt"

	"perfcloud/internal/dfs"
	"perfcloud/internal/exec"
)

// TaskShape bundles the per-byte compute intensity and memory behaviour
// of one task type.
type TaskShape struct {
	InstrPerByte    float64 // instructions retired per input byte
	OpBytes         float64 // I/O granularity (0 = exec default)
	CoreCPI         float64
	LLCRefsPerInstr float64
	BytesPerInstr   float64
	WorkingSetBytes float64
}

// defaultMRShape is the baseline memory behaviour of Hadoop tasks.
func defaultMRShape(instrPerByte float64) TaskShape {
	return TaskShape{
		InstrPerByte:    instrPerByte,
		CoreCPI:         0.9,
		LLCRefsPerInstr: 0.02,
		BytesPerInstr:   0.3,
		WorkingSetBytes: 100 << 20,
	}
}

// JobConfig describes one MapReduce job.
type JobConfig struct {
	Name       string
	InputFile  string // DFS file; one map task per block
	NumReduces int

	// MapOutputRatio is intermediate bytes per input byte (terasort ~1,
	// wordcount ~0.05). The shuffle moves NumMaps*block*ratio bytes.
	MapOutputRatio float64
	// ReduceOutputRatio is output bytes per shuffled byte.
	ReduceOutputRatio float64

	MapShape    TaskShape
	ReduceShape TaskShape
}

// Job is one submitted MapReduce job: a map stage, then (with reduces)
// a reduce stage.
type Job = exec.Job

// JobTracker schedules jobs over a pool of task-tracker executors.
// It implements sim.Tickable; register it before the cluster so tasks
// scheduled in a tick consume that tick's resources.
type JobTracker struct {
	*exec.Scheduler
	fs *dfs.FileSystem
}

// NewJobTracker creates a tracker over the executor pool and filesystem.
// The speculator (may be nil) applies to every job's map and reduce sets.
func NewJobTracker(pool exec.Pool, fs *dfs.FileSystem, spec exec.Speculator) *JobTracker {
	return &JobTracker{Scheduler: exec.NewScheduler(pool, spec), fs: fs}
}

// Submit enqueues a job at nowSec. The input file must already exist in
// the DFS. A job without reduces ends with its map wave.
func (jt *JobTracker) Submit(cfg JobConfig, nowSec float64) (*Job, error) {
	f, ok := jt.fs.Open(cfg.InputFile)
	if !ok {
		return nil, fmt.Errorf("mapreduce: input file %q not found", cfg.InputFile)
	}
	if cfg.NumReduces < 0 {
		return nil, fmt.Errorf("mapreduce: negative reduce count")
	}
	stages := 2
	if cfg.NumReduces == 0 {
		stages = 1
	}
	return jt.Scheduler.Submit(cfg.Name, stages, func(id string, i int) (string, []exec.TaskSpec) {
		if i == 0 {
			return id + "/map", mapSpecs(id, cfg, f)
		}
		return id + "/reduce", reduceSpecs(id, cfg, f)
	}, nowSec), nil
}

// mapSpecs derives one task per input block, preferring replica holders.
func mapSpecs(id string, cfg JobConfig, f dfs.File) []exec.TaskSpec {
	specs := make([]exec.TaskSpec, 0, len(f.Blocks))
	s := cfg.MapShape
	for _, b := range f.Blocks {
		specs = append(specs, exec.TaskSpec{
			ID:              id + "/m" + exec.Pad3(b.Index),
			IOBytes:         b.Bytes,
			OpBytes:         s.OpBytes,
			InputKey:        cfg.InputFile + "/b" + exec.Pad3(b.Index),
			Instructions:    b.Bytes * s.InstrPerByte,
			CoreCPI:         s.CoreCPI,
			LLCRefsPerInstr: s.LLCRefsPerInstr,
			BytesPerInstr:   s.BytesPerInstr,
			WorkingSetBytes: s.WorkingSetBytes,
			PreferredVMs:    b.Replicas,
		})
	}
	return specs
}

// reduceSpecs splits the shuffled intermediate data across reducers; a
// reduce task's I/O covers both its shuffle read and its output write.
func reduceSpecs(id string, cfg JobConfig, f dfs.File) []exec.TaskSpec {
	inter := f.Bytes * cfg.MapOutputRatio
	perReduce := inter / float64(cfg.NumReduces)
	out := perReduce * cfg.ReduceOutputRatio
	s := cfg.ReduceShape
	specs := make([]exec.TaskSpec, 0, cfg.NumReduces)
	for i := 0; i < cfg.NumReduces; i++ {
		specs = append(specs, exec.TaskSpec{
			ID:              id + "/r" + exec.Pad3(i),
			IOBytes:         perReduce + out,
			OpBytes:         s.OpBytes,
			Instructions:    perReduce * s.InstrPerByte,
			CoreCPI:         s.CoreCPI,
			LLCRefsPerInstr: s.LLCRefsPerInstr,
			BytesPerInstr:   s.BytesPerInstr,
			WorkingSetBytes: s.WorkingSetBytes,
		})
	}
	return specs
}

// Terasort builds the PUMA terasort job: I/O-dominant maps (sort is
// cheap per byte) and a full-size shuffle — the paper's most
// interference-sensitive MapReduce benchmark (72% degradation in Fig. 1).
func Terasort(input string, numReduces int) JobConfig {
	return JobConfig{
		Name:              "terasort",
		InputFile:         input,
		NumReduces:        numReduces,
		MapOutputRatio:    1.0,
		ReduceOutputRatio: 1.0,
		MapShape:          defaultMRShape(8),
		ReduceShape:       defaultMRShape(8),
	}
}

// Wordcount builds the PUMA wordcount job: compute-dominant maps
// (tokenising costs far more instructions per byte) and a tiny shuffle.
func Wordcount(input string, numReduces int) JobConfig {
	return JobConfig{
		Name:              "wordcount",
		InputFile:         input,
		NumReduces:        numReduces,
		MapOutputRatio:    0.05,
		ReduceOutputRatio: 1.0,
		MapShape:          defaultMRShape(30),
		ReduceShape:       defaultMRShape(15),
	}
}

// InvertedIndex builds the PUMA inverted-index job: between terasort and
// wordcount in both compute intensity and shuffle volume.
func InvertedIndex(input string, numReduces int) JobConfig {
	return JobConfig{
		Name:              "inverted-index",
		InputFile:         input,
		NumReduces:        numReduces,
		MapOutputRatio:    0.3,
		ReduceOutputRatio: 1.0,
		MapShape:          defaultMRShape(22),
		ReduceShape:       defaultMRShape(12),
	}
}
