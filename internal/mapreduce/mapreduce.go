// Package mapreduce simulates a Hadoop-1-style MapReduce framework over
// the exec substrate: a JobTracker accepts jobs, derives one map task per
// HDFS block (with replica locality), runs the map wave, then a strict
// shuffle barrier, then the reduce wave. Task slots live on per-VM
// executors (TaskTrackers). Straggler mitigation plugs in through
// exec.Speculator (LATE and friends live in the straggler package), and
// Dolly-style whole-job cloning is supported through Job.Kill plus
// idempotent re-submission.
//
// The PUMA benchmarks the paper evaluates — terasort, wordcount and
// inverted-index (§IV-A) — are provided as job-config constructors whose
// resource shapes set their I/O-vs-compute balance: terasort is
// I/O-dominant with a full-size shuffle, wordcount is compute-dominant
// with a tiny shuffle, inverted-index sits between.
package mapreduce

import (
	"fmt"
	"strconv"

	"perfcloud/internal/dfs"
	"perfcloud/internal/exec"
	"perfcloud/internal/sim"
	"perfcloud/internal/trace"
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

// State is a job's lifecycle phase.
type State int

const (
	// StateQueued means the job has been submitted but not started.
	StateQueued State = iota
	// StateMap means the map wave is running.
	StateMap
	// StateReduce means the reduce wave is running.
	StateReduce
	// StateCompleted means all reduces finished.
	StateCompleted
	// StateKilled means the job was killed (e.g. a losing Dolly clone).
	StateKilled
)

// String names the state.
func (s State) String() string {
	switch s {
	case StateQueued:
		return "queued"
	case StateMap:
		return "map"
	case StateReduce:
		return "reduce"
	case StateCompleted:
		return "completed"
	default:
		return "killed"
	}
}

// Job is one submitted MapReduce job.
type Job struct {
	id    string
	cfg   JobConfig
	state State

	file      dfs.File
	mapSet    *exec.TaskSet
	reduceSet *exec.TaskSet
	spec      exec.Speculator

	tr   *trace.Tracer
	span trace.SpanID

	submitSec float64
	finishSec float64
}

// Span returns the job's trace span (trace.NoSpan when tracing is off).
func (j *Job) Span() trace.SpanID { return j.span }

// ID returns the job id.
func (j *Job) ID() string { return j.id }

// Config returns the job configuration.
func (j *Job) Config() JobConfig { return j.cfg }

// State returns the job's phase.
func (j *Job) State() State { return j.state }

// Done reports whether the job completed or was killed.
func (j *Job) Done() bool { return j.state == StateCompleted || j.state == StateKilled }

// Completed reports successful completion.
func (j *Job) Completed() bool { return j.state == StateCompleted }

// JCT returns the job completion time in seconds (0 until done).
func (j *Job) JCT() float64 {
	if !j.Done() {
		return 0
	}
	return j.finishSec - j.submitSec
}

// SubmitSec returns the submission time.
func (j *Job) SubmitSec() float64 { return j.submitSec }

// NumMaps returns the number of map tasks.
func (j *Job) NumMaps() int { return len(j.file.Blocks) }

// TaskSets returns the job's task sets created so far.
func (j *Job) TaskSets() []*exec.TaskSet {
	var out []*exec.TaskSet
	if j.mapSet != nil {
		out = append(out, j.mapSet)
	}
	if j.reduceSet != nil {
		out = append(out, j.reduceSet)
	}
	return out
}

// Account sums the job's attempt-time accounting as of nowSec.
func (j *Job) Account(nowSec float64) exec.Accounting {
	var acc exec.Accounting
	for _, ts := range j.TaskSets() {
		a := ts.Account(nowSec)
		acc.SuccessfulSeconds += a.SuccessfulSeconds
		acc.TotalSeconds += a.TotalSeconds
	}
	return acc
}

// Kill terminates the job immediately.
func (j *Job) Kill(nowSec float64) {
	if j.Done() {
		return
	}
	for _, ts := range j.TaskSets() {
		ts.Kill(nowSec)
	}
	j.state = StateKilled
	j.finishSec = nowSec
	j.tr.MarkKilled(j.span)
	j.tr.End(j.span, nowSec)
}

// JobTracker schedules jobs over a pool of task-tracker executors.
// It implements sim.Tickable; register it before the cluster so tasks
// scheduled in a tick consume that tick's resources.
type JobTracker struct {
	fs     *dfs.FileSystem
	pool   exec.Pool
	jobs   []*Job
	nextID int
	spec   exec.Speculator // default speculator for new jobs (may be nil)
	tr     *trace.Tracer   // nil when tracing is off
}

// SetTracer attaches a span tracer: subsequent Submits open job spans
// and their task sets are traced. Attach before submitting jobs.
func (jt *JobTracker) SetTracer(tr *trace.Tracer) { jt.tr = tr }

// NewJobTracker creates a tracker over the executor pool and filesystem.
func NewJobTracker(pool exec.Pool, fs *dfs.FileSystem, spec exec.Speculator) *JobTracker {
	return &JobTracker{fs: fs, pool: pool, spec: spec}
}

// Pool returns the tracker's executor pool.
func (jt *JobTracker) Pool() exec.Pool { return jt.pool }

// Jobs returns all submitted jobs in submission order.
func (jt *JobTracker) Jobs() []*Job { return append([]*Job(nil), jt.jobs...) }

// Submit enqueues a job at nowSec. The input file must already exist in
// the DFS.
func (jt *JobTracker) Submit(cfg JobConfig, nowSec float64) (*Job, error) {
	f, ok := jt.fs.Open(cfg.InputFile)
	if !ok {
		return nil, fmt.Errorf("mapreduce: input file %q not found", cfg.InputFile)
	}
	if cfg.NumReduces < 0 {
		return nil, fmt.Errorf("mapreduce: negative reduce count")
	}
	j := &Job{
		id:        cfg.Name + "-" + strconv.Itoa(jt.nextID),
		cfg:       cfg,
		file:      f,
		spec:      jt.spec,
		tr:        jt.tr,
		span:      trace.NoSpan,
		submitSec: nowSec,
	}
	j.span = j.tr.Start(trace.KindJob, j.id, "", trace.NoSpan, nowSec)
	jt.nextID++
	jt.jobs = append(jt.jobs, j)
	return j, nil
}

// Tick implements sim.Tickable: advance every live job (FIFO order —
// earlier jobs grab slots first, as Hadoop's default scheduler does).
func (jt *JobTracker) Tick(c *sim.Clock) {
	now := c.Seconds()
	for _, j := range jt.jobs {
		jt.advance(j, now)
	}
}

// StrideQuiet reports whether the tracker's next Tick is provably a
// no-op: every job is either finished or sitting
// in a wave whose task set is quiet and not yet done. A queued job or a
// completed wave means the next Tick takes a state-machine transition, so
// the event-driven stepper must run it (DESIGN.md §5.6).
func (jt *JobTracker) StrideQuiet() bool {
	for _, j := range jt.jobs {
		switch j.state {
		case StateQueued:
			return false
		case StateMap:
			if j.mapSet.Done() || !j.mapSet.StrideQuiet(jt.pool) {
				return false
			}
		case StateReduce:
			if j.reduceSet.Done() || !j.reduceSet.StrideQuiet(jt.pool) {
				return false
			}
		}
	}
	return true
}

// advance runs one scheduling round of a job's state machine.
func (jt *JobTracker) advance(j *Job, now float64) {
	switch j.state {
	case StateQueued:
		j.mapSet = exec.NewTaskSet(j.id+"/map", jt.mapSpecs(j), j.spec)
		j.mapSet.Trace(j.tr, j.span, now)
		j.state = StateMap
		j.mapSet.Tick(now, jt.pool)
	case StateMap:
		j.mapSet.Tick(now, jt.pool)
		if j.mapSet.Done() {
			if j.cfg.NumReduces == 0 {
				j.state = StateCompleted
				j.finishSec = now
				j.tr.End(j.span, now)
				return
			}
			j.reduceSet = exec.NewTaskSet(j.id+"/reduce", jt.reduceSpecs(j), j.spec)
			j.reduceSet.Trace(j.tr, j.span, now)
			j.state = StateReduce
			j.reduceSet.Tick(now, jt.pool)
		}
	case StateReduce:
		j.reduceSet.Tick(now, jt.pool)
		if j.reduceSet.Done() {
			j.state = StateCompleted
			j.finishSec = now
			j.tr.End(j.span, now)
		}
	}
}

// mapSpecs derives one task per input block, preferring replica holders.
func (jt *JobTracker) mapSpecs(j *Job) []exec.TaskSpec {
	specs := make([]exec.TaskSpec, 0, len(j.file.Blocks))
	s := j.cfg.MapShape
	for _, b := range j.file.Blocks {
		specs = append(specs, exec.TaskSpec{
			ID:              j.id + "/m" + pad3(b.Index),
			IOBytes:         b.Bytes,
			OpBytes:         s.OpBytes,
			InputKey:        j.cfg.InputFile + "/b" + pad3(b.Index),
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
func (jt *JobTracker) reduceSpecs(j *Job) []exec.TaskSpec {
	inter := j.file.Bytes * j.cfg.MapOutputRatio
	perReduce := inter / float64(j.cfg.NumReduces)
	out := perReduce * j.cfg.ReduceOutputRatio
	s := j.cfg.ReduceShape
	specs := make([]exec.TaskSpec, 0, j.cfg.NumReduces)
	for i := 0; i < j.cfg.NumReduces; i++ {
		specs = append(specs, exec.TaskSpec{
			ID:              j.id + "/r" + pad3(i),
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

// pad3 renders a nonnegative index like fmt's %03d — zero-padded to
// three digits, wider values in full — without the printf machinery;
// spec construction runs once per job and the repeated-run experiments
// submit thousands of jobs.
func pad3(n int) string {
	if n < 0 || n >= 1000 {
		return strconv.Itoa(n)
	}
	return string([]byte{'0' + byte(n/100), '0' + byte(n/10%10), '0' + byte(n%10)})
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
