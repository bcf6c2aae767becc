package exec

import (
	"strconv"

	"perfcloud/internal/sim"
	"perfcloud/internal/trace"
)

// JobState is a staged job's lifecycle phase.
type JobState int

const (
	// JobQueued means the job has been submitted but not started.
	JobQueued JobState = iota
	// JobRunning means some stage is executing.
	JobRunning
	// JobCompleted means the final stage finished.
	JobCompleted
	// JobKilled means the job was killed (e.g. a losing Dolly clone).
	JobKilled
)

// String names the state.
func (s JobState) String() string {
	switch s {
	case JobQueued:
		return "queued"
	case JobRunning:
		return "running"
	case JobCompleted:
		return "completed"
	default:
		return "killed"
	}
}

// Job is a chain of task sets separated by strict barriers: stage i+1's
// tasks are built and launched only once every task of stage i is done.
// A MapReduce job is a one- or two-stage chain (maps, then reduces), a
// Spark application an n-stage one.
type Job struct {
	id    string
	state JobState

	// stage builds stage i's task-set name and task specs from the job
	// id; it runs when the stage starts, never before.
	stage  func(id string, i int) (string, []TaskSpec)
	stages int
	idx    int        // running stage; stages once completed
	sets   []*TaskSet // stages started so far; sets[idx] is running

	tr   *trace.Tracer
	span trace.SpanID

	submitSec float64
	finishSec float64
}

// ID returns the job id.
func (j *Job) ID() string { return j.id }

// State returns the job's lifecycle phase.
func (j *Job) State() JobState { return j.state }

// Done reports whether the job completed or was killed.
func (j *Job) Done() bool { return j.state == JobCompleted || j.state == JobKilled }

// Completed reports successful completion.
func (j *Job) Completed() bool { return j.state == JobCompleted }

// JCT returns the job completion time in seconds (0 until done).
func (j *Job) JCT() float64 {
	if !j.Done() {
		return 0
	}
	return j.finishSec - j.submitSec
}

// StageIndex returns the index of the running stage (the stage count
// once the job completed).
func (j *Job) StageIndex() int { return j.idx }

// TaskSets returns the stages started so far, in order.
func (j *Job) TaskSets() []*TaskSet { return append([]*TaskSet(nil), j.sets...) }

// Account sums the job's attempt-time accounting as of nowSec. A killed
// job's output is discarded, so none of its time is successful — not
// even that of the stages it completed before the kill.
func (j *Job) Account(nowSec float64) Accounting {
	var acc Accounting
	for _, ts := range j.sets {
		a := ts.Account(nowSec)
		acc.SuccessfulSeconds += a.SuccessfulSeconds
		acc.TotalSeconds += a.TotalSeconds
	}
	if j.state == JobKilled {
		acc.SuccessfulSeconds = 0
	}
	return acc
}

// Kill terminates the job immediately. Only the running stage is
// killed; the stages before it completed, so neither they nor their
// spans are marked killed (Account still discards their time).
func (j *Job) Kill(nowSec float64) {
	if j.Done() {
		return
	}
	if j.state == JobRunning {
		j.sets[j.idx].Kill(nowSec)
	}
	j.state = JobKilled
	j.finishSec = nowSec
	j.tr.MarkKilled(j.span)
	j.tr.End(j.span, nowSec)
}

// Scheduler runs staged jobs FIFO over a pool of executors: earlier jobs
// grab slots first, as Hadoop's default scheduler does. It implements
// sim.Tickable; register it before the cluster so tasks scheduled in a
// tick consume that tick's resources.
type Scheduler struct {
	pool   Pool
	jobs   []*Job
	nextID int
	spec   Speculator    // speculator for every stage of every job (may be nil)
	tr     *trace.Tracer // nil when tracing is off
}

// NewScheduler creates a scheduler over the executor pool. The
// speculator (may be nil) applies to every stage of every job.
func NewScheduler(pool Pool, spec Speculator) *Scheduler {
	return &Scheduler{pool: pool, spec: spec}
}

// SetTracer attaches a span tracer: subsequent Submits open job spans
// and their stages are traced. Attach before submitting jobs.
func (s *Scheduler) SetTracer(tr *trace.Tracer) { s.tr = tr }

// Submit enqueues a job of the given stage count at nowSec. Its id is
// name-N, N counting this scheduler's submissions from 0; stage builds
// each stage's task-set name and specs from that id when the stage
// starts. stages must be at least 1.
func (s *Scheduler) Submit(name string, stages int, stage func(id string, i int) (string, []TaskSpec), nowSec float64) *Job {
	j := &Job{
		id:        name + "-" + strconv.Itoa(s.nextID),
		stage:     stage,
		stages:    stages,
		tr:        s.tr,
		submitSec: nowSec,
	}
	j.span = j.tr.Start(trace.KindJob, j.id, "", trace.NoSpan, nowSec)
	s.nextID++
	s.jobs = append(s.jobs, j)
	return j
}

// Tick implements sim.Tickable: advance every live job in FIFO order.
func (s *Scheduler) Tick(c *sim.Clock) {
	now := c.Seconds()
	for _, j := range s.jobs {
		s.advance(j, now)
	}
}

// StrideQuiet reports whether the scheduler's next Tick is provably a
// no-op: every job is finished or mid-stage with a quiet, not-yet-done
// task set. A queued job or a completed stage means the next Tick
// advances the stage machine, so the event-driven stepper must run it
// (DESIGN.md §5.6).
func (s *Scheduler) StrideQuiet() bool {
	for _, j := range s.jobs {
		switch j.state {
		case JobQueued:
			return false
		case JobRunning:
			if cur := j.sets[j.idx]; cur.Done() || !cur.StrideQuiet(s.pool) {
				return false
			}
		}
	}
	return true
}

// advance runs one scheduling round of a job's stage machine: start the
// first stage of a queued job, tick the running stage, and chain through
// every stage that finishes within the tick.
func (s *Scheduler) advance(j *Job, now float64) {
	switch j.state {
	case JobQueued:
		j.state = JobRunning
		s.start(j, now)
	case JobRunning:
	default:
		return
	}
	cur := j.sets[j.idx]
	cur.Tick(now, s.pool)
	for cur.Done() {
		j.idx++
		if j.idx == j.stages {
			j.state = JobCompleted
			j.finishSec = now
			j.tr.End(j.span, now)
			return
		}
		cur = s.start(j, now)
		cur.Tick(now, s.pool)
	}
}

// start materialises the job's current stage as a traced task set.
func (s *Scheduler) start(j *Job, now float64) *TaskSet {
	name, specs := j.stage(j.id, j.idx)
	ts := NewTaskSet(name, specs, s.spec)
	ts.Trace(j.tr, j.span, now)
	j.sets = append(j.sets, ts)
	return ts
}

// Pad3 renders a nonnegative index like fmt's %03d — zero-padded to
// three digits, wider values in full — without the printf machinery;
// the frameworks name every task with it, and the repeated-run
// experiments submit thousands of jobs.
func Pad3(n int) string {
	if n < 0 || n >= 1000 {
		return strconv.Itoa(n)
	}
	return string([]byte{'0' + byte(n/100), '0' + byte(n/10%10), '0' + byte(n%10)})
}
