// Package spark simulates a Spark-style framework over the exec
// substrate: an application is a sequence of stages separated by strict
// barriers; each stage is a wave of tasks over the executor pool. The
// defining behaviour the paper leans on (§II-C, Fig. 2) is that after an
// initial load stage that reads input from disk, iterative stages operate
// on memory-resident RDDs: almost no block I/O, but heavy memory-bandwidth
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
	"perfcloud/internal/sim"
	"perfcloud/internal/trace"
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

// State is an application's lifecycle phase.
type State int

const (
	// StateQueued means submitted, not yet started.
	StateQueued State = iota
	// StateRunning means some stage is executing.
	StateRunning
	// StateCompleted means the final stage finished.
	StateCompleted
	// StateKilled means the app was killed (losing Dolly clone).
	StateKilled
)

// App is one submitted Spark application.
type App struct {
	id    string
	cfg   AppConfig
	state State

	stageIdx  int
	stage     *exec.TaskSet
	stagesRun []*exec.TaskSet
	spec      exec.Speculator

	tr   *trace.Tracer
	span trace.SpanID

	submitSec float64
	finishSec float64
}

// Span returns the app's trace span (trace.NoSpan when tracing is off).
func (a *App) Span() trace.SpanID { return a.span }

// ID returns the application id.
func (a *App) ID() string { return a.id }

// Config returns the application configuration.
func (a *App) Config() AppConfig { return a.cfg }

// State returns the lifecycle phase.
func (a *App) State() State { return a.state }

// Done reports completion or kill.
func (a *App) Done() bool { return a.state == StateCompleted || a.state == StateKilled }

// Completed reports successful completion.
func (a *App) Completed() bool { return a.state == StateCompleted }

// JCT returns the job completion time in seconds (0 until done).
func (a *App) JCT() float64 {
	if !a.Done() {
		return 0
	}
	return a.finishSec - a.submitSec
}

// SubmitSec returns the submission time.
func (a *App) SubmitSec() float64 { return a.submitSec }

// StageIndex returns the index of the currently running stage.
func (a *App) StageIndex() int { return a.stageIdx }

// TaskSets returns the stages run so far.
func (a *App) TaskSets() []*exec.TaskSet { return append([]*exec.TaskSet(nil), a.stagesRun...) }

// Account sums the app's attempt-time accounting as of nowSec.
func (a *App) Account(nowSec float64) exec.Accounting {
	var acc exec.Accounting
	for _, ts := range a.stagesRun {
		x := ts.Account(nowSec)
		acc.SuccessfulSeconds += x.SuccessfulSeconds
		acc.TotalSeconds += x.TotalSeconds
	}
	return acc
}

// Kill terminates the application immediately.
func (a *App) Kill(nowSec float64) {
	if a.Done() {
		return
	}
	if a.stage != nil {
		a.stage.Kill(nowSec)
	}
	a.state = StateKilled
	a.finishSec = nowSec
	a.tr.MarkKilled(a.span)
	a.tr.End(a.span, nowSec)
}

// Driver schedules applications over a pool of Spark executors.
// It implements sim.Tickable; register it before the cluster.
type Driver struct {
	pool   exec.Pool
	apps   []*App
	nextID int
	spec   exec.Speculator
	tr     *trace.Tracer // nil when tracing is off
}

// SetTracer attaches a span tracer: subsequent Submits open job spans
// and their stages are traced. Attach before submitting apps.
func (d *Driver) SetTracer(tr *trace.Tracer) { d.tr = tr }

// NewDriver creates a driver over the executor pool. The speculator (may
// be nil) applies to all stages of all submitted apps.
func NewDriver(pool exec.Pool, spec exec.Speculator) *Driver {
	return &Driver{pool: pool, spec: spec}
}

// Pool returns the driver's executor pool.
func (d *Driver) Pool() exec.Pool { return d.pool }

// Submit enqueues an application at nowSec.
func (d *Driver) Submit(cfg AppConfig, nowSec float64) (*App, error) {
	if len(cfg.Stages) == 0 {
		return nil, fmt.Errorf("spark: app %q has no stages", cfg.Name)
	}
	for _, s := range cfg.Stages {
		if s.NumTasks <= 0 {
			return nil, fmt.Errorf("spark: stage %q needs tasks", s.Name)
		}
	}
	a := &App{
		id:        cfg.Name + "-" + strconv.Itoa(d.nextID),
		cfg:       cfg,
		spec:      d.spec,
		tr:        d.tr,
		span:      trace.NoSpan,
		submitSec: nowSec,
	}
	a.span = a.tr.Start(trace.KindJob, a.id, "", trace.NoSpan, nowSec)
	d.nextID++
	d.apps = append(d.apps, a)
	return a, nil
}

// Tick implements sim.Tickable.
func (d *Driver) Tick(c *sim.Clock) {
	now := c.Seconds()
	for _, e := range d.pool {
		e.SyncClock(now)
	}
	for _, a := range d.apps {
		d.advance(a, now)
	}
}

// StrideQuiet reports whether the driver's next Tick is provably a no-op
// beyond the executor clock sync: every app is finished or mid-stage with
// a quiet, not-yet-done task set. A queued app or a completed stage means
// the next Tick advances the stage machine, so the event-driven stepper
// must run it (DESIGN.md §5.6).
func (d *Driver) StrideQuiet() bool {
	for _, a := range d.apps {
		if a.Done() {
			continue
		}
		if a.state == StateQueued || a.stage.Done() || !a.stage.StrideQuiet(d.pool) {
			return false
		}
	}
	return true
}

// advance runs one scheduling round of an app's stage machine.
func (d *Driver) advance(a *App, now float64) {
	if a.Done() {
		return
	}
	if a.state == StateQueued {
		a.state = StateRunning
		d.startStage(a, now)
	}
	a.stage.Tick(now, d.pool)
	for a.stage.Done() {
		a.stageIdx++
		if a.stageIdx >= len(a.cfg.Stages) {
			a.state = StateCompleted
			a.finishSec = now
			a.tr.End(a.span, now)
			return
		}
		d.startStage(a, now)
		a.stage.Tick(now, d.pool)
		if !a.stage.Done() {
			break
		}
	}
}

// startStage materialises the current stage's task set.
func (d *Driver) startStage(a *App, now float64) {
	sc := a.cfg.Stages[a.stageIdx]
	specs := make([]exec.TaskSpec, sc.NumTasks)
	stagePrefix := a.id + "/s" + pad2(a.stageIdx)
	for i := range specs {
		key := ""
		if sc.InputKeyPrefix != "" {
			key = sc.InputKeyPrefix + "/t" + pad3(i)
		}
		specs[i] = exec.TaskSpec{
			ID:              stagePrefix + "-t" + pad3(i),
			IOBytes:         sc.IOBytesPer,
			InputKey:        key,
			Instructions:    sc.InstrPerTask,
			CoreCPI:         sc.Shape.CoreCPI,
			LLCRefsPerInstr: sc.Shape.LLCRefsPerInstr,
			BytesPerInstr:   sc.Shape.BytesPerInstr,
			WorkingSetBytes: sc.Shape.WorkingSetBytes,
		}
	}
	a.stage = exec.NewTaskSet(stagePrefix, specs, a.spec)
	a.stage.Trace(a.tr, a.span, now)
	a.stagesRun = append(a.stagesRun, a.stage)
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

// pad2 and pad3 render nonnegative indices like fmt's %02d / %03d —
// zero-padded, wider values in full — without the printf machinery;
// stage construction runs on every startStage and the repeated-run
// experiments submit thousands of apps.
func pad2(n int) string {
	if n < 0 || n >= 100 {
		return strconv.Itoa(n)
	}
	return string([]byte{'0' + byte(n/10), '0' + byte(n%10)})
}

func pad3(n int) string {
	if n < 0 || n >= 1000 {
		return strconv.Itoa(n)
	}
	return string([]byte{'0' + byte(n/100), '0' + byte(n/10%10), '0' + byte(n%10)})
}
