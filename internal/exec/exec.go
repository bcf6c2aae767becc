// Package exec is the task-execution substrate shared by the MapReduce
// and Spark framework simulators: fluid-model tasks, attempts, per-VM
// executors (cluster.Workloads that turn granted resources into task
// progress), TaskSets — groups of tasks scheduled onto a pool of
// executors with locality preference, straggler re-execution hooks and
// the kill accounting the paper's resource-efficiency metric needs —
// and the one stage machine both frameworks run on: a Job is a chain of
// TaskSets behind strict barriers, and a Scheduler runs jobs FIFO.
//
// A task is modelled as two coupled amounts of work: bytes of block I/O
// and instructions to retire. Instruction progress is gated by I/O
// progress (a map task cannot process records it has not read), so disk
// contention slows I/O-bound tasks while memory contention (via inflated
// CPI reducing instructions per granted cycle) slows compute-bound ones —
// the two interference channels PerfCloud detects.
package exec

import (
	"fmt"
	"math"
	"sort"

	"perfcloud/internal/cluster"
	"perfcloud/internal/trace"
)

// TaskSpec is the immutable description of one task's work and shape.
type TaskSpec struct {
	ID           string
	IOBytes      float64 // block input (or shuffle) bytes to read
	OpBytes      float64 // I/O granularity; 0 defaults to 256 KiB
	Instructions float64 // instructions to retire

	// InputKey identifies the task's input content (e.g. "file/b007").
	// Attempts launched on a server whose page cache holds the key read
	// from memory instead of the shared disk; completing a cold read
	// warms the cache. Empty disables caching (shuffle and spill data is
	// attempt-private).
	InputKey string

	// Memory behaviour while executing (see memsys.Request).
	CoreCPI         float64
	LLCRefsPerInstr float64
	BytesPerInstr   float64
	WorkingSetBytes float64

	// PreferredVMs lists VM ids holding a local replica of the input;
	// the scheduler prefers them (HDFS locality).
	PreferredVMs []string
}

const (
	defaultOpBytes = 256 << 10
	// maxIORate is a task's single-stream read rate limit, bytes/s.
	maxIORate   = 150e6
	workEpsilon = 1e-6
)

// AttemptState tracks an attempt's lifecycle.
type AttemptState int

const (
	// AttemptRunning means the attempt occupies an executor slot.
	AttemptRunning AttemptState = iota
	// AttemptCompleted means the attempt finished all its work.
	AttemptCompleted
	// AttemptKilled means the attempt was terminated (sibling finished
	// first, or its job was killed); its runtime counts as waste.
	AttemptKilled
)

// Attempt is one execution of a task on one executor.
type Attempt struct {
	task *Task
	// spec is a copy of task.spec, taken at launch. Task specs are
	// immutable once built, and the progress loops read spec fields next
	// to bytesDone/instrDone every tick — the copy keeps those reads in
	// the attempt's own allocation instead of chasing the task pointer.
	spec        TaskSpec
	executor    *Executor
	speculative bool
	state       AttemptState

	startSec float64
	endSec   float64

	bytesDone   float64
	instrDone   float64
	cachedInput bool

	// span is the attempt's trace span (trace.NoSpan when tracing is
	// off); slot is the executor slot index it occupies, tracked only
	// while a tracer is attached (slot names are Perfetto tracks).
	span trace.SpanID
	slot int
}

// CachedInput reports whether the attempt's input was served from the
// host page cache rather than the shared disk.
func (a *Attempt) CachedInput() bool { return a.cachedInput }

// Task returns the attempt's logical task.
func (a *Attempt) Task() *Task { return a.task }

// Executor returns the executor running (or that ran) the attempt.
func (a *Attempt) Executor() *Executor { return a.executor }

// Speculative reports whether this is a speculative (backup) copy.
func (a *Attempt) Speculative() bool { return a.speculative }

// State returns the attempt's lifecycle state.
func (a *Attempt) State() AttemptState { return a.state }

// Progress returns completion in [0, 1]: the average of the I/O and
// compute fractions over the dimensions the task actually has.
func (a *Attempt) Progress() float64 {
	s := &a.spec
	var sum, n float64
	if s.IOBytes > 0 {
		sum += math.Min(1, a.bytesDone/s.IOBytes)
		n++
	}
	if s.Instructions > 0 {
		sum += math.Min(1, a.instrDone/s.Instructions)
		n++
	}
	if n == 0 {
		return 1
	}
	return sum / n
}

// ProgressRate returns progress per second since launch — the quantity
// LATE ranks stragglers by. It is 0 in the attempt's launch second.
func (a *Attempt) ProgressRate(nowSec float64) float64 {
	el := nowSec - a.startSec
	if el < 1 {
		return 0
	}
	return a.Progress() / el
}

// Runtime returns the attempt's elapsed runtime in seconds; for running
// attempts it is measured up to nowSec.
func (a *Attempt) Runtime(nowSec float64) float64 {
	if a.state == AttemptRunning {
		return nowSec - a.startSec
	}
	return a.endSec - a.startSec
}

// StartSec returns the attempt's launch time.
func (a *Attempt) StartSec() float64 { return a.startSec }

// done reports whether both work dimensions are exhausted.
func (a *Attempt) done() bool {
	s := &a.spec
	return a.bytesDone >= s.IOBytes-workEpsilon && a.instrDone >= s.Instructions-workEpsilon
}

// Span returns the attempt's trace span id (trace.NoSpan when tracing
// is off).
func (a *Attempt) Span() trace.SpanID { return a.span }

// Task is a logical unit of work; it completes when any attempt does.
type Task struct {
	spec      TaskSpec
	attempts  []*Attempt
	completed *Attempt
	span      trace.SpanID
}

// NewTask creates a task from a spec.
func NewTask(spec TaskSpec) *Task { return &Task{spec: spec, span: trace.NoSpan} }

// Spec returns the task's specification.
func (t *Task) Spec() TaskSpec { return t.spec }

// Attempts returns all attempts launched for the task. It copies; use
// EachAttempt on per-tick paths.
func (t *Task) Attempts() []*Attempt { return append([]*Attempt(nil), t.attempts...) }

// EachAttempt calls fn for every attempt of the task in launch order,
// without copying the backing slice — the iteration per-tick callers
// (speculators, accounting) should use.
func (t *Task) EachAttempt(fn func(*Attempt)) {
	for _, a := range t.attempts {
		fn(a)
	}
}

// Completed returns the winning attempt, or nil while unfinished.
func (t *Task) Completed() *Attempt { return t.completed }

// Done reports whether some attempt completed the task.
func (t *Task) Done() bool { return t.completed != nil }

// Running returns the task's currently running attempts.
func (t *Task) Running() []*Attempt {
	var out []*Attempt
	for _, a := range t.attempts {
		if a.state == AttemptRunning {
			out = append(out, a)
		}
	}
	return out
}

// Executor runs task attempts inside one VM; it implements
// cluster.Workload. Slots bound concurrent attempts (the paper's VMs run
// two task slots on their two vcpus).
//
// The executor pushes its demand changes (cluster.Workload): its Demand
// can change only when an attempt is launched, removed or retired, or
// when a surviving attempt's per-tick demand components move (I/O taper
// near completion, the instruction gate opening or closing). Launches
// and removals dirty the VM's server; Advance reports retirements and
// moved components. Between those events a fluid-model task mix demands
// at constant rates and the server may replay its last tick.
type Executor struct {
	vm      *cluster.VM
	slots   int
	running []*Attempt

	// Reused per-Advance scratch; an executor is advanced by exactly one
	// goroutine per tick, so plain fields suffice. While demandValid holds
	// and the tick length is unchanged, ios/cpus and their sums still
	// describe the running set (the end-of-Advance drift check proved it),
	// so the next Advance skips recomputing them. Every change the
	// executor pushes clears demandValid.
	ios         []float64
	cpus        []float64
	totIO       float64
	totCPU      float64
	demandValid bool
	demandTick  float64

	// Data-plane tracing (nil = off, the hot-path default: Advance then
	// pays a single pointer comparison). perSlot/tracks are slot-indexed
	// occupancy and precomputed Perfetto track names, maintained only
	// while a tracer is attached.
	tracer  *trace.Tracer
	perSlot []*Attempt
	tracks  []string
}

var _ cluster.Workload = (*Executor)(nil)

// NewExecutor creates an executor bound to a VM and attaches it as the
// VM's workload.
func NewExecutor(vm *cluster.VM, slots int) *Executor {
	if slots <= 0 {
		panic("exec: executor needs at least one slot")
	}
	e := &Executor{vm: vm, slots: slots}
	vm.SetWorkload(e)
	return e
}

// VM returns the executor's VM.
func (e *Executor) VM() *cluster.VM { return e.vm }

// Name implements cluster.Workload.
func (e *Executor) Name() string { return "executor/" + e.vm.ID() }

// FreeSlots returns the number of unoccupied task slots.
func (e *Executor) FreeSlots() int { return e.slots - len(e.running) }

// Running returns the attempts currently occupying slots (a copy).
func (e *Executor) Running() []*Attempt { return append([]*Attempt(nil), e.running...) }

// SetTracer attaches (or, with nil, detaches) a data-plane span tracer.
// Attach before the first launch: attempts already running are not
// retrofitted with slots or spans. With a tracer attached, Advance
// attributes every attempt-tick to a trace.Phase and launches open
// attempt spans on per-slot tracks named "<vm-id>/slot<i>".
func (e *Executor) SetTracer(tr *trace.Tracer) {
	e.tracer = tr
	e.perSlot = nil
	e.tracks = nil
	if tr == nil {
		return
	}
	e.perSlot = make([]*Attempt, e.slots)
	e.tracks = make([]string, e.slots)
	for i := range e.tracks {
		e.tracks[i] = fmt.Sprintf("%s/slot%d", e.vm.ID(), i)
	}
}

// Tracer returns the attached tracer (nil when tracing is off).
func (e *Executor) Tracer() *trace.Tracer { return e.tracer }

// RunsTask reports whether some running attempt belongs to the task.
func (e *Executor) RunsTask(t *Task) bool {
	for _, a := range e.running {
		if a.task == t {
			return true
		}
	}
	return false
}

// launch places a new attempt of t on this executor.
func (e *Executor) launch(t *Task, nowSec float64, speculative bool) *Attempt {
	if e.FreeSlots() <= 0 {
		panic(fmt.Sprintf("exec: no free slot on %s", e.Name()))
	}
	a := &Attempt{task: t, spec: t.spec, executor: e, speculative: speculative, startSec: nowSec, span: trace.NoSpan}
	if key := t.spec.InputKey; key != "" {
		cache := e.vm.Server().Cache()
		if cache.Has(key, nowSec) {
			a.cachedInput = true
		} else {
			// Register the in-flight read: a concurrent or later reader of
			// the same content on this host coalesces with it (page-cache
			// readahead serves the second reader as pages arrive).
			cache.Put(key, t.spec.IOBytes, nowSec)
		}
	}
	t.attempts = append(t.attempts, a)
	e.running = append(e.running, a)
	e.changed()
	if tr := e.tracer; tr != nil {
		for i, occ := range e.perSlot {
			if occ == nil {
				a.slot = i
				e.perSlot[i] = a
				break
			}
		}
		tr.FirstLaunch(t.span, nowSec)
		a.span = tr.Start(trace.KindAttempt, t.spec.ID, e.tracks[a.slot], t.span, nowSec)
		if speculative {
			tr.MarkSpeculative(a.span)
		}
		if a.cachedInput {
			// The cache hit saved roughly a full disk stream of the input.
			tr.MarkCachedInput(a.span, t.spec.IOBytes/maxIORate)
		}
	}
	return a
}

// changed pushes a change to the running set made outside Advance: the
// cached demand components go stale, and the VM's server rebuilds its
// next tick — and wakes, if the executor was idle and its server parked.
func (e *Executor) changed() {
	e.demandValid = false
	e.vm.Server().MarkDirty()
}

// remove drops an attempt from the running list.
func (e *Executor) remove(a *Attempt) {
	for i, r := range e.running {
		if r == a {
			e.running = append(e.running[:i], e.running[i+1:]...)
			e.changed()
			if e.perSlot != nil {
				e.perSlot[a.slot] = nil
			}
			return
		}
	}
}

// cacheReadRate is the rate at which a page-cache-resident input is
// consumed (memory copy, far above disk streaming speed).
const cacheReadRate = 1e9

// attemptDemand returns one attempt's per-tick demand components. A
// cache-served input places no demand on the shared disk.
func attemptDemand(a *Attempt, tickSec float64) (ioBytes, cpuSec float64) {
	s := &a.spec
	if !a.cachedInput {
		// Inlined min(max(0, remaining), rate*tickSec): branches are
		// measurably cheaper than math.Min/Max on this hot path and agree
		// with them for every non-NaN input that reaches here.
		ioBytes = s.IOBytes - a.bytesDone
		if ioBytes <= 0 {
			ioBytes = 0
		} else if cap := maxIORate * tickSec; ioBytes > cap {
			ioBytes = cap
		}
	}
	if s.Instructions-a.instrDone > workEpsilon {
		cpuSec = tickSec // one core per slot
	}
	return ioBytes, cpuSec
}

// Demand implements cluster.Workload: the sum of the running attempts'
// demands, with demand-weighted memory behaviour.
func (e *Executor) Demand(tickSec float64) cluster.Demand {
	var d cluster.Demand
	var wsum float64
	for _, a := range e.running {
		s := &a.spec
		ioBytes, cpuSec := attemptDemand(a, tickSec)
		op := s.OpBytes
		if op == 0 {
			op = defaultOpBytes
		}
		d.IOBytes += ioBytes
		d.IOOps += ioBytes / op
		d.CPUSeconds += cpuSec
		w := cpuSec + ioBytes/maxIORate // rough weight
		if w == 0 {
			continue
		}
		d.CoreCPI += w * s.CoreCPI
		d.LLCRefsPerInstr += w * s.LLCRefsPerInstr
		d.BytesPerInstr += w * s.BytesPerInstr
		d.WorkingSetBytes += w * s.WorkingSetBytes
		wsum += w
	}
	if wsum > 0 {
		d.CoreCPI /= wsum
		d.LLCRefsPerInstr /= wsum
		d.BytesPerInstr /= wsum
		d.WorkingSetBytes /= wsum
	}
	if d.CPUSeconds > 0 && d.CoreCPI == 0 {
		d.CoreCPI = 1
	}
	return d
}

// Advance implements cluster.Workload: split the VM's grant across the
// running attempts in proportion to their demands, gate instruction
// progress on I/O progress, and retire finished attempts, stamping their
// end at nowSec+tickSec. It reports whether an attempt retired or a
// survivor's demand components moved.
func (e *Executor) Advance(nowSec, tickSec float64, g cluster.Grant) bool {
	if !e.demandValid || e.demandTick != tickSec {
		var totIO, totCPU float64
		e.ios = e.ios[:0]
		e.cpus = e.cpus[:0]
		for _, a := range e.running {
			io, cpu := attemptDemand(a, tickSec)
			e.ios = append(e.ios, io)
			e.cpus = append(e.cpus, cpu)
			totIO += io
			totCPU += cpu
		}
		e.totIO, e.totCPU = totIO, totCPU
	}
	ios, cpus := e.ios, e.cpus
	totIO, totCPU := e.totIO, e.totCPU
	// Tracing: read the cgroup throttle state once per tick (not per
	// attempt); a VM-wide blkio cap reclassifies disk wait as
	// control-plane-induced.
	tr := e.tracer
	ioCapped := false
	if tr != nil {
		th := e.vm.Cgroup().Throttle()
		ioCapped = th.ReadIOPS > 0 || th.ReadBPS > 0
	}
	for i, a := range e.running {
		s := &a.spec
		if tr != nil {
			e.attribute(tr, a, i, tickSec, g, totCPU, ioCapped)
		}
		if a.cachedInput {
			read := s.IOBytes - a.bytesDone
			if read <= 0 {
				read = 0
			} else if cap := cacheReadRate * tickSec; read > cap {
				read = cap
			}
			a.bytesDone += read
		} else if totIO > 0 {
			a.bytesDone += g.IOBytes * ios[i] / totIO
		}
		if totCPU > 0 && s.Instructions > 0 {
			instr := g.Instructions * cpus[i] / totCPU
			// Instruction progress cannot outrun the fraction of input read.
			allowed := s.Instructions - a.instrDone
			if s.IOBytes > 0 {
				frac := a.bytesDone / s.IOBytes
				if frac > 1 {
					frac = 1
				}
				if gated := s.Instructions*frac - a.instrDone; gated < allowed {
					allowed = gated
				}
			}
			if allowed < 0 {
				allowed = 0
			}
			if instr > allowed {
				instr = allowed
			}
			a.instrDone += instr
		}
	}
	// Retire completed attempts after the whole tick is applied, filtering
	// in place to keep the backing array. The same pass re-derives each
	// survivor's demand: the next tick's demand differs from this one's
	// when the running set shrank or a survivor's components moved off the
	// values captured before progress was applied (ios/cpus stay
	// index-aligned with survivors while nothing has retired, which is the
	// only case where the drift comparison is consulted).
	nRan := len(e.running)
	endSec := nowSec + tickSec
	retired := 0
	drift := false
	for i, a := range e.running {
		if a.done() {
			a.state = AttemptCompleted
			a.endSec = endSec
			if tr != nil {
				tr.End(a.span, endSec)
				e.perSlot[a.slot] = nil
			}
			retired++
			continue
		}
		if retired > 0 {
			// Shift survivors left over the retired slots; until the first
			// retirement the slice is untouched, so the steady case does no
			// pointer writes (and takes no GC write barriers).
			e.running[i-retired] = a
		} else if !drift {
			io, cpu := attemptDemand(a, tickSec)
			drift = io != ios[i] || cpu != cpus[i]
		}
	}
	if retired > 0 {
		for i := nRan - retired; i < nRan; i++ {
			e.running[i] = nil // drop references so completed attempts can be GC'd
		}
		e.running = e.running[:nRan-retired]
	}

	if retired > 0 || drift {
		e.demandValid = false
		return true
	}
	// Nothing retired and no component drifted: next tick's demand loop
	// would recompute exactly ios/cpus, so mark them reusable. Any launch
	// or kill in between invalidates the claim.
	e.demandValid = true
	e.demandTick = tickSec
	return false
}

// attribute splits one attempt's tick across the trace phases, reading
// only pre-progress state (the captured demand vectors and the byte
// counter before this tick's update), so attribution never perturbs the
// simulation. The buckets partition tickSec exactly: on-core time at the
// baseline CPI is PhaseCPU, the CPI-inflation remainder is
// PhaseCPIStall, and off-core time is disk wait (split by cgroup cap
// state), cache streaming, or idle.
func (e *Executor) attribute(tr *trace.Tracer, a *Attempt, i int, tickSec float64, g cluster.Grant, totCPU float64, ioCapped bool) {
	s := &a.spec
	var cpuSec float64
	if totCPU > 0 && e.cpus[i] > 0 {
		cpuSec = g.CPUSeconds * e.cpus[i] / totCPU
		if cpuSec > tickSec {
			cpuSec = tickSec
		}
	}
	base := cpuSec
	if bc := s.CoreCPI; bc > 0 && g.CPI > bc {
		// Of the granted core time, only the CoreCPI/CPI fraction retires
		// instructions at the solo rate; the rest is interference stall.
		base = cpuSec * bc / g.CPI
	}
	tr.AddPhase(a.span, trace.PhaseCPU, base)
	tr.AddPhase(a.span, trace.PhaseCPIStall, cpuSec-base)
	rem := tickSec - cpuSec
	if rem <= 0 {
		return
	}
	switch {
	case e.ios[i] > 0 && ioCapped:
		tr.AddPhase(a.span, trace.PhaseDiskThrottled, rem)
	case e.ios[i] > 0:
		tr.AddPhase(a.span, trace.PhaseDiskWait, rem)
	case a.cachedInput && s.IOBytes-a.bytesDone > workEpsilon:
		tr.AddPhase(a.span, trace.PhaseCacheRead, rem)
	default:
		tr.AddPhase(a.span, trace.PhaseIdle, rem)
	}
}

// Done implements cluster.Workload: an executor with no running attempt
// demands nothing until a launch re-arms it, and every launch dirties its
// server, so a server whose executors all sit idle parks between task
// waves.
func (e *Executor) Done() bool { return len(e.running) == 0 }

// Pool is an ordered set of executors used by a TaskSet scheduler.
type Pool []*Executor

// FreeSlots returns the total free slots across the pool.
func (p Pool) FreeSlots() int {
	n := 0
	for _, e := range p {
		n += e.FreeSlots()
	}
	return n
}

// byID returns the executor whose VM has the given id, or nil.
func (p Pool) byID(id string) *Executor {
	for _, e := range p {
		if e.vm.ID() == id {
			return e
		}
	}
	return nil
}

// Speculator decides which tasks deserve a speculative (backup) attempt.
// The straggler package implements LATE; a nil Speculator disables
// speculation.
type Speculator interface {
	// Candidates returns tasks worth backing up, most urgent first.
	Candidates(ts *TaskSet, nowSec float64) []*Task
}

// TaskSet is a schedulable group of tasks (a map wave, a reduce wave, or
// a Spark stage). It launches pending tasks onto free slots with locality
// preference, collects completions, kills redundant sibling attempts, and
// consults an optional Speculator for straggler mitigation.
type TaskSet struct {
	name    string
	tasks   []*Task
	pending []*Task
	spec    Speculator

	killed bool

	// loads is a scratch per-server running-attempt count, rebuilt lazily
	// once per Tick (loadsValid gates it) instead of once per pending
	// task, and kept current by incrementing the chosen server on every
	// launch — which is exactly the delta a recount would observe.
	loads      map[*cluster.Server]int
	loadsValid bool

	tr   *trace.Tracer
	span trace.SpanID
}

// NewTaskSet builds a set from specs. The speculator may be nil.
func NewTaskSet(name string, specs []TaskSpec, spec Speculator) *TaskSet {
	ts := &TaskSet{name: name, spec: spec, span: trace.NoSpan}
	for _, s := range specs {
		t := NewTask(s)
		ts.tasks = append(ts.tasks, t)
		ts.pending = append(ts.pending, t)
	}
	return ts
}

// Trace opens the set's span (and one span per task, queue wait measured
// from nowSec) under the given parent. Call right after NewTaskSet,
// before the first Tick; a nil tracer leaves tracing off. The set closes
// its spans as tasks complete or are killed.
func (ts *TaskSet) Trace(tr *trace.Tracer, parent trace.SpanID, nowSec float64) {
	if tr == nil {
		return
	}
	ts.tr = tr
	ts.span = tr.Start(trace.KindTaskSet, ts.name, "", parent, nowSec)
	for _, t := range ts.tasks {
		t.span = tr.Start(trace.KindTask, t.spec.ID, "", ts.span, nowSec)
	}
}

// Span returns the set's trace span id (trace.NoSpan when tracing is
// off).
func (ts *TaskSet) Span() trace.SpanID { return ts.span }

// Name returns the set's name.
func (ts *TaskSet) Name() string { return ts.name }

// Tasks returns all tasks in the set. It copies; use EachTask on
// per-tick paths.
func (ts *TaskSet) Tasks() []*Task { return append([]*Task(nil), ts.tasks...) }

// NumTasks returns the number of tasks in the set without copying.
func (ts *TaskSet) NumTasks() int { return len(ts.tasks) }

// EachTask calls fn for every task in creation order, without copying
// the backing slice.
func (ts *TaskSet) EachTask(fn func(*Task)) {
	for _, t := range ts.tasks {
		fn(t)
	}
}

// Done reports whether every task has completed (or the set was killed).
func (ts *TaskSet) Done() bool {
	if ts.killed {
		return true
	}
	for _, t := range ts.tasks {
		if !t.Done() {
			return false
		}
	}
	return true
}

// Killed reports whether the set was killed before completing.
func (ts *TaskSet) Killed() bool { return ts.killed }

// Tick runs one scheduling round against the pool: harvest completions,
// kill redundant siblings, launch pending tasks (locality first), then
// let the speculator spend leftover slots.
func (ts *TaskSet) Tick(nowSec float64, pool Pool) {
	if ts.killed {
		return
	}
	// Harvest completions; kill sibling attempts of completed tasks.
	for _, t := range ts.tasks {
		if t.completed != nil {
			ts.killSiblings(t, nowSec)
			continue
		}
		for _, a := range t.attempts {
			if a.state == AttemptCompleted {
				t.completed = a
				ts.tr.End(t.span, a.endSec)
				ts.killSiblings(t, nowSec)
				break
			}
		}
	}
	// Close the set span once the last task has (End is open-guarded, so
	// later Ticks are no-ops); nothing below could act anyway.
	if ts.tr != nil && ts.Done() {
		ts.tr.End(ts.span, nowSec)
		return
	}
	// Launch pending tasks. With zero free slots pool-wide every pick
	// would come back nil, so the scan is skipped outright — the common
	// shape of a saturated cluster. The filter reuses ts.pending's backing
	// array (writes trail reads, so the in-place append is safe) to avoid
	// an allocation per scheduling round.
	if len(ts.pending) > 0 && pool.FreeSlots() > 0 {
		ts.loadsValid = false
		pending := ts.pending[:0]
		for _, t := range ts.pending {
			e := ts.pickExecutor(t, pool)
			if e == nil {
				pending = append(pending, t)
				continue
			}
			e.launch(t, nowSec, false)
			if ts.loadsValid {
				ts.loads[e.vm.Server()]++
			}
		}
		ts.pending = pending
	}

	// Speculation with leftover slots.
	if ts.spec == nil || len(ts.pending) > 0 || pool.FreeSlots() == 0 {
		return
	}
	for _, t := range ts.spec.Candidates(ts, nowSec) {
		if t.Done() {
			continue
		}
		e := ts.pickSpeculativeExecutor(t, pool, nowSec)
		if e == nil {
			continue
		}
		e.launch(t, nowSec, true)
		if pool.FreeSlots() == 0 {
			return
		}
	}
}

// StrideQuiet reports whether the set's next Tick is provably a no-op —
// no completion to harvest, no sibling to kill, no launch possible, no
// speculation round armed — and will remain one until some attempt's state
// changes, which only happens on engine ticks (launch, kill) or stops the
// stride at the tick it occurs (completion frees a slot). The event-driven
// stepper elides engine ticks only while every task set is quiet
// (DESIGN.md §5.6). Speculation is the conservative case: Candidates is
// time-dependent (progress rates shift as now advances), so an armed
// speculator with free slots and nothing pending blocks striding outright.
func (ts *TaskSet) StrideQuiet(pool Pool) bool {
	if ts.killed {
		return true
	}
	done := true
	for _, t := range ts.tasks {
		if t.completed == nil {
			done = false
			for _, a := range t.attempts {
				if a.state == AttemptCompleted {
					return false // harvest pending
				}
			}
			continue
		}
		for _, a := range t.attempts {
			if a.state == AttemptRunning && a != t.completed {
				return false // sibling kill pending
			}
		}
	}
	if done {
		return true
	}
	if len(ts.pending) > 0 && pool.FreeSlots() > 0 {
		return false // a launch would happen
	}
	if ts.spec != nil && len(ts.pending) == 0 && pool.FreeSlots() > 0 {
		return false // a speculation round would run
	}
	return true
}

// killSiblings terminates still-running attempts of a completed task.
func (ts *TaskSet) killSiblings(t *Task, nowSec float64) {
	for _, a := range t.attempts {
		if a.state == AttemptRunning && a != t.completed {
			a.state = AttemptKilled
			a.endSec = nowSec
			a.executor.remove(a)
			ts.tr.MarkKilled(a.span)
			ts.tr.End(a.span, nowSec)
		}
	}
}

// Kill terminates the whole set: running attempts are killed and pending
// tasks dropped (Dolly kills the loser clones of a job).
func (ts *TaskSet) Kill(nowSec float64) {
	if ts.killed {
		return
	}
	ts.killed = true
	ts.pending = nil
	for _, t := range ts.tasks {
		for _, a := range t.attempts {
			if a.state == AttemptRunning {
				a.state = AttemptKilled
				a.endSec = nowSec
				a.executor.remove(a)
				ts.tr.MarkKilled(a.span)
				ts.tr.End(a.span, nowSec)
			}
		}
		// Close task spans (open-guarded: completed tasks keep their end).
		ts.tr.End(t.span, nowSec)
	}
	ts.tr.MarkKilled(ts.span)
	ts.tr.End(ts.span, nowSec)
}

// pickExecutor chooses a free slot for a fresh attempt: the least-loaded
// preferred (replica-local) VM if one has room — so concurrent readers of
// the same block spread across its replicas — else the free executor on
// the least-busy physical server (ties broken by most free slots, then
// pool order). Server-level spreading is what real cluster schedulers
// do, and it is what gives cloned jobs placement diversity: each clone
// lands on a different set of machines, so at least one copy tends to
// escape the antagonized servers.
func (ts *TaskSet) pickExecutor(t *Task, pool Pool) *Executor {
	var pref *Executor
	for _, id := range t.spec.PreferredVMs {
		e := pool.byID(id)
		if e == nil || e.FreeSlots() <= 0 {
			continue
		}
		if pref == nil || e.FreeSlots() > pref.FreeSlots() {
			pref = e
		}
	}
	if pref != nil {
		return pref
	}
	if !ts.loadsValid {
		if ts.loads == nil {
			// Sized for servers, not executors: many executors share one
			// physical server, so a len(pool) hint would overshoot badly.
			ts.loads = make(map[*cluster.Server]int, 16)
		}
		clear(ts.loads)
		for _, e := range pool {
			ts.loads[e.vm.Server()] += len(e.running)
		}
		ts.loadsValid = true
	}
	load := ts.loads
	var best *Executor
	bestLoad := 0
	// Pools list a server's executors contiguously, so one cached lookup
	// usually covers a whole server's stretch of the scan.
	var lastSrv *cluster.Server
	lastLoad := 0
	for _, e := range pool {
		if e.FreeSlots() <= 0 {
			continue
		}
		if srv := e.vm.Server(); srv != lastSrv {
			lastSrv, lastLoad = srv, load[srv]
		}
		l := lastLoad
		if best == nil || l < bestLoad ||
			(l == bestLoad && e.FreeSlots() > best.FreeSlots()) {
			best, bestLoad = e, l
		}
	}
	return best
}

// pickSpeculativeExecutor avoids executors already running the task (a
// backup on the same contended VM would be pointless) and prefers fast
// executors — those whose current attempts show the highest progress
// rates — implementing LATE's rule of not launching backups on slow
// nodes. Idle executors are assumed fast.
func (ts *TaskSet) pickSpeculativeExecutor(t *Task, pool Pool, nowSec float64) *Executor {
	var best *Executor
	bestScore := math.Inf(-1)
	for _, e := range pool {
		if e.FreeSlots() <= 0 || e.RunsTask(t) {
			continue
		}
		score := e.speedScore(nowSec)
		if best == nil || score > bestScore ||
			(score == bestScore && e.FreeSlots() > best.FreeSlots()) {
			best, bestScore = e, score
		}
	}
	return best
}

// speedScore estimates how fast this executor's VM currently is: the
// mean progress rate of its running attempts, or +Inf when idle.
func (e *Executor) speedScore(nowSec float64) float64 {
	var sum float64
	n := 0
	for _, a := range e.running {
		if r := a.ProgressRate(nowSec); r > 0 {
			sum += r
			n++
		}
	}
	if n == 0 {
		return math.Inf(1)
	}
	return sum / float64(n)
}

// RunningAttempts returns all currently running attempts in the set,
// sorted by task id for determinism.
func (ts *TaskSet) RunningAttempts() []*Attempt {
	var out []*Attempt
	for _, t := range ts.tasks {
		out = append(out, t.Running()...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].task.spec.ID < out[j].task.spec.ID })
	return out
}

// Accounting tallies the paper's resource-utilization-efficiency inputs.
type Accounting struct {
	SuccessfulSeconds float64 // runtime of winning attempts
	TotalSeconds      float64 // runtime of all attempts, incl. killed
}

// Efficiency returns successful/total, guarding the division: an empty
// or all-killed set that accumulated no (or, through float cancellation,
// non-positive) total work wasted nothing, so it scores 1.
func (a Accounting) Efficiency() float64 {
	if a.TotalSeconds <= 0 {
		return 1
	}
	return a.SuccessfulSeconds / a.TotalSeconds
}

// Account sums attempt runtimes for the set as of nowSec. A killed set
// contributes no successful time: the output of a killed job clone is
// discarded, so even its completed tasks are waste (the paper's Fig. 11c
// resource-utilization-efficiency accounting).
func (ts *TaskSet) Account(nowSec float64) Accounting {
	var acc Accounting
	ts.EachTask(func(t *Task) {
		t.EachAttempt(func(a *Attempt) {
			rt := a.Runtime(nowSec)
			acc.TotalSeconds += rt
			if t.completed == a && !ts.killed {
				acc.SuccessfulSeconds += rt
			}
		})
	})
	return acc
}
