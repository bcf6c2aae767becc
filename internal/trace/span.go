package trace

// This file grows the package from a table renderer into the data-plane
// tracing layer: a deterministic span tracer recording where every task
// attempt's time went (DESIGN.md §5.5). The tracer follows the same
// nil-receiver contract as obs.Registry — every method on a nil *Tracer
// is a no-op returning NoSpan — so the exec hot loop pays one pointer
// comparison when tracing is off.
//
// Spans form a tree: job → task set (map/reduce wave or Spark stage) →
// task → attempt. Only attempt spans carry phase attribution; task spans
// carry queue wait (submission to first launch); attempt spans carry the
// killed/speculative/cached-input classification the waste accounting
// needs. Span ids are dense indices in creation order, so a tracer
// driven by a deterministic simulation is itself deterministic: same
// seed, same spans, in the same order, with the same ids.

// SpanID names one span within its Tracer. Ids are dense indices in
// creation order; NoSpan marks "no span" (e.g. tracing disabled).
type SpanID int32

// NoSpan is the id returned when no span was created. Every Tracer
// method accepts it and does nothing.
const NoSpan SpanID = -1

// Kind classifies a span's level in the job → attempt tree.
type Kind uint8

const (
	// KindJob is a whole MapReduce job or Spark application.
	KindJob Kind = iota
	// KindTaskSet is one scheduling wave: a map or reduce wave, or a
	// Spark stage.
	KindTaskSet
	// KindTask is one logical task (completes when any attempt does).
	KindTask
	// KindAttempt is one execution of a task on one executor slot.
	KindAttempt
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case KindJob:
		return "job"
	case KindTaskSet:
		return "taskset"
	case KindTask:
		return "task"
	default:
		return "attempt"
	}
}

// Phase is one bucket of the per-attempt time attribution. Every tick an
// attempt is running, the executor attributes the full tick across these
// buckets, so a closed attempt's phase seconds sum to its wall time.
type Phase uint8

const (
	// PhaseDiskWait is time an attempt with outstanding block I/O spent
	// off-core: waiting on the shared disk, uncapped.
	PhaseDiskWait Phase = iota
	// PhaseDiskThrottled is disk-wait time while the executor VM was
	// under a blkio cgroup cap (cgroup.Throttle read limits active) —
	// wait the control plane itself induced.
	PhaseDiskThrottled
	// PhaseCacheRead is off-core time spent streaming a page-cache-
	// resident input (no disk demand placed).
	PhaseCacheRead
	// PhaseCPU is on-core execution time at the task's baseline CoreCPI.
	PhaseCPU
	// PhaseCPIStall is the on-core time lost to CPI inflation: granted
	// core time that retired fewer instructions than the CoreCPI
	// baseline would have (LLC/memory-bandwidth interference).
	PhaseCPIStall
	// PhaseIdle is residual tick time with neither I/O pending nor core
	// time granted (e.g. the instruction gate closed, or CPU starvation
	// with no disk work to hide it).
	PhaseIdle

	// NumPhases sizes per-span phase arrays.
	NumPhases = int(PhaseIdle) + 1
)

// String names the phase (stable; used as Perfetto arg keys and report
// column headers).
func (p Phase) String() string {
	switch p {
	case PhaseDiskWait:
		return "disk_wait"
	case PhaseDiskThrottled:
		return "disk_throttled"
	case PhaseCacheRead:
		return "cache_read"
	case PhaseCPU:
		return "cpu"
	case PhaseCPIStall:
		return "cpi_stall"
	default:
		return "idle"
	}
}

// Span is one node of the trace tree. Fields are exported for exporters
// and reports; mutate spans only through Tracer methods.
type Span struct {
	ID     SpanID
	Parent SpanID // NoSpan at the root (jobs)
	Kind   Kind
	Name   string
	// Track is the render lane: executor-slot name ("vm-id/slot0") for
	// attempts, empty for logical spans.
	Track string

	StartSec float64
	EndSec   float64 // == StartSec while Open
	Open     bool

	// Phases is the per-attempt time attribution (attempt spans only).
	Phases [NumPhases]float64

	// QueueWaitSec is submission-to-first-launch wait (task spans only).
	QueueWaitSec float64
	// CacheSavedSec estimates the disk-stream time a page-cache-served
	// input avoided (attempt spans with CachedInput).
	CacheSavedSec float64

	Speculative bool // attempt was a speculative backup copy
	Killed      bool // attempt/set terminated before completing
	CachedInput bool // attempt read its input from the host page cache

	launched bool // first-launch latch for QueueWaitSec
}

// WallSec returns the span's wall-clock duration (0 while open).
func (s *Span) WallSec() float64 {
	if s.Open {
		return 0
	}
	return s.EndSec - s.StartSec
}

// PhaseSum returns the total attributed seconds across all phases.
func (s *Span) PhaseSum() float64 {
	var sum float64
	for _, v := range s.Phases {
		sum += v
	}
	return sum
}

// spanPageBits sizes the tracer's storage pages: 128 spans of 144 bytes
// is 18 KB, under the runtime's 32 KB large-object threshold, so a page
// comes from the small-object allocator and recording never re-copies
// or zero-fills a doubled slice.
const (
	spanPageBits = 7
	spanPage     = 1 << spanPageBits
)

// Tracer records spans for one simulation engine. It is single-threaded
// by construction: executors are advanced sequentially within a tick and
// each engine gets its own tracer (parallel experiment repetitions never
// share one). The zero value is NOT ready; use NewTracer. A nil *Tracer
// is the disabled tracer: every method no-ops.
//
// Spans live in fixed-size pages that are never moved, so a *Span stays
// valid for the tracer's lifetime.
type Tracer struct {
	pages []*[spanPage]Span
	n     int
}

// NewTracer returns an empty enabled tracer.
func NewTracer() *Tracer { return &Tracer{} }

// Start opens a span and returns its id. On a nil tracer it returns
// NoSpan.
func (t *Tracer) Start(kind Kind, name, track string, parent SpanID, startSec float64) SpanID {
	if t == nil {
		return NoSpan
	}
	id := SpanID(t.n)
	if t.n&(spanPage-1) == 0 {
		t.pages = append(t.pages, new([spanPage]Span))
	}
	t.n++
	*t.at(int(id)) = Span{
		ID: id, Parent: parent, Kind: kind, Name: name, Track: track,
		StartSec: startSec, EndSec: startSec, Open: true,
	}
	return id
}

// at returns span i; i must be in [0, Len()).
func (t *Tracer) at(i int) *Span {
	return &t.pages[i>>spanPageBits][i&(spanPage-1)]
}

// span returns the addressable span for id, or nil (nil tracer, NoSpan,
// or out of range).
func (t *Tracer) span(id SpanID) *Span {
	if t == nil || id < 0 || int(id) >= t.n {
		return nil
	}
	return t.at(int(id))
}

// End closes a span at endSec. Ending a closed span (or NoSpan) is a
// no-op, so idempotent callers need no latch of their own.
func (t *Tracer) End(id SpanID, endSec float64) {
	if s := t.span(id); s != nil && s.Open {
		s.EndSec = endSec
		s.Open = false
	}
}

// AddPhase accumulates sec into one attribution bucket of a span.
// Non-positive amounts are dropped.
func (t *Tracer) AddPhase(id SpanID, p Phase, sec float64) {
	if sec <= 0 {
		return
	}
	if s := t.span(id); s != nil {
		s.Phases[p] += sec
	}
}

// MarkSpeculative flags an attempt span as a speculative backup copy.
func (t *Tracer) MarkSpeculative(id SpanID) {
	if s := t.span(id); s != nil {
		s.Speculative = true
	}
}

// MarkKilled flags a span as terminated before completion.
func (t *Tracer) MarkKilled(id SpanID) {
	if s := t.span(id); s != nil {
		s.Killed = true
	}
}

// MarkCachedInput flags an attempt span as page-cache-served and records
// the estimated disk-stream seconds the cache hit avoided.
func (t *Tracer) MarkCachedInput(id SpanID, savedSec float64) {
	if s := t.span(id); s != nil {
		s.CachedInput = true
		s.CacheSavedSec = savedSec
	}
}

// FirstLaunch records a task span's queue wait the first time one of its
// attempts launches; later launches (speculative backups) do not reset
// it.
func (t *Tracer) FirstLaunch(id SpanID, nowSec float64) {
	if s := t.span(id); s != nil && !s.launched {
		s.launched = true
		s.QueueWaitSec = nowSec - s.StartSec
	}
}

// Len returns the number of spans recorded (0 on a nil tracer).
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	return t.n
}

// Spans returns a copy of all spans in creation order.
func (t *Tracer) Spans() []Span {
	if t.Len() == 0 {
		return nil
	}
	out := make([]Span, 0, t.n)
	for i := 0; i < t.n; i += spanPage {
		out = append(out, t.pages[i>>spanPageBits][:min(spanPage, t.n-i)]...)
	}
	return out
}

// PhaseTotals aggregates attempt-level attribution across a run — the
// numbers the Fig. 11/12 result rows carry alongside JCT.
type PhaseTotals struct {
	// Attempts counts closed attempt spans folded into the totals.
	Attempts int
	// WallSec sums those attempts' wall time; the Phases buckets
	// partition it (within float tolerance).
	WallSec float64
	Phases  [NumPhases]float64
	// QueueWaitSec sums task-span submission-to-launch waits (not part
	// of WallSec: a queued task occupies no slot).
	QueueWaitSec float64
	// CacheSavedSec sums the estimated disk time page-cache hits saved.
	CacheSavedSec float64
	// SpeculativeWasteSec is wall time of killed speculative attempts;
	// KilledWasteSec is wall time of other killed attempts (losing
	// originals, killed job clones).
	SpeculativeWasteSec float64
	KilledWasteSec      float64
}

// PhaseSum returns the sum of the phase buckets; it should match
// WallSec within float tolerance.
func (pt *PhaseTotals) PhaseSum() float64 {
	var sum float64
	for _, v := range pt.Phases {
		sum += v
	}
	return sum
}

// Add accumulates another total into pt.
func (pt *PhaseTotals) Add(o PhaseTotals) {
	pt.Attempts += o.Attempts
	pt.WallSec += o.WallSec
	for i := range pt.Phases {
		pt.Phases[i] += o.Phases[i]
	}
	pt.QueueWaitSec += o.QueueWaitSec
	pt.CacheSavedSec += o.CacheSavedSec
	pt.SpeculativeWasteSec += o.SpeculativeWasteSec
	pt.KilledWasteSec += o.KilledWasteSec
}

// Totals aggregates the tracer's closed spans. Open spans (attempts
// still running when the simulation stopped) are excluded: their wall
// time is undefined.
func (t *Tracer) Totals() PhaseTotals {
	var pt PhaseTotals
	if t == nil {
		return pt
	}
	for i := 0; i < t.n; i++ {
		s := t.at(i)
		if s.Open {
			continue
		}
		switch s.Kind {
		case KindTask:
			pt.QueueWaitSec += s.QueueWaitSec
		case KindAttempt:
			pt.Attempts++
			wall := s.WallSec()
			pt.WallSec += wall
			for p := range s.Phases {
				pt.Phases[p] += s.Phases[p]
			}
			pt.CacheSavedSec += s.CacheSavedSec
			if s.Killed {
				if s.Speculative {
					pt.SpeculativeWasteSec += wall
				} else {
					pt.KilledWasteSec += wall
				}
			}
		}
	}
	return pt
}
