package obs

import (
	"bufio"
	"encoding/json"
	"io"
	"sync"
)

// EventType names one kind of control-plane decision event.
type EventType string

// The event taxonomy (DESIGN.md §5.4). One event per decision, emitted
// in simulation-time order: the engine ticks node managers sequentially
// and each manager applies its cap decisions in sorted VM order, so two
// runs with the same seed produce byte-identical event streams.
const (
	// EventSample is one monitoring interval: domains measured plus the
	// deviation signals computed from the sample.
	EventSample EventType = "sample"
	// EventDetect fires when a deviation signal crossed its threshold
	// (I(t) > H) on either channel.
	EventDetect EventType = "detect"
	// EventIdentify carries the per-suspect Pearson coefficients and the
	// confirmed antagonist lists for a contended interval.
	EventIdentify EventType = "identify"
	// EventCap is one CUBIC (or ablation-policy) cap decision: the old
	// and new absolute cap plus the controller's epoch state.
	EventCap EventType = "cap"
	// EventRelease removes a controller once contention is gone and the
	// probing cap exceeded the release factor.
	EventRelease EventType = "release"
	// EventMigrate is a node manager's escalation to the cloud manager.
	EventMigrate EventType = "migrate"
	// EventFastPaths is a periodic snapshot of the simulation's
	// fast-path accounting (quiescence, steady replay, strides).
	EventFastPaths EventType = "fastpaths"
	// EventAlert is one alert-rule lifecycle transition (pending, firing
	// or resolved) from the deterministic rule engine (DESIGN.md §5.9).
	EventAlert EventType = "alert"
)

// SuspectCorr is one suspect's Pearson coefficients against the victim
// deviation signals, recorded on identify events.
type SuspectCorr struct {
	VM  string  `json:"vm"`
	IO  float64 `json:"io"`
	CPU float64 `json:"cpu"`
}

// FastPathSnapshot is cumulative fast-path accounting for a server or a
// whole cluster: how many grant-phase ticks each fast path absorbed.
// The zero value is a valid empty snapshot.
type FastPathSnapshot struct {
	// QuiescentSkips counts grant-phase ticks elided outright because
	// every VM on the server was idle, the first tick of each idle
	// stretch included (it is settled without running the pipeline);
	// Rebuilds and SteadyReuses partition the grant phases that did run
	// by whether the demand/request vectors were rebuilt or reused.
	QuiescentSkips uint64 `json:"quiescent_skips"`
	SteadyReuses   uint64 `json:"steady_reuses"`
	Rebuilds       uint64 `json:"rebuilds"`
	// StrideSkips counts whole engine ticks elided by event-driven
	// stepping (every framework provably idle, pipeline replayed in a
	// stride); HorizonRecomputes counts how often a stride horizon was
	// computed.
	StrideSkips       uint64 `json:"stride_skips"`
	HorizonRecomputes uint64 `json:"horizon_recomputes"`
	// ShardSkips counts whole shards skipped by the sharded tick path —
	// one per tick per shard whose every server sat in the inactive set.
	// Always encoded (no omitempty): /debug/fastpaths consumers pin the
	// field name and a zero is itself informative (sharding inactive).
	ShardSkips uint64 `json:"shard_skips"`
	// Per-resource allocator memo accounting, kept for the readers that
	// pin these fields (the JSONL fast-path events, perfcloudd's
	// perfcloud_alloc_memo_* gauges, the bench harness). The steady
	// replay is each resource model's only reuse of a solve, so every
	// *MemoHits field equals SteadyReuses and every *MemoMisses field
	// equals Rebuilds.
	CPUMemoHits    uint64 `json:"cpu_memo_hits"`
	CPUMemoMisses  uint64 `json:"cpu_memo_misses"`
	MemMemoHits    uint64 `json:"mem_memo_hits"`
	MemMemoMisses  uint64 `json:"mem_memo_misses"`
	DiskMemoHits   uint64 `json:"disk_memo_hits"`
	DiskMemoMisses uint64 `json:"disk_memo_misses"`
}

// Add accumulates another snapshot into s.
func (s *FastPathSnapshot) Add(o FastPathSnapshot) {
	s.QuiescentSkips += o.QuiescentSkips
	s.SteadyReuses += o.SteadyReuses
	s.Rebuilds += o.Rebuilds
	s.StrideSkips += o.StrideSkips
	s.HorizonRecomputes += o.HorizonRecomputes
	s.ShardSkips += o.ShardSkips
	s.CPUMemoHits += o.CPUMemoHits
	s.CPUMemoMisses += o.CPUMemoMisses
	s.MemMemoHits += o.MemMemoHits
	s.MemMemoMisses += o.MemMemoMisses
	s.DiskMemoHits += o.DiskMemoHits
	s.DiskMemoMisses += o.DiskMemoMisses
}

// Event is one typed control-plane record. It is a flat union: fields
// irrelevant to an event's type stay at their zero value and are omitted
// from the JSON encoding, so a JSONL stream stays compact and — because
// the encoding has a fixed field order and shortest float forms —
// byte-stable across same-seed runs.
type Event struct {
	// T is the simulation time in seconds.
	T    float64   `json:"t"`
	Type EventType `json:"type"`
	// Server is the emitting node manager's server id.
	Server string `json:"server,omitempty"`
	// VM and Res scope cap/release/migrate events to one controller
	// (Res is "io" or "cpu").
	VM  string `json:"vm,omitempty"`
	Res string `json:"res,omitempty"`

	// Sample / detect payload.
	Domains       int     `json:"domains,omitempty"`
	IowaitDev     float64 `json:"iowait_dev,omitempty"`
	CPIDev        float64 `json:"cpi_dev,omitempty"`
	MeanIowait    float64 `json:"mean_iowait,omitempty"`
	MeanCPI       float64 `json:"mean_cpi,omitempty"`
	IOContention  bool    `json:"io_contention,omitempty"`
	CPUContention bool    `json:"cpu_contention,omitempty"`

	// Identify payload.
	Corr           []SuspectCorr `json:"corr,omitempty"`
	IOAntagonists  []string      `json:"io_antagonists,omitempty"`
	CPUAntagonists []string      `json:"cpu_antagonists,omitempty"`

	// Cap / release payload: absolute caps (IOPS or cores) plus the
	// CUBIC epoch state — the growth-curve region and the number of
	// intervals since the last multiplicative decrease (0 = decreased
	// this interval, omitted from the encoding like every zero field).
	OldCap        float64 `json:"old_cap,omitempty"`
	NewCap        float64 `json:"new_cap,omitempty"`
	Region        string  `json:"region,omitempty"`
	SinceDecrease int64   `json:"since_decrease,omitempty"`

	// FastPaths payload.
	Fast *FastPathSnapshot `json:"fastpaths,omitempty"`

	// Alert payload: the rule name, the lifecycle state entered
	// ("pending", "firing" or "resolved"), the evaluated value against
	// its threshold, and when the condition first became true.
	Rule        string  `json:"rule,omitempty"`
	State       string  `json:"state,omitempty"`
	Value       float64 `json:"value,omitempty"`
	Threshold   float64 `json:"threshold,omitempty"`
	ActiveSince float64 `json:"active_since,omitempty"`
}

// Sink consumes events. Implementations must tolerate being called from
// the simulation loop; none of the provided sinks block.
type Sink interface {
	Emit(Event)
}

// MultiSink fans one event out to several sinks in order.
type MultiSink []Sink

// Emit implements Sink.
func (m MultiSink) Emit(e Event) {
	for _, s := range m {
		s.Emit(e)
	}
}

// JSONLSink encodes events as one JSON object per line, byte for byte
// as json.Encoder would (struct field order, omitempty, shortest float
// representation) but through an append encoder into one reused buffer
// (eventjson.go). Same-seed runs produce byte-identical streams — the
// property TestSameSeedEventStreams locks in. Writes are buffered; call
// Flush before reading the destination. The first write error is sticky
// and reported by Flush.
type JSONLSink struct {
	mu  sync.Mutex
	w   *bufio.Writer
	enc *json.Encoder // events holding NaN or ±Inf, to keep its error
	buf []byte
	err error
}

// NewJSONLSink creates a sink writing to w.
func NewJSONLSink(w io.Writer) *JSONLSink {
	bw := bufio.NewWriter(w)
	return &JSONLSink{w: bw, enc: json.NewEncoder(bw)}
}

// Emit implements Sink.
func (s *JSONLSink) Emit(e Event) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		return
	}
	if !e.finite() {
		s.err = s.enc.Encode(e)
		return
	}
	s.buf = append(appendEvent(s.buf[:0], &e), '\n')
	_, s.err = s.w.Write(s.buf)
}

// Flush drains the buffer and returns the first error encountered.
func (s *JSONLSink) Flush() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		return s.err
	}
	s.err = s.w.Flush()
	return s.err
}

// Collector retains every emitted event in order, for post-run export —
// the trace exporter renders cap/release/migrate events as instant
// markers on the Perfetto timeline. Safe for concurrent Emit and Events.
type Collector struct {
	mu     sync.Mutex
	events []Event
}

// NewCollector creates an empty collector.
func NewCollector() *Collector { return &Collector{} }

// Emit implements Sink.
func (c *Collector) Emit(e Event) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.events = append(c.events, e)
}

// Events returns the events collected so far in emission order, as a
// read-only view of the append-only log rather than a copy. The view's
// capacity is capped at its length, so appending to it reallocates and
// never touches the log, and later Emits write past its end.
func (c *Collector) Events() []Event {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.events[:len(c.events):len(c.events)]
}

// Ring keeps the most recent events in a bounded buffer, for a live
// /debug/events endpoint. The buffer grows on demand up to its size, so
// a short run holding a few hundred events never pays for thousands.
// Safe for concurrent Emit and Events.
type Ring struct {
	mu    sync.Mutex
	size  int
	buf   []Event // grows to size; then the oldest slot is overwritten
	next  int     // oldest slot once buf is full; 0 until then
	total uint64
}

// NewRing creates a ring holding up to n events.
func NewRing(n int) *Ring {
	if n <= 0 {
		panic("obs: ring size must be positive")
	}
	return &Ring{size: n}
}

// Emit implements Sink.
func (r *Ring) Emit(e Event) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.total++
	if len(r.buf) < r.size {
		r.buf = append(r.buf, e)
		return
	}
	r.buf[r.next] = e
	if r.next++; r.next == r.size {
		r.next = 0
	}
}

// Events returns a copy of the retained events, oldest first.
func (r *Ring) Events() []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.buf) == 0 {
		return nil
	}
	out := make([]Event, 0, len(r.buf))
	out = append(out, r.buf[r.next:]...)
	return append(out, r.buf[:r.next]...)
}

// AppendJSON appends the retained events, oldest first, to b as a JSON
// array — byte for byte what encoding/json writes for the slice Events
// returns, "null" when the ring is empty — using JSONLSink's append
// encoder instead of reflection and without copying the ring. It also
// returns Total and the number of events appended, read under the same
// lock. If a retained event holds a NaN or ±Inf, which encoding/json
// refuses, it returns b unchanged and ok false.
func (r *Ring) AppendJSON(b []byte) (out []byte, total uint64, n int, ok bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.buf) == 0 {
		return append(b, "null"...), r.total, 0, true
	}
	out = append(b, '[')
	for i := range r.buf {
		e := &r.buf[(r.next+i)%len(r.buf)]
		if !e.finite() {
			return b, r.total, 0, false
		}
		if i > 0 {
			out = append(out, ',')
		}
		out = appendEvent(out, e)
	}
	return append(out, ']'), r.total, len(r.buf), true
}

// Total returns how many events have been emitted over the ring's
// lifetime (retained or not).
func (r *Ring) Total() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.total
}
