package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// This file is the engine self-profiling layer: sampled wall-clock phase
// timers, slot-pool contention counters, shard load-imbalance gauges and
// a runtime/metrics bridge. It is explicitly NON-deterministic by design
// — it measures the simulator's own execution, not the simulation — and
// is therefore kept strictly out of sim outputs: nothing here feeds the
// audit-event stream, result rows, traces or scorecards, and the alert
// engine's determinism contract (alert.go) never reads wall-clock state.
// Like the rest of the package it is free when off: the nil *Health and
// nil *PhaseTimer are valid no-ops, so instrumented hot loops pay one
// branch when no health layer is attached.

// phaseSampleEvery is the sampling stride: one in this many Begin calls
// actually reads the clock. A power of two keeps the modulo a mask.
const phaseSampleEvery = 64

// PhaseTimer measures one engine phase with sampled wall-clock timings.
// Begin returns a start token (zero for unsampled calls); End records
// the elapsed time when the token is non-zero. Both are safe for
// concurrent use and no-ops on the nil timer.
type PhaseTimer struct {
	calls   atomic.Uint64
	sampled atomic.Uint64
	totalNs atomic.Int64
	maxNs   atomic.Int64
}

// Begin starts a sample if this call is selected, returning the start
// token to hand to End (0 = unsampled, End ignores it).
func (t *PhaseTimer) Begin() int64 {
	if t == nil {
		return 0
	}
	if t.calls.Add(1)%phaseSampleEvery != 1 {
		return 0
	}
	return time.Now().UnixNano()
}

// End completes a sample started by Begin.
func (t *PhaseTimer) End(start int64) {
	if t == nil || start == 0 {
		return
	}
	d := time.Now().UnixNano() - start
	if d < 0 {
		return
	}
	t.sampled.Add(1)
	t.totalNs.Add(d)
	for {
		old := t.maxNs.Load()
		if d <= old || t.maxNs.CompareAndSwap(old, d) {
			return
		}
	}
}

// PhaseStats is one timer's snapshot.
type PhaseStats struct {
	Phase   string `json:"phase"`
	Calls   uint64 `json:"calls"`
	Sampled uint64 `json:"sampled"`
	TotalNs int64  `json:"total_ns"`
	MaxNs   int64  `json:"max_ns"`
	// MeanNs is TotalNs over Sampled (0 when nothing sampled yet).
	MeanNs int64 `json:"mean_ns"`
}

func (t *PhaseTimer) stats(name string) PhaseStats {
	s := PhaseStats{
		Phase:   name,
		Calls:   t.calls.Load(),
		Sampled: t.sampled.Load(),
		TotalNs: t.totalNs.Load(),
		MaxNs:   t.maxNs.Load(),
	}
	if s.Sampled > 0 {
		s.MeanNs = s.TotalNs / int64(s.Sampled)
	}
	return s
}

// PoolHealth is a snapshot of a worker slot pool's contention state,
// mirrored here so obs does not import sim (sim.SlotPool.Stats converts
// into it).
type PoolHealth struct {
	Capacity     int    `json:"capacity"`
	InUse        int    `json:"in_use"`
	Peak         int    `json:"peak"`
	TryAcquires  uint64 `json:"try_acquires"`
	Denied       uint64 `json:"denied"`
	GrantedSlots uint64 `json:"granted_slots"`
}

// runtimeSamples is the fixed runtime/metrics set the bridge reads. A
// fixed list (rather than metrics.All) keeps the gauge names stable
// across Go releases.
var runtimeSamples = []struct {
	path  string
	gauge string
	help  string
}{
	{"/sched/goroutines:goroutines", "perfcloud_health_goroutines", "Live goroutine count."},
	{"/memory/classes/heap/objects:bytes", "perfcloud_health_heap_objects_bytes", "Bytes of live heap objects."},
	{"/gc/cycles/total:gc-cycles", "perfcloud_health_gc_cycles_total", "Completed GC cycles."},
	{"/cpu/classes/gc/total:cpu-seconds", "perfcloud_health_gc_cpu_seconds_total", "Estimated CPU time spent in the GC."},
}

// Health is the root of the self-profiling layer: named phase timers, an
// optional pool-stats probe, the shard-imbalance gauge, and the
// runtime/metrics bridge. All methods are safe on the nil *Health, so a
// component holds a plain field and wires timers unconditionally.
type Health struct {
	reg *Registry

	mu     sync.Mutex
	timers map[string]*PhaseTimer
	order  []string
	pool   func() PoolHealth

	// Shard load imbalance, as observed by whoever samples shard stats
	// (bits-encoded max/mean ratio; set flag keeps "never observed"
	// distinct from a ratio of 0).
	imbalanceBits atomic.Uint64
	imbalanceSet  atomic.Bool
}

// NewHealth creates a health layer. reg may be nil: timers and probes
// still work, only the runtime/metrics bridge has nowhere to write.
func NewHealth(reg *Registry) *Health {
	return &Health{reg: reg, timers: make(map[string]*PhaseTimer)}
}

// Timer returns (registering on first use) the named phase timer, or nil
// on the nil Health — callers store the result and use it unguarded.
func (h *Health) Timer(name string) *PhaseTimer {
	if h == nil {
		return nil
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	t, ok := h.timers[name]
	if !ok {
		t = &PhaseTimer{}
		h.timers[name] = t
		h.order = append(h.order, name)
	}
	return t
}

// SetPoolStats installs the probe the snapshot calls for slot-pool
// contention (typically wrapping sim.SharedPool().Stats()).
func (h *Health) SetPoolStats(probe func() PoolHealth) {
	if h == nil {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	h.pool = probe
}

// ObserveShardImbalance records the latest max/mean active-server ratio
// across tick shards.
func (h *Health) ObserveShardImbalance(ratio float64) {
	if h == nil {
		return
	}
	h.imbalanceBits.Store(math.Float64bits(ratio))
	h.imbalanceSet.Store(true)
	if h.reg != nil {
		h.reg.Gauge("perfcloud_health_shard_imbalance",
			"Max/mean active-server ratio across tick shards.").Set(ratio)
	}
}

// Imbalance returns the last observed shard imbalance ratio (ok false
// until first observed, and always on the nil Health) — the shape of a
// rule's Value source.
func (h *Health) Imbalance() (float64, bool) {
	if h == nil || !h.imbalanceSet.Load() {
		return 0, false
	}
	return math.Float64frombits(h.imbalanceBits.Load()), true
}

// SampleRuntime reads the fixed runtime/metrics set into the attached
// registry's health gauges. Call it at observation points (daemon
// intervals, end of a bench run); it is not worth calling per tick.
func (h *Health) SampleRuntime() {
	if h == nil || h.reg == nil {
		return
	}
	samples := make([]metrics.Sample, len(runtimeSamples))
	for i := range runtimeSamples {
		samples[i].Name = runtimeSamples[i].path
	}
	metrics.Read(samples)
	for i, s := range samples {
		var v float64
		switch s.Value.Kind() {
		case metrics.KindUint64:
			v = float64(s.Value.Uint64())
		case metrics.KindFloat64:
			v = s.Value.Float64()
		default:
			continue
		}
		h.reg.Gauge(runtimeSamples[i].gauge, runtimeSamples[i].help).Set(v)
	}
}

// HealthSnapshot is the JSON shape of /debug/health.
type HealthSnapshot struct {
	Phases []PhaseStats `json:"phases"`
	Pool   *PoolHealth  `json:"pool,omitempty"`
	// ShardImbalance is the last observed max/mean ratio (absent until
	// first observed).
	ShardImbalance *float64 `json:"shard_imbalance,omitempty"`
}

// Snapshot captures the current health state (phases sorted by name).
func (h *Health) Snapshot() HealthSnapshot {
	var snap HealthSnapshot
	if h == nil {
		return snap
	}
	h.mu.Lock()
	names := append([]string(nil), h.order...)
	pool := h.pool
	h.mu.Unlock()
	sort.Strings(names)
	for _, name := range names {
		snap.Phases = append(snap.Phases, h.Timer(name).stats(name))
	}
	if pool != nil {
		p := pool()
		snap.Pool = &p
	}
	if v, ok := h.Imbalance(); ok {
		snap.ShardImbalance = &v
	}
	return snap
}

// WriteJSON renders the snapshot as indented JSON (for /debug/health).
func (h *Health) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(h.Snapshot())
}

// Summary renders the snapshot as aligned text for CLI output (perfbench
// -health). Empty string when nothing was recorded.
func (h *Health) Summary() string {
	snap := h.Snapshot()
	var b strings.Builder
	if len(snap.Phases) > 0 {
		fmt.Fprintf(&b, "%-22s %12s %9s %12s %12s\n", "phase", "calls", "sampled", "mean", "max")
		for _, p := range snap.Phases {
			fmt.Fprintf(&b, "%-22s %12d %9d %12s %12s\n", p.Phase, p.Calls, p.Sampled,
				time.Duration(p.MeanNs), time.Duration(p.MaxNs))
		}
	}
	if p := snap.Pool; p != nil {
		fmt.Fprintf(&b, "pool: capacity %d in-use %d peak %d acquires %d denied %d granted %d\n",
			p.Capacity, p.InUse, p.Peak, p.TryAcquires, p.Denied, p.GrantedSlots)
	}
	if r := snap.ShardImbalance; r != nil {
		fmt.Fprintf(&b, "shard imbalance: %.2f (max/mean active servers)\n", *r)
	}
	return b.String()
}
