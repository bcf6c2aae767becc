package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

func TestPhaseTimerSampling(t *testing.T) {
	tm := &PhaseTimer{}
	const calls = 10 * phaseSampleEvery
	for i := 0; i < calls; i++ {
		start := tm.Begin()
		if start != 0 {
			time.Sleep(time.Microsecond)
		}
		tm.End(start)
	}
	s := tm.stats("p")
	if s.Calls != calls {
		t.Errorf("Calls = %d, want %d", s.Calls, calls)
	}
	if s.Sampled != calls/phaseSampleEvery {
		t.Errorf("Sampled = %d, want %d (1-in-%d sampling)", s.Sampled, calls/phaseSampleEvery, phaseSampleEvery)
	}
	if s.TotalNs <= 0 || s.MaxNs <= 0 || s.MeanNs <= 0 {
		t.Errorf("sampled timings empty: %+v", s)
	}
	if s.MaxNs < s.MeanNs {
		t.Errorf("max %d < mean %d", s.MaxNs, s.MeanNs)
	}
}

func TestPhaseTimerNilSafety(t *testing.T) {
	var tm *PhaseTimer
	tm.End(tm.Begin()) // must not panic
	// End with a zero token (unsampled Begin) records nothing.
	tm2 := &PhaseTimer{}
	tm2.End(0)
	if s := tm2.stats("p"); s.Sampled != 0 || s.TotalNs != 0 {
		t.Errorf("zero-token End recorded a sample: %+v", s)
	}
}

func TestHealthNilSafety(t *testing.T) {
	var h *Health
	if h.Timer("x") != nil {
		t.Error("nil Health returned a non-nil timer")
	}
	h.SetPoolStats(func() PoolHealth { return PoolHealth{} })
	h.ObserveShardImbalance(2)
	h.SampleRuntime()
	if _, ok := h.Imbalance(); ok {
		t.Error("nil Health reported an imbalance observation")
	}
	if snap := h.Snapshot(); len(snap.Phases) != 0 || snap.Pool != nil {
		t.Errorf("nil Health snapshot not empty: %+v", snap)
	}
}

func TestHealthSnapshotAndWriteJSON(t *testing.T) {
	h := NewHealth(nil)
	// Same name returns the same timer; snapshot sorts by name.
	tb := h.Timer("b.phase")
	if h.Timer("b.phase") != tb {
		t.Fatal("Timer(name) not idempotent")
	}
	ta := h.Timer("a.phase")
	for i := 0; i < phaseSampleEvery; i++ {
		ta.End(ta.Begin())
		tb.End(tb.Begin())
	}
	h.SetPoolStats(func() PoolHealth {
		return PoolHealth{Capacity: 4, Peak: 3, TryAcquires: 10, Denied: 2, GrantedSlots: 8}
	})
	h.ObserveShardImbalance(1.5)

	snap := h.Snapshot()
	if len(snap.Phases) != 2 || snap.Phases[0].Phase != "a.phase" || snap.Phases[1].Phase != "b.phase" {
		t.Fatalf("phases not sorted by name: %+v", snap.Phases)
	}
	if snap.Phases[0].Calls != phaseSampleEvery || snap.Phases[0].Sampled != 1 {
		t.Errorf("phase stats wrong: %+v", snap.Phases[0])
	}
	if snap.Pool == nil || snap.Pool.Denied != 2 {
		t.Errorf("pool stats missing: %+v", snap.Pool)
	}
	if snap.ShardImbalance == nil || *snap.ShardImbalance != 1.5 {
		t.Errorf("imbalance missing: %v", snap.ShardImbalance)
	}
	if v, ok := h.Imbalance(); !ok || v != 1.5 {
		t.Errorf("Imbalance() = (%v, %v), want (1.5, true)", v, ok)
	}

	var buf bytes.Buffer
	if err := h.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var decoded HealthSnapshot
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatalf("WriteJSON output not valid JSON: %v\n%s", err, buf.Bytes())
	}
	if len(decoded.Phases) != 2 {
		t.Errorf("round-tripped snapshot lost phases: %+v", decoded)
	}

	sum := h.Summary()
	for _, want := range []string{"a.phase", "b.phase", "pool: capacity 4", "shard imbalance: 1.50"} {
		if !strings.Contains(sum, want) {
			t.Errorf("Summary missing %q:\n%s", want, sum)
		}
	}
}

// TestHealthRuntimeBridge checks the fixed runtime/metrics set lands in
// the registry as perfcloud_health_* gauges with sane values.
func TestHealthRuntimeBridge(t *testing.T) {
	reg := NewRegistry()
	h := NewHealth(reg)
	h.SampleRuntime()
	if v, ok := valueOf(reg, "perfcloud_health_goroutines"); !ok || v < 1 {
		t.Errorf("goroutines gauge = (%v, %v), want >= 1", v, ok)
	}
	if v, ok := valueOf(reg, "perfcloud_health_heap_objects_bytes"); !ok || v <= 0 {
		t.Errorf("heap gauge = (%v, %v), want > 0", v, ok)
	}
	for _, name := range []string{"perfcloud_health_gc_cycles_total", "perfcloud_health_gc_cpu_seconds_total"} {
		if _, ok := valueOf(reg, name); !ok {
			t.Errorf("gauge %q not registered", name)
		}
	}
}

// TestHealthImbalanceProbeShape: Health.Imbalance has the shape of a
// rule's Value source — no value until first observation.
func TestHealthImbalanceProbeShape(t *testing.T) {
	h := NewHealth(nil)
	rule := Rule{
		Name:  "shard-load-imbalance",
		Value: func(float64) (float64, bool) { return h.Imbalance() },
		Cmp:   CmpGT, Threshold: 4, ForSec: 15,
	}
	eng := NewAlertEngine([]Rule{rule}, nil)
	eng.Eval(0)
	if st := eng.Statuses()[0]; st.State != StateInactive {
		t.Fatalf("imbalance rule active before any observation: %+v", st)
	}
	h.ObserveShardImbalance(9)
	for now := 5.0; now <= 20; now += 5 {
		eng.Eval(now)
	}
	if st := eng.Statuses()[0]; st.State != StateFiring {
		t.Fatalf("imbalance rule = %q after observing 9 > 4 for 15 s", st.State)
	}
}
