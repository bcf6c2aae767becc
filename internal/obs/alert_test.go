package obs

import (
	"bytes"
	"reflect"
	"testing"
)

// evalRule builds a one-rule engine over a Value source driven by vals
// and returns the emitted alert events after evaluating at times ts.
func evalRule(t *testing.T, r Rule, ts []float64, vals map[float64]float64) []Event {
	t.Helper()
	if r.Signal == "" && r.Value == nil {
		r.Value = func(now float64) (float64, bool) {
			v, ok := vals[now]
			return v, ok
		}
	}
	col := NewCollector()
	eng := NewAlertEngine([]Rule{r}, col)
	for _, now := range ts {
		eng.Eval(now)
	}
	return col.Events()
}

func states(events []Event) []string {
	out := make([]string, len(events))
	for i, e := range events {
		out[i] = e.State
	}
	return out
}

func TestAlertLifecyclePendingFiringResolved(t *testing.T) {
	events := evalRule(t,
		Rule{Name: "r", Cmp: CmpGT, Threshold: 10, ForSec: 10},
		[]float64{0, 5, 10, 15, 20},
		map[float64]float64{0: 5, 5: 20, 10: 20, 15: 20, 20: 5},
	)
	// t=5 condition true -> pending; t=15 held 10s -> firing; t=20
	// condition false -> resolved.
	if got, want := states(events), []string{StatePending, StateFiring, StateResolved}; !reflect.DeepEqual(got, want) {
		t.Fatalf("lifecycle = %v, want %v (events %+v)", got, want, events)
	}
	if events[0].T != 5 || events[1].T != 15 || events[2].T != 20 {
		t.Errorf("transition times = %v %v %v, want 5 15 20", events[0].T, events[1].T, events[2].T)
	}
	for _, e := range events[:2] {
		if e.ActiveSince != 5 {
			t.Errorf("ActiveSince = %v, want 5 (%+v)", e.ActiveSince, e)
		}
	}
	if events[0].Type != EventAlert || events[0].Rule != "r" || events[0].Threshold != 10 {
		t.Errorf("malformed alert event: %+v", events[0])
	}
}

func TestAlertForZeroFiresImmediately(t *testing.T) {
	events := evalRule(t,
		Rule{Name: "r", Cmp: CmpGT, Threshold: 1},
		[]float64{0, 5},
		map[float64]float64{0: 2, 5: 0},
	)
	if got, want := states(events), []string{StateFiring, StateResolved}; !reflect.DeepEqual(got, want) {
		t.Fatalf("lifecycle = %v, want %v", got, want)
	}
}

// A blip shorter than ForSec goes pending and back to inactive without
// ever firing — and the retreat is silent (no resolved event for an
// alert that never fired).
func TestAlertHysteresisSwallowsBlips(t *testing.T) {
	events := evalRule(t,
		Rule{Name: "r", Cmp: CmpGT, Threshold: 10, ForSec: 30},
		[]float64{0, 5, 10, 15},
		map[float64]float64{0: 5, 5: 20, 10: 5, 15: 5},
	)
	if got, want := states(events), []string{StatePending}; !reflect.DeepEqual(got, want) {
		t.Fatalf("lifecycle = %v, want %v", got, want)
	}
}

// A source that yields no value is condition-false: it can't fire, and
// it resolves a firing alert.
func TestAlertMissingValueIsConditionFalse(t *testing.T) {
	events := evalRule(t,
		Rule{Name: "r", Cmp: CmpGT, Threshold: 1},
		[]float64{0, 5, 10},
		map[float64]float64{5: 2}, // t=0 and t=10 missing
	)
	if got, want := states(events), []string{StateFiring, StateResolved}; !reflect.DeepEqual(got, want) {
		t.Fatalf("lifecycle = %v, want %v", got, want)
	}
}

func TestCmpOperators(t *testing.T) {
	cases := []struct {
		cmp  Cmp
		v    float64
		want bool
	}{
		{CmpGT, 11, true}, {CmpGT, 10, false},
		{CmpGE, 10, true}, {CmpGE, 9, false},
		{CmpLT, 9, true}, {CmpLT, 10, false},
		{CmpLE, 10, true}, {CmpLE, 11, false},
		{"", 11, true}, {"", 10, false}, // "" defaults to >
	}
	for _, c := range cases {
		if got := c.cmp.compare(c.v, 10); got != c.want {
			t.Errorf("Cmp(%q).compare(%v, 10) = %v, want %v", c.cmp, c.v, got, c.want)
		}
	}
}

// TestBuiltinSignals drives a synthetic audit stream through the engine
// and checks every built-in signal reads the expected value.
func TestBuiltinSignals(t *testing.T) {
	eng := NewAlertEngine(nil, nil)
	eng.Emit(Event{T: 5, Type: EventSample, Server: "s0", IowaitDev: 12, CPIDev: 0.4})
	eng.Emit(Event{T: 10, Type: EventSample, Server: "s1", IowaitDev: 3, CPIDev: 1.8})
	eng.Emit(Event{T: 10, Type: EventCap, VM: "vm-a", Res: "io"})
	eng.Emit(Event{T: 15, Type: EventCap, VM: "vm-a", Res: "cpu"})
	eng.Emit(Event{T: 20, Type: EventCap, VM: "vm-b", Res: "io"})
	eng.Emit(Event{T: 25, Type: EventRelease, VM: "vm-b", Res: "io"})
	// Re-capping an open episode must not reset its start time.
	eng.Emit(Event{T: 30, Type: EventCap, VM: "vm-a", Res: "io"})

	now := 40.0
	checks := []struct {
		signal string
		want   float64
	}{
		{SignalDevIowaitMax, 12},
		{SignalDevCPIMax, 1.8},
		{SignalCappedVMs, 1},     // vm-a (two channels), vm-b released
		{SignalCapDwellMax, 30},  // vm-a io open since t=10
		{SignalSampleGapMax, 35}, // s0 last sampled at t=5
	}
	for _, c := range checks {
		v, ok := eng.signal(c.signal, now)
		if !ok || v != c.want {
			t.Errorf("signal %q = (%v, %v), want (%v, true)", c.signal, v, ok, c.want)
		}
	}

	// The false-cap watchdog yields no value until ground truth attaches,
	// then counts capped innocents.
	if _, ok := eng.signal(SignalFalseCappedVMs, now); ok {
		t.Error("false_capped_vms yielded a value without ground truth")
	}
	truth := NewGroundTruth()
	truth.Add(TruthVM{VM: "vm-a", Server: "s0", Channel: "io"})
	eng.SetGroundTruth(truth)
	if v, ok := eng.signal(SignalFalseCappedVMs, now); !ok || v != 0 {
		t.Errorf("false_capped_vms = (%v, %v) with only the antagonist capped", v, ok)
	}
	eng.Emit(Event{T: 41, Type: EventCap, VM: "vm-c", Res: "io"}) // unknown VM = innocent
	if v, ok := eng.signal(SignalFalseCappedVMs, now); !ok || v != 1 {
		t.Errorf("false_capped_vms = (%v, %v) after capping an innocent, want (1, true)", v, ok)
	}
}

// TestAlertEngineIgnoresItsOwnEvents: an engine wired into the same
// MultiSink it emits into must not feed back on itself.
func TestAlertEngineIgnoresItsOwnEvents(t *testing.T) {
	var out MultiSink
	eng := NewAlertEngine([]Rule{
		{Name: "r", Signal: SignalDevIowaitMax, Cmp: CmpGT, Threshold: 1},
	}, &out)
	col := NewCollector()
	out = MultiSink{eng, col}
	eng.Emit(Event{T: 0, Type: EventSample, Server: "s0", IowaitDev: 5})
	eng.Eval(0)
	eng.Eval(5)
	if n := len(col.Events()); n != 1 {
		t.Fatalf("%d alert events, want 1 (feedback loop?)", n)
	}
}

func TestAlertEngineNilSafety(t *testing.T) {
	var eng *AlertEngine
	eng.Emit(Event{Type: EventSample})
	eng.Eval(0)
	eng.SetGroundTruth(nil)
	if got := eng.Statuses(); got != nil {
		t.Errorf("nil engine Statuses() = %v", got)
	}
	if s := eng.Summary(); len(s.Rules) != 0 || s.Firings != 0 {
		t.Errorf("nil engine Summary() = %+v", s)
	}
}

func TestAlertSummaryMergeAndString(t *testing.T) {
	a := AlertSummary{
		Rules:   []RuleSummary{{Rule: "x", Pendings: 1, Firings: 1}, {Rule: "y"}},
		Firings: 1, Active: []string{"x"},
	}
	b := AlertSummary{
		Rules:    []RuleSummary{{Rule: "y", Pendings: 2, Firings: 1, Resolved: 1}, {Rule: "z", Firings: 1}},
		Firings:  2,
		Resolved: 1,
		Active:   []string{"z", "x"},
	}
	a.Merge(b)
	want := AlertSummary{
		Rules: []RuleSummary{
			{Rule: "x", Pendings: 1, Firings: 1},
			{Rule: "y", Pendings: 2, Firings: 1, Resolved: 1},
			{Rule: "z", Firings: 1},
		},
		Firings: 3, Resolved: 1, Active: []string{"x", "z"},
	}
	if !reflect.DeepEqual(a, want) {
		t.Fatalf("Merge = %+v, want %+v", a, want)
	}
	const str = "firings 3 resolved 1 active [x z] x(fired 1) y(fired 1) z(fired 1)"
	if got := a.String(); got != str {
		t.Fatalf("String() = %q, want %q", got, str)
	}

	// Merging into a shallow copy (as Fig 12 folds its repetitions) must
	// not write through the arrays the copy shares with its source.
	for _, c := range []struct {
		name string
		src  AlertSummary
		add  AlertSummary
	}{
		{"shared rule counts", AlertSummary{
			Rules: []RuleSummary{{Rule: "r", Pendings: 1, Firings: 1}}, Firings: 1,
		}, AlertSummary{
			Rules: []RuleSummary{{Rule: "r", Pendings: 2, Firings: 2}}, Firings: 2,
		}},
		{"shared active list", AlertSummary{
			Rules:   []RuleSummary{{Rule: "b", Firings: 1}},
			Firings: 1, Active: append(make([]string, 0, 4), "b"),
		}, AlertSummary{
			Rules: []RuleSummary{{Rule: "a", Firings: 1}}, Firings: 1, Active: []string{"a"},
		}},
		{"spare rule capacity", AlertSummary{
			Rules: append(make([]RuleSummary, 0, 4), RuleSummary{Rule: "r", Firings: 1}), Firings: 1,
		}, AlertSummary{
			Rules: []RuleSummary{{Rule: "s", Firings: 1}}, Firings: 1,
		}},
	} {
		before := c.src.String()
		cp := c.src
		cp.Merge(c.add)
		if got := c.src.String(); got != before {
			t.Errorf("%s: merging into a copy changed the source: %q, was %q", c.name, got, before)
		}
		if extended := c.src.Rules[:cap(c.src.Rules)]; len(extended) > len(c.src.Rules) && extended[len(c.src.Rules)].Rule != "" {
			t.Errorf("%s: merging into a copy wrote past the source's rules: %+v", c.name, extended)
		}
	}
}

// TestDefaultRulesDeterministicStream drives the same synthetic event
// stream through two engines over the default pack and requires
// byte-identical JSONL output.
func TestDefaultRulesDeterministicStream(t *testing.T) {
	runOnce := func() []byte {
		var buf bytes.Buffer
		sink := NewJSONLSink(&buf)
		truth := NewGroundTruth()
		truth.Add(TruthVM{VM: "ant", Server: "s0", Channel: "io"})
		eng := NewAlertEngine(DefaultRules(DefaultRulesConfig{}), sink)
		eng.SetGroundTruth(truth)
		for now := 5.0; now <= 300; now += 5 {
			eng.Emit(Event{T: now, Type: EventSample, Server: "s0", IowaitDev: 25, CPIDev: 2})
			if now == 30 {
				eng.Emit(Event{T: now, Type: EventCap, VM: "ant", Res: "io"})
				eng.Emit(Event{T: now, Type: EventCap, VM: "decoy", Res: "io"})
			}
			eng.Eval(now)
		}
		if err := sink.Flush(); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a, b := runOnce(), runOnce()
	if len(a) == 0 {
		t.Fatal("default rules emitted nothing on a stream above every threshold")
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("same-stream alert output differs:\n%s\nvs\n%s", a, b)
	}
}

// TestDefaultRulesCoverage: the synthetic stream above must trip the
// deviation rules, the cap-dwell rule and the false-cap watchdog.
func TestDefaultRulesCoverage(t *testing.T) {
	truth := NewGroundTruth()
	truth.Add(TruthVM{VM: "ant", Server: "s0", Channel: "io"})
	eng := NewAlertEngine(DefaultRules(DefaultRulesConfig{}), nil)
	eng.SetGroundTruth(truth)
	for now := 5.0; now <= 300; now += 5 {
		eng.Emit(Event{T: now, Type: EventSample, Server: "s0", IowaitDev: 25, CPIDev: 2})
		if now == 30 {
			eng.Emit(Event{T: now, Type: EventCap, VM: "ant", Res: "io"})
			eng.Emit(Event{T: now, Type: EventCap, VM: "decoy", Res: "io"})
		}
		eng.Eval(now)
	}
	sum := eng.Summary()
	fired := map[string]int{}
	for _, r := range sum.Rules {
		fired[r.Rule] = r.Firings
	}
	for _, rule := range []string{
		"victim-iowait-deviation-sustained",
		"victim-cpi-deviation-sustained",
		"cap-dwell-too-long",
		"false-cap-watchdog",
	} {
		if fired[rule] == 0 {
			t.Errorf("rule %q never fired (summary %+v)", rule, sum)
		}
	}
	// The control loop never starved, so the overrun rule stays quiet.
	if fired["monitor-interval-overrun"] != 0 {
		t.Errorf("monitor-interval-overrun fired spuriously (summary %+v)", sum)
	}
}

// TestDefaultRulesOptionalProbes: the fast-path rule only exists when
// its probe is wired, and reads through it.
func TestDefaultRulesOptionalProbes(t *testing.T) {
	for _, r := range DefaultRules(DefaultRulesConfig{}) {
		if r.Name == "fastpath-hit-rate-collapse" {
			t.Fatalf("probe rule %q present without its probe", r.Name)
		}
	}
	full := DefaultRules(DefaultRulesConfig{
		FastPaths: func() FastPathSnapshot {
			return FastPathSnapshot{QuiescentSkips: 1, Rebuilds: 99}
		},
	})
	eng := NewAlertEngine(full, nil)
	// The rule holds for 15 s before it fires: pending at 0, firing at 15.
	for now := 0.0; now <= 15; now += 5 {
		eng.Eval(now)
	}
	st := map[string]AlertStatus{}
	for _, s := range eng.Statuses() {
		st[s.Rule] = s
	}
	if s := st["fastpath-hit-rate-collapse"]; s.State != StateFiring {
		t.Errorf("fastpath rule = %+v, want firing (hit rate 0.01 < 0.2)", s)
	}
}
