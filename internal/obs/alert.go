package obs

import (
	"fmt"
	"slices"
	"sort"
	"strings"
)

// This file is the deterministic alert engine (DESIGN.md §5.9): declared
// rules watched against the run's own telemetry, evaluated on simulation
// time with a Prometheus-style pending→firing→resolved lifecycle. Every
// input the engine reads — the audit-event stream and the ground-truth
// registry — is a deterministic function of the seed, every aggregation it computes is
// order-independent (maxes and counts over maps, never float sums in map
// order), and transitions are emitted in declared rule order, so two
// same-seed runs produce byte-identical alert event streams. Wall-clock
// engine health lives in health.go and is explicitly excluded from this
// contract.

// Cmp is a rule's comparison operator.
type Cmp string

// The comparison operators a rule may use against its threshold.
const (
	CmpGT Cmp = ">"
	CmpGE Cmp = ">="
	CmpLT Cmp = "<"
	CmpLE Cmp = "<="
)

// compare applies the operator ("" defaults to >).
func (c Cmp) compare(v, threshold float64) bool {
	switch c {
	case CmpGE:
		return v >= threshold
	case CmpLT:
		return v < threshold
	case CmpLE:
		return v <= threshold
	default:
		return v > threshold
	}
}

// Alert lifecycle states, as emitted on EventAlert records.
const (
	StateInactive = "inactive"
	StatePending  = "pending"
	StateFiring   = "firing"
	StateResolved = "resolved"
)

// Rule is one declared condition over the run's telemetry: a value
// source, a comparison against Threshold, and a `for` duration (ForSec)
// the condition must hold before the alert fires — the hysteresis that
// keeps one spiky interval from paging.
//
// Exactly one source should be set; Signal wins over Value:
//
//   - Signal: a built-in signal the engine derives from the audit-event
//     stream it consumes (see the Signal* constants);
//   - Value: an arbitrary function of simulation time. The function must
//     be a pure observer of deterministic simulation state for the
//     byte-identical-stream contract to hold.
//
// A rule whose source yields no value this interval (a signal without
// its input, Value ok=false) is treated as condition-false.
type Rule struct {
	Name string

	Signal string
	Value  func(nowSec float64) (float64, bool)

	Cmp       Cmp
	Threshold float64
	ForSec    float64
}

// Built-in signals, derived from the audit events the engine consumes as
// a Sink. All are instantaneous reads of engine state at Eval time.
const (
	// SignalDevIowaitMax / SignalDevCPIMax: the maximum deviation signal
	// across servers, from each server's latest sample event.
	SignalDevIowaitMax = "dev_iowait_max"
	SignalDevCPIMax    = "dev_cpi_max"
	// SignalCappedVMs counts distinct VMs with any cap episode open.
	SignalCappedVMs = "capped_vms"
	// SignalCapDwellMax is the longest currently-open cap episode's age
	// in simulation seconds.
	SignalCapDwellMax = "cap_dwell_max"
	// SignalFalseCappedVMs counts currently-capped VMs that ground truth
	// knows to be innocent. Yields no value until SetGroundTruth.
	SignalFalseCappedVMs = "false_capped_vms"
	// SignalSampleGapMax is the longest gap between now and any server's
	// last sample event — a starved control loop shows up here.
	SignalSampleGapMax = "sample_gap_max"
)

// ruleState is one rule's lifecycle position.
type ruleState struct {
	state    string
	since    float64 // when the condition first became true (pending entry)
	value    float64 // last evaluated value
	pendings int     // lifetime transitions into pending
	firings  int     // lifetime transitions into firing
	resolved int     // lifetime transitions into resolved
}

// capEpisode keys one open cap by VM and resource channel, mirroring the
// episode tracking Score uses.
type capEpisode struct{ vm, res string }

// AlertEngine evaluates a fixed rule list against the run's telemetry.
// It consumes the audit-event stream as a Sink (wire it into the same
// MultiSink as the other sinks, or let core.Attach do it), and emits
// EventAlert records for every lifecycle transition into its output sink.
// The nil *AlertEngine is a valid no-op: Emit, Eval and SetGroundTruth
// all return immediately, so wiring code needs no guards.
//
// The engine is not internally synchronized beyond what Sink requires:
// Eval must be called from the goroutine stepping the simulation (the
// core alert ticker does), between ticks.
type AlertEngine struct {
	rules []Rule
	out   Sink
	truth *GroundTruth

	states []ruleState

	// Event-derived state. All reads over these maps at Eval time are
	// maxes or counts, so map iteration order cannot leak into output.
	lastSample map[string]float64 // server -> last sample event time
	devIO      map[string]float64 // server -> latest iowait deviation
	devCPI     map[string]float64 // server -> latest CPI deviation
	openCaps   map[capEpisode]float64
}

// NewAlertEngine creates an engine over the given rules, emitting alert
// events into out (nil discards them). Rules are copied.
func NewAlertEngine(rules []Rule, out Sink) *AlertEngine {
	e := &AlertEngine{
		rules:      append([]Rule(nil), rules...),
		out:        out,
		states:     make([]ruleState, len(rules)),
		lastSample: make(map[string]float64),
		devIO:      make(map[string]float64),
		devCPI:     make(map[string]float64),
		openCaps:   make(map[capEpisode]float64),
	}
	for i := range e.states {
		e.states[i].state = StateInactive
	}
	return e
}

// SetGroundTruth attaches the run's truth registry, enabling the
// false-cap watchdog signal. Nil-safe on both sides.
func (e *AlertEngine) SetGroundTruth(g *GroundTruth) {
	if e != nil {
		e.truth = g
	}
}

// Emit implements Sink: the engine folds the audit stream into the state
// its built-in signals read. Alert events are ignored so an engine wired
// into the same MultiSink it emits into cannot feed back on itself.
func (e *AlertEngine) Emit(ev Event) {
	if e == nil {
		return
	}
	switch ev.Type {
	case EventSample:
		e.lastSample[ev.Server] = ev.T
		e.devIO[ev.Server] = ev.IowaitDev
		e.devCPI[ev.Server] = ev.CPIDev
	case EventCap:
		k := capEpisode{ev.VM, ev.Res}
		if _, live := e.openCaps[k]; !live {
			e.openCaps[k] = ev.T
		}
	case EventRelease:
		delete(e.openCaps, capEpisode{ev.VM, ev.Res})
	}
}

// signal evaluates a built-in signal at simulation time now.
func (e *AlertEngine) signal(name string, now float64) (float64, bool) {
	switch name {
	case SignalDevIowaitMax:
		return maxValue(e.devIO), true
	case SignalDevCPIMax:
		return maxValue(e.devCPI), true
	case SignalCappedVMs:
		vms := make(map[string]bool, len(e.openCaps))
		for k := range e.openCaps {
			vms[k.vm] = true
		}
		return float64(len(vms)), true
	case SignalCapDwellMax:
		var dwell float64
		for _, since := range e.openCaps {
			if d := now - since; d > dwell {
				dwell = d
			}
		}
		return dwell, true
	case SignalFalseCappedVMs:
		if e.truth == nil {
			return 0, false
		}
		innocents := make(map[string]bool)
		for k := range e.openCaps {
			if v, ok := e.truth.Lookup(k.vm); !ok || !v.Antagonist() {
				innocents[k.vm] = true
			}
		}
		return float64(len(innocents)), true
	case SignalSampleGapMax:
		var gap float64
		for _, t := range e.lastSample {
			if g := now - t; g > gap {
				gap = g
			}
		}
		return gap, true
	}
	return 0, false
}

func maxValue(m map[string]float64) float64 {
	var out float64
	for _, v := range m {
		if v > out {
			out = v
		}
	}
	return out
}

// value resolves one rule's source.
func (e *AlertEngine) value(r *Rule, now float64) (float64, bool) {
	switch {
	case r.Signal != "":
		return e.signal(r.Signal, now)
	case r.Value != nil:
		return r.Value(now)
	}
	return 0, false
}

// Eval evaluates every rule at simulation time now, walking rules in
// declared order and emitting one EventAlert per lifecycle transition:
//
//	inactive --cond--> pending  (emitted; firing immediately if ForSec==0)
//	pending  --cond held ForSec--> firing   (emitted)
//	pending  --!cond--> inactive            (silent: never fired)
//	firing   --!cond--> resolved -> inactive (emitted)
func (e *AlertEngine) Eval(now float64) {
	if e == nil {
		return
	}
	for i := range e.rules {
		r := &e.rules[i]
		st := &e.states[i]
		v, ok := e.value(r, now)
		cond := ok && r.Cmp.compare(v, r.Threshold)
		st.value = v
		switch st.state {
		case StateInactive:
			if !cond {
				continue
			}
			st.since = now
			if r.ForSec <= 0 {
				st.state = StateFiring
				st.firings++
				e.emit(r, st, StateFiring, now, v)
				continue
			}
			st.state = StatePending
			st.pendings++
			e.emit(r, st, StatePending, now, v)
		case StatePending:
			if !cond {
				st.state = StateInactive
				continue
			}
			if now-st.since >= r.ForSec {
				st.state = StateFiring
				st.firings++
				e.emit(r, st, StateFiring, now, v)
			}
		case StateFiring:
			if cond {
				continue
			}
			st.resolved++
			e.emit(r, st, StateResolved, now, v)
			st.state = StateInactive
		}
	}
}

func (e *AlertEngine) emit(r *Rule, st *ruleState, state string, now, v float64) {
	if e.out == nil {
		return
	}
	e.out.Emit(Event{
		T: now, Type: EventAlert,
		Rule: r.Name, State: state,
		Value: v, Threshold: r.Threshold, ActiveSince: st.since,
	})
}

// AlertStatus is one rule's live status, for /debug/alerts.
type AlertStatus struct {
	Rule        string  `json:"rule"`
	State       string  `json:"state"`
	Value       float64 `json:"value"`
	Threshold   float64 `json:"threshold"`
	ActiveSince float64 `json:"active_since,omitempty"`
	Firings     int     `json:"firings"`
	Resolved    int     `json:"resolved"`
}

// Statuses returns every rule's status in declared order.
func (e *AlertEngine) Statuses() []AlertStatus {
	if e == nil {
		return nil
	}
	out := make([]AlertStatus, len(e.rules))
	for i := range e.rules {
		st := &e.states[i]
		out[i] = AlertStatus{
			Rule: e.rules[i].Name, State: st.state,
			Value: st.value, Threshold: e.rules[i].Threshold,
			Firings: st.firings, Resolved: st.resolved,
		}
		if st.state != StateInactive {
			out[i].ActiveSince = st.since
		}
	}
	return out
}

// RuleSummary is one rule's lifetime transition counts.
type RuleSummary struct {
	Rule     string `json:"rule"`
	Pendings int    `json:"pendings"`
	Firings  int    `json:"firings"`
	Resolved int    `json:"resolved"`
}

// AlertSummary aggregates an engine's activity for result rows and CLI
// output. Merge combines summaries from independent runs (Fig 12's
// repetitions); String renders a stable single line suitable for
// byte-comparison across same-seed runs.
type AlertSummary struct {
	Rules    []RuleSummary `json:"rules"`
	Firings  int           `json:"firings"`
	Resolved int           `json:"resolved"`
	// Active lists the rules still firing when the run ended, sorted.
	Active []string `json:"active,omitempty"`
}

// Summary snapshots the engine's lifetime activity. Nil-safe (returns
// the zero summary).
func (e *AlertEngine) Summary() AlertSummary {
	var s AlertSummary
	if e == nil {
		return s
	}
	for i := range e.rules {
		st := &e.states[i]
		s.Rules = append(s.Rules, RuleSummary{
			Rule: e.rules[i].Name, Pendings: st.pendings,
			Firings: st.firings, Resolved: st.resolved,
		})
		s.Firings += st.firings
		s.Resolved += st.resolved
		if st.state == StateFiring {
			s.Active = append(s.Active, e.rules[i].Name)
		}
	}
	sort.Strings(s.Active)
	return s
}

// Merge folds another summary into s, aligning rules by name (rule order
// is preserved; unseen rules append). It writes only into arrays it
// allocates, so s may be a shallow copy of another summary (Fig 12
// copies its first repetition's) without changing that summary.
func (s *AlertSummary) Merge(o AlertSummary) {
	s.Rules = slices.Clone(s.Rules)
	byName := make(map[string]int, len(s.Rules))
	for i, r := range s.Rules {
		byName[r.Rule] = i
	}
	for _, r := range o.Rules {
		if i, ok := byName[r.Rule]; ok {
			s.Rules[i].Pendings += r.Pendings
			s.Rules[i].Firings += r.Firings
			s.Rules[i].Resolved += r.Resolved
		} else {
			byName[r.Rule] = len(s.Rules)
			s.Rules = append(s.Rules, r)
		}
	}
	s.Firings += o.Firings
	s.Resolved += o.Resolved
	active := make(map[string]bool, len(s.Active)+len(o.Active))
	for _, a := range s.Active {
		active[a] = true
	}
	for _, a := range o.Active {
		active[a] = true
	}
	s.Active = nil
	for a := range active {
		s.Active = append(s.Active, a)
	}
	sort.Strings(s.Active)
}

// String renders the summary as one stable line: totals, then each rule
// that ever left inactive, in rule order.
func (s AlertSummary) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "firings %d resolved %d", s.Firings, s.Resolved)
	if len(s.Active) > 0 {
		fmt.Fprintf(&b, " active [%s]", strings.Join(s.Active, " "))
	}
	for _, r := range s.Rules {
		if r.Pendings == 0 && r.Firings == 0 {
			continue
		}
		fmt.Fprintf(&b, " %s(fired %d)", r.Rule, r.Firings)
	}
	return b.String()
}

// DefaultRulesConfig parameterises the default rule pack.
type DefaultRulesConfig struct {
	// FastPaths, when non-nil, enables the fast-path collapse rule over
	// the grant-phase hit rate (quiescent skips + steady reuses over all
	// grant-phase ticks).
	FastPaths func() FastPathSnapshot
}

// The default rule pack's thresholds: the paper's 5 s monitoring period,
// its iowait and CPI detection thresholds, a 15 s `for` duration (three
// control intervals of unmitigated victim pain), a 120 s cap-dwell limit
// and a 0.2 floor on the fast-path hit rate.
const (
	rulesIntervalSec     = 5
	rulesIowait          = 10
	rulesCPI             = 1
	rulesSustainSec      = 15
	rulesMaxCapDwellSec  = 120
	rulesMinFastPathRate = 0.2
)

// DefaultRules builds the default rule pack: sustained victim deviation
// on both channels, cap dwell, the false-cap watchdog (armed only once
// ground truth is attached), monitor-interval overrun, and — when the
// fast-path probe is wired — fast-path hit-rate collapse.
func DefaultRules(cfg DefaultRulesConfig) []Rule {
	rules := []Rule{
		{
			Name: "victim-iowait-deviation-sustained", Signal: SignalDevIowaitMax,
			Cmp: CmpGT, Threshold: rulesIowait, ForSec: rulesSustainSec,
		},
		{
			Name: "victim-cpi-deviation-sustained", Signal: SignalDevCPIMax,
			Cmp: CmpGT, Threshold: rulesCPI, ForSec: rulesSustainSec,
		},
		{
			Name: "cap-dwell-too-long", Signal: SignalCapDwellMax,
			Cmp: CmpGT, Threshold: rulesMaxCapDwellSec,
		},
		{
			Name: "false-cap-watchdog", Signal: SignalFalseCappedVMs,
			Cmp: CmpGT, Threshold: 0,
		},
		{
			Name: "monitor-interval-overrun", Signal: SignalSampleGapMax,
			Cmp: CmpGT, Threshold: 1.5 * rulesIntervalSec,
		},
	}
	if fp := cfg.FastPaths; fp != nil {
		rules = append(rules, Rule{
			Name: "fastpath-hit-rate-collapse",
			Value: func(float64) (float64, bool) {
				s := fp()
				total := s.QuiescentSkips + s.SteadyReuses + s.Rebuilds
				if total == 0 {
					return 0, false
				}
				return float64(s.QuiescentSkips+s.SteadyReuses) / float64(total), true
			},
			Cmp: CmpLT, Threshold: rulesMinFastPathRate, ForSec: rulesSustainSec,
		})
	}
	return rules
}
