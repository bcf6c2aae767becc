package experiments

import (
	"fmt"
	"io"
	"os"

	"perfcloud/internal/obs"
	"perfcloud/internal/trace"
)

// Observe selects the observers one run carries. psim, perfcloudd and
// the experiment drivers all build their tracer, audit-event collector
// and alert engine through it, so every front end records the same
// evidence the same way. The zero value selects nothing.
type Observe struct {
	// Trace records job, task and attempt spans with phase attribution,
	// for the phase reports and the Perfetto timeline.
	Trace bool
	// Scorecard keeps the audit events a scorecard grades.
	Scorecard bool
	// Rules, when non-empty, deploys the alert engine over these rules,
	// evaluated on sim time against the run's audit stream.
	Rules []obs.Rule
	// Out, when non-nil, also receives every audit and alert event.
	Out obs.Sink
}

// Observers are the observers Attach built for one run. Tracer and
// Alerts are nil when not selected.
type Observers struct {
	Tracer *trace.Tracer
	Alerts *obs.AlertEngine
	col    *obs.Collector
}

// Attach wires the selected observers into cfg and returns them. The
// tracer goes on any testbed; the event observers only on one that
// deploys PerfCloud, whose cfg.PerfCloud it edits in place. One
// collector, created only when the trace or the scorecard reads it,
// receives the audit and alert events alongside Out. With nothing
// selected, cfg is left untouched and nothing is allocated.
func (s Observe) Attach(cfg *TestbedConfig) Observers {
	var o Observers
	if s.Trace {
		o.Tracer = trace.NewTracer()
		cfg.Tracer = o.Tracer
	}
	pc := cfg.PerfCloud
	if pc == nil {
		return o
	}
	out := s.Out
	if s.Trace || s.Scorecard {
		o.col = obs.NewCollector()
		out = o.col
		if s.Out != nil {
			out = obs.MultiSink{o.col, s.Out}
		}
	}
	if out != nil {
		pc.Events = out
	}
	if len(s.Rules) > 0 {
		// The engine emits its alert events into the same sinks; it
		// ignores them on input, so it cannot feed back on itself.
		o.Alerts = obs.NewAlertEngine(s.Rules, out)
		pc.Alerts = o.Alerts
	}
	return o
}

// Bind hands tb's ground truth to the alert engine, which arms the
// false-cap watchdog. Call it once the attached testbed is built.
func (o Observers) Bind(tb *Testbed) { o.Alerts.SetGroundTruth(tb.Truth) }

// Events returns the audit and alert events collected so far, in
// emission order (nil without a collector).
func (o Observers) Events() []obs.Event {
	if o.col == nil {
		return nil
	}
	return o.col.Events()
}

// Score grades the run's cap decisions so far against tb's ground truth,
// labelled with scheme.
func (o Observers) Score(tb *Testbed, scheme string) obs.Scorecard {
	sc := obs.Score(o.Events(), tb.Truth, tb.Eng.Clock().Seconds())
	sc.Scheme = scheme
	return sc
}

// WriteTrace writes the run's Perfetto JSON timeline to w, with the
// collected control decisions as instant markers.
func (o Observers) WriteTrace(w io.Writer) error {
	return o.Tracer.WritePerfetto(w, o.Events())
}

// ExportTrace writes the run's Perfetto JSON timeline to a new file at
// path.
func (o Observers) ExportTrace(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	return o.writeAndClose(f)
}

// writeAndClose writes the trace to f and closes it, returning the first
// error of the two: a failed close can lose data the write handed to the
// file.
func (o Observers) writeAndClose(f io.WriteCloser) error {
	err := o.WriteTrace(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// scorecardTable renders a set of cards as one table, skipping nils.
func scorecardTable(title string, cards []*obs.Scorecard) *trace.Table {
	t := trace.New(title,
		"scheme", "antagonists", "detected", "capped VMs", "precision", "recall",
		"false-cap rate", "mean TTD", "cap dwell", "false dwell", "JCT recovery")
	for _, sc := range cards {
		if sc == nil {
			continue
		}
		recovery := ""
		if sc.JCTRecovery > 0 {
			recovery = fmt.Sprintf("%.3f", sc.JCTRecovery)
		}
		t.Addf(sc.Scheme,
			sc.TotalAntagonists,
			sc.DetectedAntagonists,
			sc.CappedVMs,
			fmt.Sprintf("%.3f", sc.Precision),
			fmt.Sprintf("%.3f", sc.Recall),
			fmt.Sprintf("%.3f", sc.FalseCapRate),
			fmt.Sprintf("%.1fs", sc.MeanTimeToDetectSec),
			fmt.Sprintf("%.1fs", sc.CapDwellSec),
			fmt.Sprintf("%.1fs", sc.FalseCapDwellSec),
			recovery)
	}
	return t
}

// alertTable renders per-scheme alert summaries as one table, skipping
// schemes that ran without rules.
func alertTable(title string, schemes []string, sums []*obs.AlertSummary) *trace.Table {
	t := trace.New(title, "scheme", "firings", "resolved", "still active", "rules fired")
	for i, s := range sums {
		if s == nil {
			continue
		}
		active := ""
		if len(s.Active) > 0 {
			active = fmt.Sprintf("%v", s.Active)
		}
		fired := ""
		for _, r := range s.Rules {
			if r.Firings == 0 {
				continue
			}
			if fired != "" {
				fired += " "
			}
			fired += fmt.Sprintf("%s:%d", r.Rule, r.Firings)
		}
		t.Addf(schemes[i], s.Firings, s.Resolved, active, fired)
	}
	return t
}
