package experiments

import (
	"fmt"
	"path/filepath"

	"perfcloud/internal/obs"
	"perfcloud/internal/sim"
	"perfcloud/internal/trace"
)

// Options configures one experiment call: how many repetitions run at
// once and which observers every testbed it builds carries. It is passed
// explicitly, so two differently configured experiments can run in one
// process at the same time. The zero value runs GOMAXPROCS repetitions
// at once with every observer off.
//
// The observers are pure: with any of them on, every result field that
// does not report an observer is bit-identical to a run without it.
type Options struct {
	// Parallel bounds how many independent repetitions run at once:
	// 0 selects GOMAXPROCS, 1 runs them sequentially. Every setting gives
	// bit-for-bit identical results.
	Parallel int
	// TraceDir, when set, gives every Fig 11/12 repetition a span tracer
	// and writes its Perfetto JSON timeline into the directory, which
	// must exist.
	TraceDir string
	// Scorecards grades every PerfCloud run's cap decisions against the
	// testbed's ground truth (Figs 11 and 12, the control ablation).
	Scorecards bool
	// AlertRules, when non-empty, is evaluated on sim time during every
	// Fig 11/12 run that deploys PerfCloud.
	AlertRules []obs.Rule
	// Health, when non-nil, receives the wall-clock phase timers of every
	// testbed's cluster and node managers. It never touches results.
	Health *obs.Health
	// OnTestbed, when non-nil, is called once for every testbed the
	// experiment builds, after wiring and before it runs. Repetitions
	// build testbeds concurrently, so it must be safe for concurrent
	// calls.
	OnTestbed func(*Testbed)

	// reference builds every testbed on the reference cluster
	// (cluster.NewReference), the oracle the equivalence tests compare
	// whole figures against. Only tests set it.
	reference bool
}

// forEachRun executes fn(i) for i in [0, n), fanning independent
// repetitions out across at most o.Parallel goroutines. Each engine is
// self-contained (own RNG streams, own cluster), so results written to
// index-owned slots are bit-for-bit identical to a sequential loop.
// Workers come from the process-wide shared slot pool, so concurrent
// fan-outs never oversubscribe GOMAXPROCS.
func (o Options) forEachRun(n int, fn func(i int)) {
	sim.ForEachShared(n, sim.Workers(o.Parallel), fn)
}

// newTestbed is how every experiment builds a testbed: on the reference
// cluster when o selects it, with o's health layer on the cluster and the
// node managers, and handed to o's OnTestbed hook once wired.
func (o Options) newTestbed(cfg TestbedConfig) *Testbed {
	cfg.reference = o.reference
	if o.Health != nil && cfg.PerfCloud != nil {
		pc := *cfg.PerfCloud
		pc.Health = o.Health
		cfg.PerfCloud = &pc
	}
	tb := NewTestbed(cfg)
	if o.Health != nil {
		tb.Clus.SetHealth(o.Health)
	}
	if o.OnTestbed != nil {
		o.OnTestbed(tb)
	}
	return tb
}

// observedTestbed builds a run's testbed with the observers o selects:
// TraceDir, Scorecards and AlertRules.
func (o Options) observedTestbed(cfg TestbedConfig) (*Testbed, Observers) {
	ob := Observe{Trace: o.TraceDir != "", Scorecard: o.Scorecards, Rules: o.AlertRules}.Attach(&cfg)
	tb := o.newTestbed(cfg)
	ob.Bind(tb)
	return tb, ob
}

// report ends a run's observation and returns what its observers saw: it
// writes the trace as <TraceDir>/<name>.json and returns its phase
// totals, grades the scorecard of a run with antagonists under the given
// scheme label, and takes the alert summary. Each result is zero (or nil)
// when its observer was off. Like the rest of the harness it panics when
// the trace cannot be written: a bad output path is a setup bug.
func (o Options) report(ob Observers, tb *Testbed, name, scheme string, antagonists bool) (trace.PhaseTotals, *obs.Scorecard, *obs.AlertSummary) {
	var phases trace.PhaseTotals
	if ob.Tracer != nil {
		phases = ob.Tracer.Totals()
		if err := ob.ExportTrace(filepath.Join(o.TraceDir, name+".json")); err != nil {
			panic(fmt.Sprintf("experiments: write trace: %v", err))
		}
	}
	var score *obs.Scorecard
	if o.Scorecards && antagonists {
		sc := ob.Score(tb, scheme)
		score = &sc
	}
	var alerts *obs.AlertSummary
	if ob.Alerts != nil {
		s := ob.Alerts.Summary()
		alerts = &s
	}
	return phases, score, alerts
}
