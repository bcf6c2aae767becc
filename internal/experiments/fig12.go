package experiments

import (
	"fmt"
	"time"

	"perfcloud/internal/core"
	"perfcloud/internal/mapreduce"
	"perfcloud/internal/obs"
	"perfcloud/internal/spark"
	"perfcloud/internal/stats"
	"perfcloud/internal/straggler"
	"perfcloud/internal/trace"
)

// VariabilityConfig sizes the Figure 12 experiment: a 50-task terasort
// and a 50-task-per-stage Spark logistic regression, repeated with
// randomly placed antagonists, per scheme.
type VariabilityConfig struct {
	Seed             int64
	Servers          int
	WorkersPerServer int
	Runs             int
	Fio              int
	Streams          int
	Tasks            int
	Limit            time.Duration
	// Options configures the repetitions and their observers.
	Options Options
}

// DefaultVariabilityConfig mirrors the paper: 15 servers, 30 repetitions.
func DefaultVariabilityConfig() VariabilityConfig {
	return VariabilityConfig{
		Seed:             1,
		Servers:          15,
		WorkersPerServer: 10,
		Runs:             30,
		Fio:              8,
		Streams:          8,
		Tasks:            50,
		Limit:            time.Hour,
	}
}

// Fig12Row is one (workload, scheme) distribution of normalized JCTs.
type Fig12Row struct {
	Workload string
	Scheme   string
	Summary  stats.Summary // of JCT normalized by the interference-free JCT
	// Phases sums per-attempt phase attribution across the row's
	// repetitions; zero unless Options.TraceDir is set.
	Phases trace.PhaseTotals
	// Score merges the repetitions' detection scorecards; nil unless
	// Options.Scorecards is set.
	Score *obs.Scorecard
	// Alerts merges the repetitions' alert summaries; nil unless
	// Options.AlertRules is set and the scheme deploys PerfCloud.
	Alerts *obs.AlertSummary
}

// Fig12Result reproduces Figure 12: JCT variability across repeated runs
// with random antagonist placement, per scheme.
type Fig12Result struct {
	Rows []Fig12Row
}

// Fig12With runs a custom size and scheme list. Every repetition is an
// independent engine with its own seed, so the (workload, scheme, run)
// grid — plus the per-workload interference-free baselines — is fanned
// out across goroutines (bounded by cfg.Options.Parallel); each repetition
// writes only its own slot, and rows are assembled afterwards in the same
// deterministic order as the sequential loop.
func Fig12With(cfg VariabilityConfig, schemes []Scheme) Fig12Result {
	workloads := []string{"terasort", "spark-logreg"}
	type job struct{ wi, si, run int } // si < 0 marks the baseline run
	var jobs []job
	base := make([]float64, len(workloads))
	jcts := make([][][]float64, len(workloads))
	phases := make([][][]trace.PhaseTotals, len(workloads))
	scores := make([][][]*obs.Scorecard, len(workloads))
	alerts := make([][][]*obs.AlertSummary, len(workloads))
	for wi := range workloads {
		jobs = append(jobs, job{wi: wi, si: -1})
		jcts[wi] = make([][]float64, len(schemes))
		phases[wi] = make([][]trace.PhaseTotals, len(schemes))
		scores[wi] = make([][]*obs.Scorecard, len(schemes))
		alerts[wi] = make([][]*obs.AlertSummary, len(schemes))
		for si := range schemes {
			jcts[wi][si] = make([]float64, cfg.Runs)
			phases[wi][si] = make([]trace.PhaseTotals, cfg.Runs)
			scores[wi][si] = make([]*obs.Scorecard, cfg.Runs)
			alerts[wi][si] = make([]*obs.AlertSummary, cfg.Runs)
			for run := 0; run < cfg.Runs; run++ {
				jobs = append(jobs, job{wi: wi, si: si, run: run})
			}
		}
	}
	cfg.Options.forEachRun(len(jobs), func(k int) {
		j := jobs[k]
		if j.si < 0 {
			base[j.wi], _, _, _ = fig12Run(cfg, cfg.Seed, workloads[j.wi], SchemeDefault(), false,
				fmt.Sprintf("fig12-%s-baseline", workloads[j.wi]))
			return
		}
		jcts[j.wi][j.si][j.run], phases[j.wi][j.si][j.run], scores[j.wi][j.si][j.run], alerts[j.wi][j.si][j.run] = fig12Run(
			cfg, cfg.Seed+int64(j.run)*997, workloads[j.wi], schemes[j.si], true,
			fmt.Sprintf("fig12-%s-%s-run%02d", workloads[j.wi], schemes[j.si].Name, j.run))
	})
	var res Fig12Result
	for wi, workload := range workloads {
		for si, sch := range schemes {
			var norm []float64
			var pt trace.PhaseTotals
			var merged *obs.Scorecard
			var mergedAlerts *obs.AlertSummary
			for run, jct := range jcts[wi][si] {
				norm = append(norm, jct/base[wi])
				pt.Add(phases[wi][si][run])
				if sc := scores[wi][si][run]; sc != nil {
					if merged == nil {
						cp := *sc
						merged = &cp
					} else {
						merged.Merge(*sc)
					}
				}
				if as := alerts[wi][si][run]; as != nil {
					if mergedAlerts == nil {
						cp := *as
						mergedAlerts = &cp
					} else {
						mergedAlerts.Merge(*as)
					}
				}
			}
			summary := stats.Summarize(norm)
			if merged != nil {
				merged.Scheme = workload + "/" + sch.Name
				// The mean normalized JCT is Σ(jct/base)/runs, so its
				// reciprocal is the row's aggregate JCT recovery.
				if summary.Mean > 0 {
					merged.JCTRecovery = 1 / summary.Mean
				}
			}
			res.Rows = append(res.Rows, Fig12Row{
				Workload: workload,
				Scheme:   sch.Name,
				Summary:  summary,
				Phases:   pt,
				Score:    merged,
				Alerts:   mergedAlerts,
			})
		}
	}
	return res
}

// fig12Run executes one repetition, returning the logical JCT, the
// repetition's phase totals (zero when tracing is off), its detection
// scorecard (nil when scorecards are off) and its alert summary (nil
// when no rules are installed).
func fig12Run(cfg VariabilityConfig, seed int64, workload string, sch Scheme, antagonists bool, traceName string) (float64, trace.PhaseTotals, *obs.Scorecard, *obs.AlertSummary) {
	var pc *core.Config
	if sch.PerfCloud {
		pc = ControllerConfig()
	}
	tb, ob := cfg.Options.observedTestbed(TestbedConfig{
		Seed:             seed,
		Servers:          cfg.Servers,
		WorkersPerServer: cfg.WorkersPerServer,
		Speculator:       sch.Speculator,
		PerfCloud:        pc,
		BlockBytes:       mixBlockBytes,
	})
	defer tb.Close()
	inputBytes := float64(cfg.Tasks) * mixBlockBytes
	tb.MustInput("input", inputBytes)
	if antagonists {
		placeAntagonists(tb, LargeScaleConfig{
			Seed: seed, Servers: cfg.Servers, Fio: cfg.Fio, Streams: cfg.Streams,
		})
	}

	submit := func() straggler.Clone {
		now := tb.Eng.Clock().Seconds()
		if workload == "terasort" {
			j, err := tb.JT.Submit(mapreduce.Terasort("input", cfg.Tasks/5), now)
			if err != nil {
				panic(err)
			}
			return j
		}
		a, err := tb.Driver.Submit(spark.LogisticRegression(cfg.Tasks, 3, inputBytes), now)
		if err != nil {
			panic(err)
		}
		return a
	}
	var jct float64
	if sch.Clones <= 1 {
		c := submit()
		if !tb.Stepper().RunUntil(c.Done, cfg.Limit) {
			panic(fmt.Sprintf("experiments: fig12 %s/%s stuck", workload, sch.Name))
		}
		jct = c.JCT()
	} else {
		clones := make([]straggler.Clone, 0, sch.Clones)
		for i := 0; i < sch.Clones; i++ {
			clones = append(clones, submit())
		}
		g := tb.Dolly.Watch(workload, clones...)
		if !tb.Stepper().RunUntil(g.Done, cfg.Limit) {
			panic(fmt.Sprintf("experiments: fig12 %s/%s clone race stuck", workload, sch.Name))
		}
		jct = g.JCT()
	}
	phases, score, alerts := cfg.Options.report(ob, tb, traceName, sch.Name, antagonists)
	return jct, phases, score, alerts
}

// Table renders the Figure 12 box-plot statistics.
func (r Fig12Result) Table() *trace.Table {
	t := trace.New("Fig 12: normalized JCT variability over repeated runs with random antagonist placement",
		"workload", "scheme", "median", "Q1", "Q3", "IQR", "min", "max")
	for _, row := range r.Rows {
		s := row.Summary
		t.Addf(row.Workload, row.Scheme, s.Median, s.Q1, s.Q3, s.IQR(), s.Min, s.Max)
	}
	return t
}

// ScorecardTable renders the merged per-row detection scorecards (empty
// unless the run had Options.Scorecards set).
func (r Fig12Result) ScorecardTable() *trace.Table {
	var cards []*obs.Scorecard
	for _, row := range r.Rows {
		cards = append(cards, row.Score)
	}
	return scorecardTable("Fig 12 scorecards: cap decisions vs ground truth (merged over repetitions)", cards)
}

// AlertTable renders the merged per-row alert summaries (empty unless
// the run had Options.AlertRules set).
func (r Fig12Result) AlertTable() *trace.Table {
	var schemes []string
	var sums []*obs.AlertSummary
	for _, row := range r.Rows {
		schemes = append(schemes, row.Workload+"/"+row.Scheme)
		sums = append(sums, row.Alerts)
	}
	return alertTable("Fig 12 alerts: rule firings per scheme (merged over repetitions)", schemes, sums)
}

// Row returns the named (workload, scheme) row.
func (r Fig12Result) Row(workload, scheme string) Fig12Row {
	for _, row := range r.Rows {
		if row.Workload == workload && row.Scheme == scheme {
			return row
		}
	}
	return Fig12Row{}
}
