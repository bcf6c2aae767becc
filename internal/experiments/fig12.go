package experiments

import (
	"fmt"
	"time"

	"perfcloud/internal/core"
	"perfcloud/internal/exec"
	"perfcloud/internal/mapreduce"
	"perfcloud/internal/obs"
	"perfcloud/internal/spark"
	"perfcloud/internal/stats"
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
	// Slot wi*stride holds workload wi's interference-free baseline and
	// slot wi*stride+1+si*cfg.Runs+run its run-th repetition of scheme si.
	stride := 1 + len(schemes)*cfg.Runs
	reps := make([]fig12Rep, len(workloads)*stride)
	cfg.Options.forEachRun(len(reps), func(k int) {
		w, i := workloads[k/stride], k%stride
		if i == 0 {
			reps[k] = fig12Run(cfg, cfg.Seed, w, SchemeDefault(), false, fmt.Sprintf("fig12-%s-baseline", w))
			return
		}
		sch, run := schemes[(i-1)/cfg.Runs], (i-1)%cfg.Runs
		reps[k] = fig12Run(cfg, cfg.Seed+int64(run)*997, w, sch, true,
			fmt.Sprintf("fig12-%s-%s-run%02d", w, sch.Name, run))
	})
	var res Fig12Result
	for wi, workload := range workloads {
		base := reps[wi*stride].jct
		for si, sch := range schemes {
			row := Fig12Row{Workload: workload, Scheme: sch.Name}
			var norm []float64
			for _, rep := range reps[wi*stride+1+si*cfg.Runs:][:cfg.Runs] {
				norm = append(norm, rep.jct/base)
				row.Phases.Add(rep.phases)
				row.Score = mergeInto(row.Score, rep.score)
				row.Alerts = mergeInto(row.Alerts, rep.alerts)
			}
			row.Summary = stats.Summarize(norm)
			if row.Score != nil {
				row.Score.Scheme = workload + "/" + sch.Name
				// The mean normalized JCT is Σ(jct/base)/runs, so its
				// reciprocal is the row's aggregate JCT recovery.
				if row.Summary.Mean > 0 {
					row.Score.JCTRecovery = 1 / row.Summary.Mean
				}
			}
			res.Rows = append(res.Rows, row)
		}
	}
	return res
}

// mergeInto folds src into acc and returns the result. The first non-nil
// src is copied, so the repetitions' own values are never mutated.
func mergeInto[T any, P interface {
	*T
	Merge(T)
}](acc, src P) P {
	switch {
	case src == nil:
		return acc
	case acc == nil:
		cp := *src
		return &cp
	}
	acc.Merge(*src)
	return acc
}

// fig12Rep is one repetition's outcome: the logical JCT, the phase
// totals (zero when tracing is off), the detection scorecard (nil when
// scorecards are off) and the alert summary (nil when no rules are
// installed).
type fig12Rep struct {
	jct    float64
	phases trace.PhaseTotals
	score  *obs.Scorecard
	alerts *obs.AlertSummary
}

// fig12Run executes one repetition.
func fig12Run(cfg VariabilityConfig, seed int64, workload string, sch Scheme, antagonists bool, traceName string) fig12Rep {
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

	submit := func() *exec.Job {
		now := tb.Eng.Clock().Seconds()
		var j *exec.Job
		var err error
		if workload == "terasort" {
			j, err = tb.JT.Submit(mapreduce.Terasort("input", cfg.Tasks/5), now)
		} else {
			j, err = tb.Driver.Submit(spark.LogisticRegression(cfg.Tasks, 3, inputBytes), now)
		}
		if err != nil {
			panic(err)
		}
		return j
	}
	var rep fig12Rep
	if sch.Clones <= 1 {
		c := submit()
		if !tb.Stepper().RunUntil(c.Done, cfg.Limit) {
			panic(fmt.Sprintf("experiments: fig12 %s/%s stuck", workload, sch.Name))
		}
		rep.jct = c.JCT()
	} else {
		clones := make([]*exec.Job, 0, sch.Clones)
		for i := 0; i < sch.Clones; i++ {
			clones = append(clones, submit())
		}
		g := tb.Dolly.Watch(workload, clones...)
		if !tb.Stepper().RunUntil(g.Done, cfg.Limit) {
			panic(fmt.Sprintf("experiments: fig12 %s/%s clone race stuck", workload, sch.Name))
		}
		rep.jct = g.JCT()
	}
	rep.phases, rep.score, rep.alerts = cfg.Options.report(ob, tb, traceName, sch.Name, antagonists)
	return rep
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
