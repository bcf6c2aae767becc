package experiments

import (
	"time"

	"perfcloud/internal/stats"
	"perfcloud/internal/trace"
)

// Figure is one experiment of the paper's evaluation as perfbench, the
// benchmarks and the golden tests run it. Its schemes and its -quick
// size are written in its entry of Figures and nowhere else.
type Figure struct {
	Name   string // the perfbench -fig value that selects it
	Suite  bool   // timed by `perfbench -suite` and BenchmarkFigSuite
	Extras Extra  // what Run produces beyond the figure's own tables
	// Run regenerates the figure at seed; quick scales the large-scale
	// experiments down.
	Run func(seed int64, opts Options, quick bool) Output
	// Derive, when set, builds the figure from the Result of the figure
	// named From; RunFigures uses it when From ran earlier in the same
	// pass, so Fig 10 reads the PerfCloud arm of the one Fig 9 run.
	From   string
	Derive func(from any) Output
}

// Extra is a set of outputs a figure produces beyond its own tables when
// asked to; perfbench's flag help names the figures that have each.
type Extra uint8

const (
	// ExtraTimelines: Output.Timelines holds raw time series.
	ExtraTimelines Extra = 1 << iota
	// ExtraTraces: each repetition writes a trace into Options.TraceDir.
	ExtraTraces
	// ExtraScorecards: Options.Scorecards appends a scorecard table.
	ExtraScorecards
	// ExtraAlerts: Options.AlertRules appends an alert table.
	ExtraAlerts
)

// Output is what one figure's run produces: its tables in print order
// (its own, then the scorecard and alert tables that Options.Scorecards
// and Options.AlertRules ask for), the raw time series -timelines
// writes, and the typed result (a Fig…Result, IdentificationResult,
// AblationsResult or ExtensionsResult).
type Output struct {
	Tables    []*trace.Table
	Timelines []Timeline
	Result    any
}

// Timeline is one CSV file of named time-series columns.
type Timeline struct {
	File    string
	Columns []string
	Series  []*stats.TimeSeries
}

// AblationsResult holds the §IV-D ablations that perfbench -fig
// ablations prints.
type AblationsResult struct {
	Detector AblationDetectorResult
	Pearson  AblationPearsonResult
	Control  AblationControlResult
	EWMA     AblationEWMAResult
}

// ExtensionsResult holds the two implemented extensions.
type ExtensionsResult struct {
	Heterogeneous HeteroResult
	Migration     MigrationResult
}

// Figures lists every experiment in print order: Figs 1-7 and 9-12, the
// ablations and the extensions.
func Figures() []Figure {
	fig10 := func(from any) Output {
		r := Fig10(from.(Fig9Result).Arm("perfcloud"))
		out := table(r)
		out.Timelines = []Timeline{{"fig10_caps.csv",
			[]string{"fio_iops_cap", "stream_core_cap"},
			[]*stats.TimeSeries{r.FioCap, r.StreamCap}}}
		return out
	}
	return []Figure{
		{Name: "1", Run: func(seed int64, opts Options, _ bool) Output { return table(Fig1(seed, opts)) }},
		{Name: "2", Run: func(seed int64, opts Options, _ bool) Output { return table(Fig2(seed, opts)) }},
		{Name: "3", Suite: true, Extras: ExtraTimelines, Run: func(seed int64, opts Options, _ bool) Output {
			r := Fig3(seed, opts)
			out := table(r)
			out.Timelines = []Timeline{{"fig3_iowait_deviation.csv",
				[]string{"alone", "with_fio"},
				[]*stats.TimeSeries{r.Alone.Iowait, r.WithFio.Iowait}}}
			return out
		}},
		{Name: "4", Suite: true, Run: func(seed int64, opts Options, _ bool) Output { return table(Fig4(seed, opts)) }},
		{Name: "5", Suite: true, Run: func(seed int64, opts Options, _ bool) Output { return table(Fig5(seed, opts)) }},
		{Name: "6", Suite: true, Run: func(seed int64, opts Options, _ bool) Output { return table(Fig6(seed, opts)) }},
		{Name: "7", Suite: true, Run: func(int64, Options, bool) Output { return table(Fig7()) }},
		{Name: "9", Suite: true, Extras: ExtraTimelines, Run: func(seed int64, opts Options, _ bool) Output {
			r := Fig9(seed, opts)
			def, pc := r.Arm("default"), r.Arm("perfcloud")
			out := table(r)
			out.Timelines = []Timeline{{"fig9_deviations.csv",
				[]string{"default_iowait_dev", "perfcloud_iowait_dev", "default_cpi_dev", "perfcloud_cpi_dev"},
				[]*stats.TimeSeries{def.Iowait, pc.Iowait, def.CPI, pc.CPI}}}
			return out
		}},
		{Name: "10", Suite: true, Extras: ExtraTimelines, From: "9", Derive: fig10,
			Run: func(seed int64, opts Options, _ bool) Output { return fig10(Fig9(seed, opts)) }},
		{Name: "11", Suite: true, Extras: observedExtras, Run: func(seed int64, opts Options, quick bool) Output {
			cfg := DefaultLargeScaleConfig()
			cfg.Seed, cfg.Options = seed, opts
			if quick {
				cfg.Servers, cfg.WorkersPerServer = 5, 8
				cfg.NumMR, cfg.NumSpark = 20, 20
				cfg.Fio, cfg.Streams = 4, 4
			}
			r := Fig11With(cfg, []Scheme{SchemeLATE(), SchemeDolly(2), SchemeDolly(4), SchemeDolly(6), SchemePerfCloud()})
			return observed(opts, r, r.Table(), r.ScorecardTable, r.AlertTable)
		}},
		{Name: "12", Suite: true, Extras: observedExtras, Run: func(seed int64, opts Options, quick bool) Output {
			cfg := DefaultVariabilityConfig()
			cfg.Seed, cfg.Options = seed, opts
			if quick {
				cfg.Servers, cfg.WorkersPerServer = 5, 8
				cfg.Runs, cfg.Tasks = 8, 20
				cfg.Fio, cfg.Streams = 4, 4
			}
			r := Fig12With(cfg, []Scheme{SchemeLATE(), SchemeDolly(2), SchemePerfCloud()})
			return observed(opts, r, r.Table(), r.ScorecardTable, r.AlertTable)
		}},
		{Name: "ablations", Extras: ExtraScorecards, Run: func(seed int64, opts Options, _ bool) Output {
			r := AblationsResult{
				Detector: AblationDetector(seed, opts),
				Pearson:  AblationPearson(seed),
				Control:  AblationControl(seed, opts),
				EWMA:     AblationEWMA(seed, opts),
			}
			tabs := []*trace.Table{r.Detector.Table(), r.Pearson.Table(), r.Control.Table()}
			if opts.Scorecards {
				tabs = append(tabs, r.Control.ScorecardTable())
			}
			return Output{Tables: append(tabs, r.EWMA.Table()), Result: r}
		}},
		{Name: "extensions", Run: func(seed int64, opts Options, _ bool) Output {
			r := ExtensionsResult{Heterogeneous: Heterogeneous(seed, opts), Migration: Migration(seed, opts)}
			return Output{Tables: []*trace.Table{r.Heterogeneous.Table(), r.Migration.Table()}, Result: r}
		}},
	}
}

// RunFigures runs figs in order and hands each one's output and wall
// time to emit, stopping at emit's first error. A figure derived from
// one that ran earlier in the pass reuses that run.
func RunFigures(figs []Figure, seed int64, opts Options, quick bool, emit func(Figure, Output, time.Duration) error) error {
	results := map[string]any{}
	for _, f := range figs {
		t0 := time.Now()
		var out Output
		if from, ok := results[f.From]; ok && f.Derive != nil {
			out = f.Derive(from)
		} else {
			out = f.Run(seed, opts, quick)
		}
		results[f.Name] = out.Result
		if err := emit(f, out, time.Since(t0)); err != nil {
			return err
		}
	}
	return nil
}

// table is the output of a result whose only rendering is its table.
func table[R interface{ Table() *trace.Table }](r R) Output {
	return Output{Tables: []*trace.Table{r.Table()}, Result: r}
}

// observedExtras are the extras of a figure whose every repetition runs
// on an observed testbed and whose Output comes from observed.
const observedExtras = ExtraTraces | ExtraScorecards | ExtraAlerts

// observed is the output of a result whose runs the observers graded:
// its table, then the scorecard and alert tables opts turned on.
func observed(opts Options, r any, tab *trace.Table, scorecards, alerts func() *trace.Table) Output {
	out := Output{Tables: []*trace.Table{tab}, Result: r}
	if opts.Scorecards {
		out.Tables = append(out.Tables, scorecards())
	}
	if len(opts.AlertRules) > 0 {
		out.Tables = append(out.Tables, alerts())
	}
	return out
}
