package experiments

import (
	"fmt"
	"time"

	"perfcloud/internal/core"
	"perfcloud/internal/exec"
	"perfcloud/internal/mapreduce"
	"perfcloud/internal/obs"
	"perfcloud/internal/sim"
	"perfcloud/internal/spark"
	"perfcloud/internal/stats"
	"perfcloud/internal/straggler"
	"perfcloud/internal/trace"
	"perfcloud/internal/workloads"
)

// Scheme is one straggler-mitigation / isolation policy under test.
type Scheme struct {
	Name       string
	Speculator exec.Speculator
	Clones     int // >1 enables Dolly-style job cloning
	PerfCloud  bool
}

// cloneTaskThreshold bounds which jobs Dolly clones: Dolly is a small-job
// technique (the paper: "full cloning of small jobs"), so only jobs with
// at most this many tasks get clones.
const cloneTaskThreshold = 10

// SchemeDefault is the unmitigated system.
func SchemeDefault() Scheme { return Scheme{Name: "default", Clones: 1} }

// SchemeLATE applies LATE speculative execution.
func SchemeLATE() Scheme { return Scheme{Name: "LATE", Speculator: straggler.NewLATE(), Clones: 1} }

// SchemeDolly clones every job n times and takes the first finisher.
func SchemeDolly(n int) Scheme { return Scheme{Name: fmt.Sprintf("Dolly-%d", n), Clones: n} }

// SchemePerfCloud deploys the paper's system.
func SchemePerfCloud() Scheme { return Scheme{Name: "PerfCloud", Clones: 1, PerfCloud: true} }

// LargeScaleConfig sizes the Figure 11 experiment.
type LargeScaleConfig struct {
	Seed             int64
	Servers          int
	WorkersPerServer int
	NumMR            int
	NumSpark         int
	Fio              int // fio antagonist VMs, randomly placed
	Streams          int // STREAM antagonist VMs, randomly placed
	InterarrivalSec  float64
	Limit            time.Duration
	// Options configures the runs and their observers.
	Options Options
}

// DefaultLargeScaleConfig mirrors the paper's 152-node / 15-server setup
// with its 100 MapReduce + 100 Spark workload mixes (80% small jobs).
func DefaultLargeScaleConfig() LargeScaleConfig {
	return LargeScaleConfig{
		Seed:             1,
		Servers:          15,
		WorkersPerServer: 10,
		NumMR:            100,
		NumSpark:         100,
		Fio:              6,
		Streams:          6,
		InterarrivalSec:  5,
		Limit:            4 * time.Hour,
	}
}

// jobSpec is one logical job of the mix.
type jobSpec struct {
	idx       int
	spark     bool
	bench     int // index into the framework's benchmark triple
	tasks     int
	arriveSec float64
}

// generateMix derives the deterministic workload mix: 80% of jobs have
// fewer than 10 tasks, 20% have 10-50 (§IV-C).
func generateMix(cfg LargeScaleConfig) []jobSpec {
	rng := sim.NewSeededRand(cfg.Seed + 7)
	var specs []jobSpec
	add := func(n int, spark bool) {
		for i := 0; i < n; i++ {
			tasks := 2 + rng.Intn(8) // 2..9
			if rng.Float64() < 0.2 {
				tasks = 10 + rng.Intn(41) // 10..50
			}
			specs = append(specs, jobSpec{spark: spark, bench: rng.Intn(3), tasks: tasks})
		}
	}
	add(cfg.NumMR, false)
	add(cfg.NumSpark, true)
	rng.Shuffle(len(specs), func(i, j int) { specs[i], specs[j] = specs[j], specs[i] })
	for i := range specs {
		specs[i].idx = i
		specs[i].arriveSec = float64(i) * cfg.InterarrivalSec
	}
	return specs
}

// Mix jobs use large (256 MB) blocks and a compute multiplier for Spark
// iterations so small jobs run tens of seconds, as the paper's real
// Hadoop/Spark jobs do, rather than the few seconds a bare fluid model
// would take. Without realistic durations no scheme — speculation,
// cloning or throttling at a 5-second control interval — has time to act
// within a job's lifetime.
const (
	mixBlockBytes = 256 << 20
	mixWorkScale  = 4
)

// mrFor builds the MapReduce config for a spec (input file per size).
func mrFor(s jobSpec) mapreduce.JobConfig {
	input := fmt.Sprintf("mix-input-%02d", s.tasks)
	reduces := s.tasks / 2
	if reduces < 1 {
		reduces = 1
	}
	switch s.bench {
	case 0:
		return mapreduce.Terasort(input, reduces)
	case 1:
		return mapreduce.Wordcount(input, reduces)
	default:
		return mapreduce.InvertedIndex(input, reduces)
	}
}

// sparkFor builds the Spark config for a spec. The load stage carries a
// per-logical-job input key so clone re-reads hit the page cache.
func sparkFor(s jobSpec) spark.AppConfig {
	bytes := float64(s.tasks) * mixBlockBytes
	var cfg spark.AppConfig
	switch s.bench {
	case 0:
		cfg = spark.LogisticRegression(s.tasks, 2, bytes)
	case 1:
		cfg = spark.PageRank(s.tasks, 2, bytes)
	default:
		cfg = spark.SVM(s.tasks, 2, bytes)
	}
	cfg.Stages[0].InputKeyPrefix = fmt.Sprintf("mix-%03d", s.idx)
	for i := range cfg.Stages {
		cfg.Stages[i].InstrPerTask *= mixWorkScale
	}
	return cfg
}

// logicalJob tracks one mix entry at runtime: its clone group under
// Dolly, else its one job.
type logicalJob struct {
	spec  jobSpec
	group *straggler.CloneGroup
	job   *exec.Job
}

func (l *logicalJob) done() bool {
	if l.group != nil {
		return l.group.Done()
	}
	return l.job.Done()
}

func (l *logicalJob) jct() float64 {
	if l.group != nil {
		return l.group.JCT()
	}
	return l.job.JCT()
}

func (l *logicalJob) account(now float64) exec.Accounting {
	if l.group != nil {
		return l.group.Account(now)
	}
	return l.job.Account(now)
}

// MixOutcome is one scheme's run over the mix.
type MixOutcome struct {
	Scheme     string
	JCTs       []float64 // per logical job, in mix order
	Efficiency float64
	// Phases aggregates per-attempt phase attribution for the run; zero
	// unless Options.TraceDir is set.
	Phases trace.PhaseTotals
	// Score grades the run's cap decisions against ground truth; nil
	// unless Options.Scorecards is set.
	Score *obs.Scorecard
	// Alerts summarises the run's alert-rule activity; nil unless
	// Options.AlertRules is set and the scheme deploys PerfCloud.
	Alerts *obs.AlertSummary
}

// runMix executes the mix under one scheme, optionally with antagonists.
func runMix(cfg LargeScaleConfig, sch Scheme, withAntagonists bool) MixOutcome {
	var pc *core.Config
	if sch.PerfCloud {
		pc = ControllerConfig()
	}
	tb, ob := cfg.Options.observedTestbed(TestbedConfig{
		Seed:             cfg.Seed,
		Servers:          cfg.Servers,
		WorkersPerServer: cfg.WorkersPerServer, BlockBytes: mixBlockBytes,
		Speculator: sch.Speculator,
		PerfCloud:  pc,
	})
	defer tb.Close()
	specs := generateMix(cfg)
	// One input file per distinct map count keeps DFS setup cheap.
	sizes := map[int]bool{}
	for _, s := range specs {
		if !s.spark && !sizes[s.tasks] {
			sizes[s.tasks] = true
			tb.MustInput(fmt.Sprintf("mix-input-%02d", s.tasks), float64(s.tasks)*mixBlockBytes)
		}
	}
	if withAntagonists {
		placeAntagonists(tb, cfg)
	}

	jobs := make([]*logicalJob, len(specs))
	next := 0
	ticks := int64(cfg.Limit / tb.Eng.Clock().TickSize())
	st := tb.Stepper()
	for i := int64(0); i < ticks; {
		now := tb.Eng.Clock().Seconds()
		for next < len(specs) && specs[next].arriveSec <= now {
			jobs[next] = submitLogical(tb, specs[next], sch)
			next++
		}
		i += st.Step(func(clk *sim.Clock) int64 {
			// Strides stop short of the next arrival (its submission tick
			// must execute) and never start once the mix has drained.
			b := ticks - i - 1
			if next < len(specs) {
				if nb := clk.TicksBefore(specs[next].arriveSec, b); nb < b {
					b = nb
				}
			} else if allDone(jobs) {
				return 0
			}
			return b
		})
		if next == len(specs) && allDone(jobs) {
			break
		}
	}
	if !allDone(jobs) {
		panic(fmt.Sprintf("experiments: mix under %s did not drain within %v", sch.Name, cfg.Limit))
	}
	now := tb.Eng.Clock().Seconds()
	out := MixOutcome{Scheme: sch.Name}
	var acc exec.Accounting
	for _, j := range jobs {
		out.JCTs = append(out.JCTs, j.jct())
		a := j.account(now)
		acc.SuccessfulSeconds += a.SuccessfulSeconds
		acc.TotalSeconds += a.TotalSeconds
	}
	out.Efficiency = acc.Efficiency()
	name := "fig11-" + sch.Name
	if !withAntagonists {
		name += "-baseline"
	}
	out.Phases, out.Score, out.Alerts = cfg.Options.report(ob, tb, name, sch.Name, withAntagonists)
	return out
}

// submitLogical submits one mix entry (n clones under Dolly).
func submitLogical(tb *Testbed, s jobSpec, sch Scheme) *logicalJob {
	now := tb.Eng.Clock().Seconds()
	n := sch.Clones
	if n <= 1 || s.tasks > cloneTaskThreshold {
		n = 1
	}
	clones := make([]*exec.Job, n)
	for c := range clones {
		var err error
		if s.spark {
			clones[c], err = tb.Driver.Submit(sparkFor(s), now)
		} else {
			clones[c], err = tb.JT.Submit(mrFor(s), now)
		}
		if err != nil {
			panic(err)
		}
	}
	if n == 1 {
		return &logicalJob{spec: s, job: clones[0]}
	}
	return &logicalJob{spec: s, group: tb.Dolly.Watch(clones...)}
}

func allDone(jobs []*logicalJob) bool {
	for _, j := range jobs {
		if j == nil || !j.done() {
			return false
		}
	}
	return true
}

// placeAntagonists boots the fio and STREAM VMs on randomly chosen
// servers with randomized burst phases (the paper randomly distributes
// antagonists across the 15 physical servers).
func placeAntagonists(tb *Testbed, cfg LargeScaleConfig) {
	// Each antagonist is a sequence of minutes-long benchmark runs with
	// pauses in between, like the fio/STREAM processes the paper launches
	// repeatedly during a mix. Episodic activity also gives the
	// identification channel the onsets it correlates on.
	rng := tb.Eng.RNG().Seeded(cfg.Seed + 31)
	for i := 0; i < cfg.Fio; i++ {
		pat := workloads.BurstPattern{
			StartOffset: time.Duration(rng.Intn(60)) * time.Second,
			On:          time.Duration(60+rng.Intn(60)) * time.Second,
			Off:         time.Duration(15+rng.Intn(20)) * time.Second,
		}
		tb.AddAntagonist(rng.Intn(cfg.Servers), workloads.NewFioRandRead(pat))
	}
	// STREAM VMs land in pairs on a server: one alone does not
	// oversubscribe a host's memory bandwidth — the paper's "group of
	// antagonists that individually do not have much effect" (§III-B).
	for i := 0; i < cfg.Streams; i += 2 {
		srv := rng.Intn(cfg.Servers)
		pat := workloads.BurstPattern{
			StartOffset: time.Duration(rng.Intn(60)) * time.Second,
			On:          time.Duration(60+rng.Intn(60)) * time.Second,
			Off:         time.Duration(15+rng.Intn(20)) * time.Second,
		}
		tb.AddAntagonist(srv, workloads.NewStream(pat))
		if i+1 < cfg.Streams {
			tb.AddAntagonist(srv, workloads.NewStream(pat))
		}
	}
}

// fig11Bounds are the degradation buckets of the paper's breakdown bars.
var fig11Bounds = []float64{0.10, 0.20, 0.30, 0.50}

// Fig11Row is one scheme's summary for one framework ("all" aggregates).
type Fig11Row struct {
	Scheme       string
	Framework    string // "all", "mapreduce" or "spark"
	Buckets      *stats.Histogram
	FracUnder10  float64 // jobs degraded < 10%
	FracUnder30  float64 // jobs degraded < 30%
	MeanDegraded float64 // mean degradation across jobs
	Efficiency   float64 // only populated on the "all" row
	// Phases carries the run's phase-attribution totals (only on the
	// "all" row, and only when a trace directory is set).
	Phases trace.PhaseTotals
	// Score is the scheme's detection scorecard (only on the "all" row,
	// and only with Options.Scorecards).
	Score *obs.Scorecard
	// Alerts is the scheme's alert-rule summary (only on the "all" row,
	// and only with Options.AlertRules).
	Alerts *obs.AlertSummary
}

// Fig11Result reproduces Figure 11: the per-framework job-performance
// breakdowns of Figs. 11(a) and 11(b) and the resource-utilization
// efficiency of Fig. 11(c), under LATE, Dolly-n and PerfCloud.
type Fig11Result struct {
	Rows []Fig11Row
}

// Fig11With runs a custom mix size and scheme list (tests shrink it).
// The interference-free baseline and the per-scheme mixes are independent
// engines, so they run concurrently (bounded by cfg.Options.Parallel),
// each writing its own slot; rows are then assembled in scheme order.
func Fig11With(cfg LargeScaleConfig, schemes []Scheme) Fig11Result {
	outs := make([]MixOutcome, len(schemes)+1)
	cfg.Options.forEachRun(len(outs), func(i int) {
		if i == 0 {
			outs[i] = runMix(cfg, SchemeDefault(), false)
		} else {
			outs[i] = runMix(cfg, schemes[i-1], true)
		}
	})
	baseline := outs[0]
	specs := generateMix(cfg)
	var res Fig11Result
	for si, sch := range schemes {
		out := outs[si+1]
		rows := map[string]*Fig11Row{}
		for _, fw := range []string{"all", "mapreduce", "spark"} {
			rows[fw] = &Fig11Row{
				Scheme:    sch.Name,
				Framework: fw,
				Buckets:   stats.NewHistogram(fig11Bounds...),
			}
		}
		for i, jct := range out.JCTs {
			base := baseline.JCTs[i]
			if base <= 0 {
				continue
			}
			deg := jct/base - 1
			if deg < 0 {
				deg = 0
			}
			fw := "mapreduce"
			if specs[i].spark {
				fw = "spark"
			}
			for _, key := range []string{"all", fw} {
				row := rows[key]
				row.Buckets.Add(deg)
				row.MeanDegraded += deg
			}
		}
		for _, fw := range []string{"all", "mapreduce", "spark"} {
			row := rows[fw]
			if n := row.Buckets.Total(); n > 0 {
				row.MeanDegraded /= float64(n)
				row.FracUnder10 = row.Buckets.CumulativeFrac(0.10)
				row.FracUnder30 = row.Buckets.CumulativeFrac(0.30)
			}
			if fw == "all" {
				row.Efficiency = out.Efficiency
				row.Phases = out.Phases
				if out.Score != nil {
					sc := *out.Score
					// JCT recovery: total interference-free JCT over
					// this scheme's total — 1.0 means the scheme fully
					// recovered the baseline completion times.
					var sumBase, sumScheme float64
					for i, jct := range out.JCTs {
						sumBase += baseline.JCTs[i]
						sumScheme += jct
					}
					if sumScheme > 0 {
						sc.JCTRecovery = sumBase / sumScheme
					}
					row.Score = &sc
				}
				row.Alerts = out.Alerts
			}
			res.Rows = append(res.Rows, *row)
		}
	}
	return res
}

// Table renders the Figure 11 summary: one section per framework (the
// paper's 11a and 11b bars) plus the aggregate with efficiency (11c).
func (r Fig11Result) Table() *trace.Table {
	t := trace.New("Fig 11: large-scale mix — degradation breakdown (a: MapReduce, b: Spark) and efficiency (c)",
		"scheme", "jobs", "<10%", "<20%", "<30%", "<50%", "mean degradation", "efficiency")
	for _, fw := range []string{"mapreduce", "spark", "all"} {
		for _, row := range r.Rows {
			if row.Framework != fw {
				continue
			}
			eff := ""
			if fw == "all" {
				eff = trace.Pct(row.Efficiency)
			}
			t.Addf(row.Scheme+" ("+fw+")",
				row.Buckets.Total(),
				trace.Pct(row.Buckets.CumulativeFrac(0.10)),
				trace.Pct(row.Buckets.CumulativeFrac(0.20)),
				trace.Pct(row.Buckets.CumulativeFrac(0.30)),
				trace.Pct(row.Buckets.CumulativeFrac(0.50)),
				trace.Pct(row.MeanDegraded),
				eff)
		}
	}
	return t
}

// ScorecardTable renders the per-scheme detection scorecards (empty
// unless the run had Options.Scorecards set).
func (r Fig11Result) ScorecardTable() *trace.Table {
	var cards []*obs.Scorecard
	for _, row := range r.Rows {
		if row.Framework == "all" {
			cards = append(cards, row.Score)
		}
	}
	return scorecardTable("Fig 11 scorecards: cap decisions vs ground truth", cards)
}

// AlertTable renders the per-scheme alert summaries (empty unless the
// run had Options.AlertRules set).
func (r Fig11Result) AlertTable() *trace.Table {
	var schemes []string
	var sums []*obs.AlertSummary
	for _, row := range r.Rows {
		if row.Framework == "all" {
			schemes = append(schemes, row.Scheme)
			sums = append(sums, row.Alerts)
		}
	}
	return alertTable("Fig 11 alerts: rule firings per scheme", schemes, sums)
}

// Row returns the named scheme's aggregate ("all") row.
func (r Fig11Result) Row(scheme string) Fig11Row { return r.RowFor(scheme, "all") }

// RowFor returns the row for a scheme and framework ("all", "mapreduce"
// or "spark").
func (r Fig11Result) RowFor(scheme, framework string) Fig11Row {
	for _, row := range r.Rows {
		if row.Scheme == scheme && row.Framework == framework {
			return row
		}
	}
	return Fig11Row{}
}
