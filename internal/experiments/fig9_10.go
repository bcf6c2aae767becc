package experiments

import (
	"time"

	"perfcloud/internal/core"
	"perfcloud/internal/spark"
	"perfcloud/internal/stats"
	"perfcloud/internal/trace"
	"perfcloud/internal/workloads"
)

// Fig9Arm is one scheme's outcome in the dynamic-resource-control
// experiment (§IV-B): a Spark logistic regression on a 12-node virtual
// cluster colocated with fio, STREAM, sysbench oltp and sysbench cpu.
type Fig9Arm struct {
	Scheme     string
	JCT        float64
	Iowait     *stats.TimeSeries // victim iowait-ratio deviation over time
	CPI        *stats.TimeSeries // victim CPI deviation over time
	FioIOPS    float64           // fio's achieved IOPS over its active time
	StreamSecs float64           // when STREAM finished its work (0 = never)
	Trace      []core.TraceEntry
}

// Fig9Result holds the three arms: default (no capping), static (20%
// caps, hand-tuned) and PerfCloud (dynamic control).
type Fig9Result struct {
	Arms []Fig9Arm
}

const (
	fig9Workers    = 12
	fig9Tasks      = 40
	fig9Iters      = 20
	fig9InputBytes = 40 * (64 << 20)
	fig9Limit      = time.Hour
	// streamWork is sized so STREAM finishes partway through the run when
	// unthrottled (Fig. 10 notes it "finishes at different times under
	// different schemes").
	streamWork = 2.5e11
)

// fig9Run executes one arm.
func fig9Run(seed int64, scheme string, opts Options) Fig9Arm {
	var pc *core.Config
	switch scheme {
	case "perfcloud":
		pc = ControllerConfig()
	default:
		pc = ObserverConfig()
	}
	tb := opts.newTestbed(TestbedConfig{Seed: seed, WorkersPerServer: fig9Workers, PerfCloud: pc})
	defer tb.Close()

	// Antagonists start after the victim is established (the paper's
	// timeline has throttling begin around t=15 s) — identification
	// correlates each suspect's onset with the deviation it causes.
	fio := workloads.NewFioRandRead(workloads.BurstPattern{
		StartOffset: 15 * time.Second, On: 25 * time.Second, Off: 15 * time.Second})
	stream := workloads.NewStreamWithWork(workloads.BurstPattern{
		StartOffset: 20 * time.Second}, streamWork)
	tb.AddAntagonist(0, fio)
	tb.AddAntagonist(0, stream)
	tb.AddAntagonist(0, workloads.NewSysbenchOLTP(workloads.AlwaysOn))
	tb.AddAntagonist(0, workloads.NewSysbenchCPU(workloads.AlwaysOn))
	if scheme == "static" {
		tb.CapAntagonistIOPS("fio-randread", 0.2, FioSoloIOPS)
		tb.CapAntagonistCPU("stream", 0.2)
	}

	app := tb.RunSpark(fig9App(), fig9Limit)

	arm := Fig9Arm{
		Scheme:  scheme,
		JCT:     app.JCT(),
		Iowait:  stats.NewTimeSeries(),
		CPI:     stats.NewTimeSeries(),
		FioIOPS: fio.AchievedIOPS(),
	}
	if stream.Done() {
		arm.StreamSecs = stream.Elapsed().Seconds()
	}
	nm := tb.Sys.Managers()[0]
	arm.Trace = nm.Trace()
	for _, e := range arm.Trace {
		arm.Iowait.Append(e.TimeSec, e.IowaitDev)
		arm.CPI.Append(e.TimeSec, e.CPIDev)
	}
	return arm
}

// fig9App is the victim application: logistic regression with
// disk-backed shuffle spills. Each iteration reads a modest amount per
// task, so the victim has ongoing block-I/O activity for the iowait
// channel to observe (as the paper's Spark deployment does), while
// staying memory-bandwidth dominated.
func fig9App() spark.AppConfig {
	appCfg := spark.LogisticRegression(fig9Tasks, fig9Iters, fig9InputBytes)
	for i := 1; i < len(appCfg.Stages); i++ {
		appCfg.Stages[i].IOBytesPer = 8 << 20
	}
	return appCfg
}

// Fig9 runs all three arms.
func Fig9(seed int64, opts Options) Fig9Result {
	return Fig9Result{Arms: []Fig9Arm{
		fig9Run(seed, "default", opts),
		fig9Run(seed, "static", opts),
		fig9Run(seed, "perfcloud", opts),
	}}
}

// Arm returns the named arm.
func (r Fig9Result) Arm(scheme string) Fig9Arm {
	for _, a := range r.Arms {
		if a.Scheme == scheme {
			return a
		}
	}
	return Fig9Arm{}
}

// Table renders the Figure 9 summary: deviation peaks (a, b) and the
// normalized JCT comparison (c).
func (r Fig9Result) Table() *trace.Table {
	def := r.Arm("default").JCT
	t := trace.New("Fig 9: dynamic resource control — Spark logreg, 12-node cluster + fio/STREAM/oltp/cpu",
		"scheme", "JCT (s)", "norm JCT", "peak iowait dev", "peak CPI dev", "fio IOPS", "stream done (s)")
	for _, a := range r.Arms {
		t.Addf(a.Scheme, a.JCT, a.JCT/def, a.Iowait.Max(), a.CPI.Max(), a.FioIOPS, a.StreamSecs)
	}
	return t
}

// Fig10Result extracts the per-antagonist cap timelines from the
// PerfCloud arm: the throttle / growth / probe / re-throttle trajectory
// of Figure 10.
type Fig10Result struct {
	FioCap    *stats.TimeSeries // applied IOPS cap over time (NaN = uncapped)
	StreamCap *stats.TimeSeries // applied CPU cap (cores) over time
}

// Fig10 derives the cap timelines from a Fig9 PerfCloud arm.
func Fig10(arm Fig9Arm) Fig10Result {
	res := Fig10Result{FioCap: stats.NewTimeSeries(), StreamCap: stats.NewTimeSeries()}
	for _, e := range arm.Trace {
		if c, ok := e.IOCaps["fio-randread"]; ok {
			res.FioCap.Append(e.TimeSec, c)
		} else {
			res.FioCap.AppendMissing(e.TimeSec)
		}
		if c, ok := e.CPUCaps["stream"]; ok {
			res.StreamCap.Append(e.TimeSec, c)
		} else {
			res.StreamCap.AppendMissing(e.TimeSec)
		}
	}
	return res
}

// ThrottleEpisodes counts contiguous capped periods in a cap series —
// Fig. 10 shows fio being throttled, released, and re-throttled later.
func ThrottleEpisodes(ts *stats.TimeSeries) int {
	episodes := 0
	inEpisode := false
	for _, v := range ts.Values() {
		capped := !isNaN(v)
		if capped && !inEpisode {
			episodes++
		}
		inEpisode = capped
	}
	return episodes
}

func isNaN(v float64) bool { return v != v }

// Table renders the Figure 10 cap timelines.
func (r Fig10Result) Table() *trace.Table {
	t := trace.New("Fig 10: PerfCloud cap timelines (blank = uncapped)",
		"antagonist", "episodes", "min cap", "series")
	t.Addf("fio (IOPS)", ThrottleEpisodes(r.FioCap), minNonMissing(r.FioCap), r.FioCap.Sparkline(40))
	t.Addf("stream (cores)", ThrottleEpisodes(r.StreamCap), minNonMissing(r.StreamCap), r.StreamCap.Sparkline(40))
	return t
}

func minNonMissing(ts *stats.TimeSeries) float64 {
	min := 0.0
	seen := false
	for _, v := range ts.Values() {
		if isNaN(v) {
			continue
		}
		if !seen || v < min {
			min, seen = v, true
		}
	}
	return min
}
