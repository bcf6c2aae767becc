package experiments

import (
	"math"
	"time"

	"perfcloud/internal/core"
	"perfcloud/internal/obs"
	"perfcloud/internal/stats"
	"perfcloud/internal/trace"
	"perfcloud/internal/workloads"
)

// This file implements the ablation studies of DESIGN.md §4: each design
// decision in PerfCloud is compared against its obvious alternative on
// the scenario where the difference matters.

// AblationControlRow is one control policy's outcome on the Fig 9
// scenario.
type AblationControlRow struct {
	Policy     string
	JCT        float64
	Decreases  int     // cap-decrease events on the fio controller
	CapStdDev  float64 // std-dev of the applied fio cap while throttled
	FioIOPS    float64
	PeakIowait float64
	// Score grades the policy's cap decisions against ground truth; nil
	// unless Options.Scorecards is set.
	Score *obs.Scorecard
}

// AblationControlResult compares CUBIC (the paper's Eq. 1), AIMD and the
// hand-tuned static cap on the dynamic-control scenario — design
// decision D3. The paper's argument: CUBIC's plateau region avoids the
// oscillation AIMD exhibits around the contention boundary.
type AblationControlResult struct {
	Rows []AblationControlRow
}

// AblationControl runs the three policies, each an independent testbed,
// concurrently (bounded by opts.Parallel).
func AblationControl(seed int64, opts Options) AblationControlResult {
	policies := []string{"cubic", "aimd", "static"}
	rows := make([]AblationControlRow, len(policies))
	opts.forEachRun(len(policies), func(i int) {
		rows[i] = ablationControlRun(seed, policies[i], opts)
	})
	return AblationControlResult{Rows: rows}
}

func ablationControlRun(seed int64, policy string, opts Options) AblationControlRow {
	pc := ControllerConfig()
	switch policy {
	case "aimd":
		pc.NewPolicy = func() core.CapPolicy {
			a := core.NewAIMD(0.8, 0.25, 1)
			a.MinCap = pc.MinCapFraction
			a.MaxCap = pc.ReleaseFactor
			return a
		}
	case "static":
		pc = ObserverConfig()
	}
	// The ablation reports scorecards only: it writes no trace and
	// evaluates no alert rules.
	opts.TraceDir, opts.AlertRules = "", nil
	tb, ob := opts.observedTestbed(TestbedConfig{Seed: seed, WorkersPerServer: fig9Workers, PerfCloud: pc})
	defer tb.Close()
	fio := workloads.NewFioRandRead(workloads.BurstPattern{
		StartOffset: 15 * time.Second, On: 60 * time.Second, Off: 15 * time.Second})
	tb.AddAntagonist(0, fio)
	if policy == "static" {
		tb.CapAntagonistIOPS("fio-randread", 0.2, FioSoloIOPS)
	}
	appCfg := fig9App()
	app := tb.RunSpark(appCfg, fig9Limit)

	row := AblationControlRow{Policy: policy, JCT: app.JCT(), FioIOPS: fio.AchievedIOPS()}
	var caps []float64
	prev := math.Inf(1)
	for _, e := range tb.Sys.Managers()[0].Trace() {
		if e.IowaitDev > row.PeakIowait {
			row.PeakIowait = e.IowaitDev
		}
		if c, ok := e.IOCaps["fio-randread"]; ok {
			caps = append(caps, c)
			if c < prev {
				row.Decreases++
			}
			prev = c
		} else {
			prev = math.Inf(1)
		}
	}
	row.CapStdDev = stats.StdDev(caps)
	_, row.Score, _ = opts.report(ob, tb, "", policy, true)
	return row
}

// Table renders the control-policy ablation.
func (r AblationControlResult) Table() *trace.Table {
	t := trace.New("Ablation D3: cap-control policy on the dynamic-control scenario",
		"policy", "JCT (s)", "cap decreases", "cap stddev", "fio IOPS", "peak iowait dev")
	for _, row := range r.Rows {
		t.Addf(row.Policy, row.JCT, row.Decreases, row.CapStdDev, row.FioIOPS, row.PeakIowait)
	}
	return t
}

// ScorecardTable renders the per-policy detection scorecards (empty
// unless the run had Options.Scorecards set).
func (r AblationControlResult) ScorecardTable() *trace.Table {
	var cards []*obs.Scorecard
	for _, row := range r.Rows {
		cards = append(cards, row.Score)
	}
	return scorecardTable("Ablation D3 scorecards: cap decisions vs ground truth", cards)
}

// Row returns the named policy's row.
func (r AblationControlResult) Row(policy string) AblationControlRow {
	for _, row := range r.Rows {
		if row.Policy == policy {
			return row
		}
	}
	return AblationControlRow{}
}

// AblationPearsonResult compares the paper's missing-as-zero Pearson
// rule against classical pair omission — design decision D2 — on a
// sparse suspect trace: a decoy active in only a few intervals that
// coincidentally align with victim deviation.
type AblationPearsonResult struct {
	MissingAsZero float64 // correlation assigned to the sparse decoy
	OmitMissing   float64
	Threshold     float64
}

// AblationPearson constructs the §III-B situation directly: a decoy
// reports measurements in only 3 of 12 intervals. Within those three its
// values happen to track the victim's — but its activity does not align
// with the victim's actual deviation spikes (it is idle during them).
// Omission computes the correlation over just the three aligned pairs
// and over-emphasises the similarity; the paper's rule counts the idle
// intervals as zero and correctly rejects the decoy.
func AblationPearson(int64) AblationPearsonResult {
	nan := math.NaN()
	victim := []float64{10, 2, 8, 25, 3, 9, 2, 30, 2, 28, 3, 2}
	decoy := []float64{9e6, nan, 7.5e6, nan, nan, 8.5e6, nan, nan, nan, nan, nan, nan}
	mz, err1 := stats.PearsonMissingAsZero(victim, decoy)
	om, err2 := stats.PearsonOmitMissing(victim, decoy)
	if err1 != nil || err2 != nil {
		panic("experiments: ablation pearson inputs invalid")
	}
	return AblationPearsonResult{
		MissingAsZero: mz,
		OmitMissing:   om,
		Threshold:     core.DefaultConfig().CorrThreshold,
	}
}

// Table renders the Pearson-rule ablation.
func (r AblationPearsonResult) Table() *trace.Table {
	t := trace.New("Ablation D2: Pearson missing-value handling on a mostly-idle decoy",
		"rule", "correlation", "flagged?")
	t.Addf("missing-as-zero (paper)", r.MissingAsZero, r.MissingAsZero >= r.Threshold)
	t.Addf("omit-missing (classical)", r.OmitMissing, r.OmitMissing >= r.Threshold)
	return t
}

// AblationDetectorResult compares deviation-based detection (D1) against
// an absolute-threshold detector (flag when the mean iowait ratio
// exceeds a calibrated level) on three scenarios: the application alone,
// with a benign moderate-I/O neighbour (sysbench oltp — it shares the
// disk but causes no meaningful harm), and with the fio antagonist.
// Both detectors are calibrated the same way the paper calibrates H:
// 1.3x the peak value observed with no colocated VM.
type AblationDetectorResult struct {
	// Fractions of victim-active intervals flagged per scenario.
	DevAlone, DevOLTP, DevFio float64
	AbsAlone, AbsOLTP, AbsFio float64
	DevThreshold              float64
	AbsThreshold              float64
}

// AblationDetector runs the three scenarios. The expected outcome: the
// deviation detector ignores the benign neighbour (even work spread
// means even waits), while the absolute detector — whose signal rises
// with any extra load on the device — flags it, forcing unwarranted
// throttling.
func AblationDetector(seed int64, opts Options) AblationDetectorResult {
	run := func(neighbour string) []core.TraceEntry {
		cfg := TestbedConfig{Seed: seed, PerfCloud: ObserverConfig()}
		tb := smallTestbed(seed, &cfg, opts)
		defer tb.Close()
		switch neighbour {
		case "oltp":
			tb.AddAntagonist(0, workloads.NewSysbenchOLTP(workloads.AlwaysOn))
		case "fio":
			tb.AddAntagonist(0, workloads.NewFioRandRead(
				workloads.BurstPattern{StartOffset: 10 * time.Second, On: 20 * time.Second, Off: 10 * time.Second}))
		}
		runBackToBack(tb, Bench{Name: "terasort"}, 2*time.Minute)
		return tb.Sys.Managers()[0].Trace()
	}
	alone := run("none")
	oltp := run("oltp")
	fio := run("fio")

	var res AblationDetectorResult
	var peakDev, peakMean float64
	for _, e := range alone {
		peakDev = math.Max(peakDev, e.IowaitDev)
		peakMean = math.Max(peakMean, e.MeanIowait)
	}
	res.DevThreshold = 1.3 * peakDev
	res.AbsThreshold = 1.3 * peakMean

	frac := func(trace []core.TraceEntry, abs bool) float64 {
		n, hits := 0, 0
		for _, e := range trace {
			if e.MeanIowait == 0 {
				continue // no victim I/O this interval
			}
			n++
			if abs && e.MeanIowait > res.AbsThreshold {
				hits++
			}
			if !abs && e.IowaitDev > res.DevThreshold {
				hits++
			}
		}
		if n == 0 {
			return 0
		}
		return float64(hits) / float64(n)
	}
	res.DevAlone, res.AbsAlone = frac(alone, false), frac(alone, true)
	res.DevOLTP, res.AbsOLTP = frac(oltp, false), frac(oltp, true)
	res.DevFio, res.AbsFio = frac(fio, false), frac(fio, true)
	return res
}

// Table renders the detector ablation.
func (r AblationDetectorResult) Table() *trace.Table {
	t := trace.New("Ablation D1: deviation vs absolute-mean detection (fraction of active intervals flagged; thresholds calibrated at 1.3x alone-peak)",
		"detector", "alone", "benign oltp", "fio antagonist")
	t.Addf("cross-VM deviation (paper)", trace.Pct(r.DevAlone), trace.Pct(r.DevOLTP), trace.Pct(r.DevFio))
	t.Addf("absolute mean threshold", trace.Pct(r.AbsAlone), trace.Pct(r.AbsOLTP), trace.Pct(r.AbsFio))
	return t
}

// AblationEWMAResult compares EWMA-smoothed detection signals (D4, the
// paper's §III-D1 monitor design) against raw 5-second deltas, on the
// terasort scenario alone and with fio.
type AblationEWMAResult struct {
	// Peak iowait deviation when running alone (false-positive risk) and
	// fraction of victim-active intervals flagged with fio (coverage).
	SmoothedAlonePeak float64
	RawAlonePeak      float64
	SmoothedFioFlag   float64
	RawFioFlag        float64
	Threshold         float64
}

// AblationEWMA runs both monitor configurations on both scenarios.
func AblationEWMA(seed int64, opts Options) AblationEWMAResult {
	run := func(alpha float64, withFio bool) (peak, flagged float64) {
		pcfg := core.DefaultConfig()
		pcfg.ObserveOnly = true
		pcfg.EWMAAlpha = alpha
		cfg := TestbedConfig{Seed: seed, PerfCloud: &pcfg}
		tb := smallTestbed(seed, &cfg, opts)
		defer tb.Close()
		if withFio {
			tb.AddAntagonist(0, workloads.NewFioRandRead(
				workloads.BurstPattern{StartOffset: 10 * time.Second, On: 20 * time.Second, Off: 10 * time.Second}))
		}
		runBackToBack(tb, Bench{Name: "terasort"}, 2*time.Minute)
		n, hits := 0, 0
		for _, e := range tb.Sys.Managers()[0].Trace() {
			peak = math.Max(peak, e.IowaitDev)
			if e.MeanIowait > 0 {
				n++
				if e.IOContention {
					hits++
				}
			}
		}
		if n > 0 {
			flagged = float64(hits) / float64(n)
		}
		return peak, flagged
	}
	var res AblationEWMAResult
	res.Threshold = core.DefaultThresholds().Iowait
	res.SmoothedAlonePeak, _ = run(core.DefaultConfig().EWMAAlpha, false)
	res.RawAlonePeak, _ = run(1.0, false)
	_, res.SmoothedFioFlag = run(core.DefaultConfig().EWMAAlpha, true)
	_, res.RawFioFlag = run(1.0, true)
	return res
}

// Table renders the EWMA ablation.
func (r AblationEWMAResult) Table() *trace.Table {
	t := trace.New("Ablation D4: EWMA smoothing of the detection signals (threshold 10)",
		"monitor", "alone peak dev", "fio intervals flagged")
	t.Addf("EWMA-smoothed (paper)", r.SmoothedAlonePeak, trace.Pct(r.SmoothedFioFlag))
	t.Addf("raw 5s deltas", r.RawAlonePeak, trace.Pct(r.RawFioFlag))
	return t
}
