package experiments

import (
	"testing"
	"time"

	"perfcloud/internal/workloads"
)

// The calibration claims the paper's detection properties hold, not just
// at one lucky seed. These tests sweep seeds over the two core detection
// separations and the end-to-end mitigation win.

func TestSeedRobustnessIowaitDetection(t *testing.T) {
	for _, s := range []int64{7, 101, 9001} {
		r := fig3For(s, Bench{Name: "terasort"}, Options{})
		if r.Alone.PeakIowait() > r.Threshold {
			t.Errorf("seed %d: alone peak %v above threshold (false positive)", s, r.Alone.PeakIowait())
		}
		if r.WithFio.PeakIowait() < 2*r.Threshold {
			t.Errorf("seed %d: contended peak %v too low", s, r.WithFio.PeakIowait())
		}
	}
}

func TestSeedRobustnessCPIDetection(t *testing.T) {
	for _, s := range []int64{7, 101, 9001} {
		r := fig4For(s, []Bench{{Name: "spark-logreg", Spark: true}}, Options{})
		row := r.Rows[0]
		if row.PeakAlone > r.Threshold {
			t.Errorf("seed %d: alone CPI dev %v above threshold", s, row.PeakAlone)
		}
		if row.PeakStream < r.Threshold {
			t.Errorf("seed %d: contended CPI dev %v below threshold", s, row.PeakStream)
		}
	}
}

func TestSeedRobustnessIdentification(t *testing.T) {
	for _, s := range []int64{7, 101, 9001} {
		r := Fig5(s, Options{})
		identifiedSomewhere := false
		for _, n := range r.Windows {
			if r.Identified("fio-randread", n) {
				identifiedSomewhere = true
			}
			for _, decoy := range []string{"sysbench-oltp", "sysbench-cpu"} {
				if r.Identified(decoy, n) {
					t.Errorf("seed %d: decoy %s flagged at n=%d", s, decoy, n)
				}
			}
		}
		if !identifiedSomewhere {
			t.Errorf("seed %d: fio never identified", s)
		}
	}
}

func TestSeedRobustnessMitigation(t *testing.T) {
	// PerfCloud must beat the default system on the terasort+fio scenario
	// at every seed, not just the benchmark seed.
	run := func(s int64, pc bool) float64 {
		var cfg TestbedConfig
		if pc {
			cfg.PerfCloud = ControllerConfig()
		}
		tb := smallTestbed(s, &cfg, Options{})
		tb.AddAntagonist(0, workloads.NewFioRandRead(
			workloads.BurstPattern{StartOffset: 10 * time.Second, On: 20 * time.Second, Off: 10 * time.Second}))
		var jcts []float64
		j, err := tb.JT.Submit(mrConfig("terasort"), 0)
		if err != nil {
			t.Fatal(err)
		}
		for tb.Eng.Clock().Seconds() < 180 {
			tb.Eng.Step()
			if j.Done() {
				jcts = append(jcts, j.JCT())
				j, _ = tb.JT.Submit(mrConfig("terasort"), tb.Eng.Clock().Seconds())
			}
		}
		// Mean of the second half: PerfCloud has identified fio by then.
		var sum float64
		half := jcts[len(jcts)/2:]
		for _, v := range half {
			sum += v
		}
		return sum / float64(len(half))
	}
	for _, s := range []int64{7, 101} {
		off := run(s, false)
		on := run(s, true)
		if on >= off {
			t.Errorf("seed %d: PerfCloud JCT %v should beat default %v", s, on, off)
		}
	}
}

// The paper's headline detection claim (§III-A1): interference is
// identified "within a few seconds", in sharp contrast to speculative
// execution which must first watch tasks run. We assert the first
// contention flag lands within three 5-second intervals of fio's onset.
func TestDetectionLatencyWithinSeconds(t *testing.T) {
	const onset = 20.0 // seconds
	cfg := TestbedConfig{Seed: seed, PerfCloud: ObserverConfig()}
	tb := smallTestbed(seed, &cfg, Options{})
	tb.AddAntagonist(0, workloads.NewFioRandRead(
		workloads.BurstPattern{StartOffset: onset * 1e9}))
	runBackToBack(tb, Bench{Name: "terasort"}, time.Minute)

	first := -1.0
	for _, e := range tb.Sys.Managers()[0].Trace() {
		if e.TimeSec > onset && e.IOContention {
			first = e.TimeSec
			break
		}
	}
	if first < 0 {
		t.Fatal("contention never detected")
	}
	if latency := first - onset; latency > 15 {
		t.Errorf("detection latency = %vs, want within three intervals", latency)
	}
}

// Determinism regression: identical seeds must reproduce identical
// results bit-for-bit — the property the per-component RNG streams exist
// to protect.
func TestDeterminismSameSeedSameResults(t *testing.T) {
	run := func() []float64 {
		r := fig1Sweep(77, []Bench{{Name: "terasort"}}, []float64{0, 0.2}, Options{})
		out := []float64{}
		for _, row := range r.Rows {
			out = append(out, row.NormJCT, row.FioNormIOPS)
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("run mismatch at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

// Identification is behavioural, not benchmark-specific: a database VM
// hammering the disk with small random reads is an antagonist no matter
// what it is called, while the same workload at moderate intensity is
// left alone (the D1 ablation's benign neighbour).
func TestAggressiveOLTPIdentifiedAsAntagonist(t *testing.T) {
	cfg := TestbedConfig{Seed: seed, PerfCloud: ControllerConfig()}
	tb := smallTestbed(seed, &cfg, Options{})
	aggressive := workloads.NewBenchmark("oltp-heavy", workloads.Profile{
		CPUCores:        2,
		IOPS:            6000,
		OpBytes:         16384,
		CoreCPI:         1.1,
		LLCRefsPerInstr: 0.02,
		BytesPerInstr:   0.4,
		WorkingSetBytes: 50 << 20,
	}, workloads.BurstPattern{StartOffset: 10 * time.Second, On: 25 * time.Second, Off: 10 * time.Second},
		workloads.Limits{})
	tb.AddAntagonist(0, aggressive)
	runBackToBack(tb, Bench{Name: "terasort"}, 3*time.Minute)

	identified, capped := false, false
	for _, e := range tb.Sys.Managers()[0].Trace() {
		for _, id := range e.IOAntagonists {
			if id == "oltp-heavy" {
				identified = true
			}
		}
		if _, ok := e.IOCaps["oltp-heavy"]; ok {
			capped = true
		}
	}
	if !identified || !capped {
		t.Errorf("aggressive OLTP identified=%v capped=%v, want both", identified, capped)
	}
}

// Known limitation, kept as a pinned negative test: a constant-rate
// antagonist that has been running since before the victim (no onset
// inside the correlation window, never previously identified) produces a
// flat activity series, and Pearson correlation against the victim's
// deviation cannot accuse it. The paper's identification shares this
// blind spot; PerfCloud relies on antagonists having starts, stops or
// bursts. EXPERIMENTS.md documents the consequence.
func TestLimitationConstantAntagonistInvisible(t *testing.T) {
	cfg := TestbedConfig{Seed: seed, PerfCloud: ControllerConfig()}
	tb := smallTestbed(seed, &cfg, Options{})
	tb.AddAntagonist(0, workloads.NewFioRandRead(workloads.AlwaysOn)) // on from t=0, forever
	runBackToBack(tb, Bench{Name: "terasort"}, 2*time.Minute)

	contended, identified := 0, 0
	for _, e := range tb.Sys.Managers()[0].Trace() {
		if e.IOContention {
			contended++
		}
		identified += len(e.IOAntagonists)
	}
	if contended == 0 {
		t.Fatal("contention should still be detected")
	}
	if identified > 2 {
		// If this starts passing identification reliably, the blind spot
		// has been engineered away — update EXPERIMENTS.md accordingly.
		t.Errorf("constant antagonist identified %d times; expected the documented blind spot", identified)
	}
}
