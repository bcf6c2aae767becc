package experiments

import (
	"strings"
	"testing"

	"perfcloud/internal/workloads"
)

const seed = 42

func TestFioSoloRate(t *testing.T) {
	// Pin the constant the static-cap arms rely on: fio alone achieves
	// its full demand rate on an idle device.
	tb := NewTestbed(TestbedConfig{Seed: seed})
	fio := workloads.NewFioRandRead(workloads.AlwaysOn)
	tb.AddAntagonist(0, fio)
	tb.Eng.Run(300) // 30 s
	if got := fio.AchievedIOPS(); got < FioSoloIOPS*0.99 || got > FioSoloIOPS*1.01 {
		t.Errorf("fio solo IOPS = %v, want ~%v", got, FioSoloIOPS)
	}
}

func TestFig1TerasortShape(t *testing.T) {
	r := fig1Sweep(seed, []Bench{{Name: "terasort"}}, []float64{0, 0.5, 0.2}, Options{})
	uncapped := r.Rows[0]
	cap50 := r.Rows[1]
	cap20 := r.Rows[2]
	// Paper: fio degrades terasort substantially (72% on their testbed).
	if uncapped.NormJCT < 1.4 {
		t.Errorf("uncapped degradation = %v, want >= 1.4x", uncapped.NormJCT)
	}
	// Tightening the cap monotonically restores the victim.
	if !(cap20.NormJCT < cap50.NormJCT && cap50.NormJCT < uncapped.NormJCT) {
		t.Errorf("degradation not monotone in cap: %v / %v / %v",
			uncapped.NormJCT, cap50.NormJCT, cap20.NormJCT)
	}
	// And costs fio throughput.
	if cap20.FioNormIOPS >= cap50.FioNormIOPS {
		t.Errorf("fio IOPS should fall with its cap: %v vs %v",
			cap20.FioNormIOPS, cap50.FioNormIOPS)
	}
	if r.Degradation("terasort") != uncapped.NormJCT {
		t.Error("Degradation accessor mismatch")
	}
	if !strings.Contains(r.Table().String(), "terasort") {
		t.Error("table rendering")
	}
}

func TestFig1SparkInsensitiveToDeepIOCaps(t *testing.T) {
	// Paper Fig 1b: below a ~20% cap, further fio throttling buys Spark
	// little — disk stops being its bottleneck.
	r := fig1Sweep(seed, []Bench{{Name: "spark-logreg", Spark: true}}, []float64{0, 0.2, 0.05}, Options{})
	cap20 := r.Rows[1].NormJCT
	cap05 := r.Rows[2].NormJCT
	if gain := cap20 - cap05; gain > 0.15 {
		t.Errorf("tightening 20%%->5%% gained %v in norm JCT; Spark should be insensitive", gain)
	}
}

func TestFig2SparkSuffersMoreThanMR(t *testing.T) {
	r := fig2Sweep(seed, []Bench{{Name: "terasort"}, {Name: "spark-logreg", Spark: true}}, Options{})
	mr := r.Rows[0].NormJCT
	sp := r.Rows[1].NormJCT
	if sp < 1.15 {
		t.Errorf("spark degradation under STREAM = %v, want noticeable", sp)
	}
	if sp <= mr {
		t.Errorf("spark (%v) should degrade more than terasort (%v) under STREAM", sp, mr)
	}
	if r.MeanNormJCT(true) != sp || r.MeanNormJCT(false) != mr {
		t.Error("MeanNormJCT accessors")
	}
}

func TestFig3DeviationSeparation(t *testing.T) {
	r := Fig3(seed, Options{})
	if r.Alone.PeakIowait() > r.Threshold {
		t.Errorf("alone peak %v exceeds threshold %v (false positive)",
			r.Alone.PeakIowait(), r.Threshold)
	}
	if r.WithFio.PeakIowait() < 2*r.Threshold {
		t.Errorf("contended peak %v should clearly exceed threshold %v",
			r.WithFio.PeakIowait(), r.Threshold)
	}
	// Paper reports a ~8.2x peak increase; require a strong separation.
	if r.PeakRatio() < 3 {
		t.Errorf("peak ratio = %v, want >= 3", r.PeakRatio())
	}
	if !strings.Contains(r.Table().String(), "peak ratio") {
		t.Error("table rendering")
	}
}

func TestFig4CPIDeviationSeparation(t *testing.T) {
	r := fig4For(seed, []Bench{{Name: "terasort"}, {Name: "spark-logreg", Spark: true}}, Options{})
	for _, row := range r.Rows {
		if row.PeakAlone > r.Threshold {
			t.Errorf("%s alone peak CPI dev %v exceeds threshold", row.Bench, row.PeakAlone)
		}
		if row.PeakStream < r.Threshold {
			t.Errorf("%s contended peak CPI dev %v under threshold", row.Bench, row.PeakStream)
		}
	}
}

func TestFig5IdentifiesFioOnly(t *testing.T) {
	r := Fig5(seed, Options{})
	if !r.Identified("fio-randread", 3) {
		t.Errorf("fio not identified at n=3: %+v", r.Rows)
	}
	for _, decoy := range []string{"sysbench-oltp", "sysbench-cpu"} {
		for _, n := range r.Windows {
			if r.Identified(decoy, n) {
				t.Errorf("decoy %s misidentified at n=%d: %+v", decoy, n, r.Rows)
			}
		}
	}
	if !strings.Contains(r.Table().String(), "fio") {
		t.Error("table rendering")
	}
}

func TestFig6IdentifiesStreamsOnly(t *testing.T) {
	r := Fig6(seed, Options{})
	okAt := func(s string) bool {
		for _, n := range []int{4, 5, 6, 8, 10} {
			if r.Identified(s, n) {
				return true
			}
		}
		return false
	}
	if !okAt("stream") || !okAt("stream-1") {
		t.Errorf("STREAM VMs not identified: %+v", r.Rows)
	}
	for _, decoy := range []string{"sysbench-oltp", "sysbench-cpu"} {
		for _, n := range r.Windows {
			if r.Identified(decoy, n) {
				t.Errorf("decoy %s misidentified at n=%d: %+v", decoy, n, r.Rows)
			}
		}
	}
}

func TestFig7Regions(t *testing.T) {
	r := Fig7()
	vals := r.Caps.Values()
	if len(vals) != 60 {
		t.Fatalf("len = %d", len(vals))
	}
	// K = cbrt(1*0.8/0.005) ~ 5.43 intervals for normalized caps.
	if r.K < 5 || r.K > 6 {
		t.Errorf("K = %v, want ~5.43", r.K)
	}
	// Initial growth is steep: the first interval already recovers more
	// than half the decrease.
	if vals[0] < 0.3 || vals[0] > 0.75 {
		t.Errorf("first growth value = %v, want steep recovery", vals[0])
	}
	k := int(r.K)
	if vals[k-1] < 0.9 || vals[k-1] > 1.1 {
		t.Errorf("cap at K = %v, want ~1 (plateau around Cmax)", vals[k-1])
	}
	if vals[11] < 1.2 {
		t.Errorf("probing cap at 2K = %v, want well above Cmax", vals[11])
	}
	seen := map[string]bool{}
	for _, reg := range r.Regions {
		seen[reg] = true
	}
	if !seen["growth"] || !seen["plateau"] || !seen["probing"] {
		t.Errorf("regions = %v", seen)
	}
	if !strings.Contains(r.Table().String(), "plateau") {
		t.Error("table rendering")
	}
}
