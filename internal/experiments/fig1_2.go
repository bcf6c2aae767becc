package experiments

import (
	"perfcloud/internal/trace"
	"perfcloud/internal/workloads"
)

// Fig1Row is one (benchmark, fio-cap) measurement of Figure 1: the
// benchmark's job completion time and fio's throughput, both normalized
// against running alone.
type Fig1Row struct {
	Bench        string
	CapFrac      float64 // fio's static IOPS cap as fraction of solo (0 = uncapped)
	NormJCT      float64 // JCT / JCT-alone
	FioNormIOPS  float64 // fio achieved IOPS / solo IOPS
	JCTSeconds   float64
	AloneSeconds float64
}

// Fig1Result reproduces Figure 1: performance degradation under a
// colocated fio random-read antagonist, swept over static I/O caps.
type Fig1Result struct {
	Rows []Fig1Row
}

// Fig1 runs the sweep for all six benchmarks with fio uncapped, capped
// at 50% and capped at 20% of its solo throughput.
func Fig1(seed int64, opts Options) Fig1Result {
	return fig1Sweep(seed, Benches(), []float64{0, 0.5, 0.2}, opts)
}

// fig1Sweep is Fig1 over a chosen benchmark subset (tests use one
// benchmark to stay fast).
func fig1Sweep(seed int64, benches []Bench, caps []float64, opts Options) Fig1Result {
	var res Fig1Result
	for _, b := range benches {
		alone := benchAlone(seed, b, opts)
		for _, capFrac := range caps {
			tb := smallTestbed(seed, nil, opts)
			fio := workloads.NewFioRandRead(workloads.AlwaysOn)
			tb.AddAntagonist(0, fio)
			if capFrac > 0 {
				tb.CapAntagonistIOPS("fio-randread", capFrac, FioSoloIOPS)
			}
			jct := RunBench(tb, b)
			tb.Close()
			res.Rows = append(res.Rows, Fig1Row{
				Bench:        b.Name,
				CapFrac:      capFrac,
				NormJCT:      jct / alone,
				FioNormIOPS:  fio.AchievedIOPS() / FioSoloIOPS,
				JCTSeconds:   jct,
				AloneSeconds: alone,
			})
		}
	}
	return res
}

// Table renders the Figure 1 sweep.
func (r Fig1Result) Table() *trace.Table {
	t := trace.New("Fig 1: degradation under colocated fio random read (JCT and fio IOPS normalized to running alone)",
		"benchmark", "fio cap", "norm JCT", "fio norm IOPS", "JCT (s)", "alone (s)")
	for _, row := range r.Rows {
		cap := "none"
		if row.CapFrac > 0 {
			cap = trace.Pct(row.CapFrac)
		}
		t.Addf(row.Bench, cap, row.NormJCT, row.FioNormIOPS, row.JCTSeconds, row.AloneSeconds)
	}
	return t
}

// Degradation returns the uncapped normalized JCT for a benchmark
// (Fig. 1c's headline numbers: terasort 1.72x, spark-logreg 1.44x).
func (r Fig1Result) Degradation(bench string) float64 {
	for _, row := range r.Rows {
		if row.Bench == bench && row.CapFrac == 0 {
			return row.NormJCT
		}
	}
	return 0
}

// Fig2Row is one benchmark's degradation under the STREAM antagonists.
type Fig2Row struct {
	Bench   string
	NormJCT float64
}

// Fig2Result reproduces Figure 2: performance degradation due to a
// colocated memory-intensive workload. The paper's observation is that
// Spark benchmarks suffer more than MapReduce ones.
type Fig2Result struct {
	Rows []Fig2Row
}

// Fig2 measures all six benchmarks against two colocated STREAM VMs
// (the paper's group-of-antagonists setting from §III-B).
func Fig2(seed int64, opts Options) Fig2Result {
	return fig2Sweep(seed, Benches(), opts)
}

func fig2Sweep(seed int64, benches []Bench, opts Options) Fig2Result {
	var res Fig2Result
	for _, b := range benches {
		alone := benchAlone(seed, b, opts)
		tb := smallTestbed(seed, nil, opts)
		tb.AddAntagonist(0, workloads.NewStream(workloads.AlwaysOn))
		tb.AddAntagonist(0, workloads.NewStream(workloads.AlwaysOn))
		jct := RunBench(tb, b)
		tb.Close()
		res.Rows = append(res.Rows, Fig2Row{Bench: b.Name, NormJCT: jct / alone})
	}
	return res
}

// Table renders the Figure 2 result.
func (r Fig2Result) Table() *trace.Table {
	t := trace.New("Fig 2: degradation under colocated STREAM (JCT normalized to running alone)",
		"benchmark", "norm JCT")
	for _, row := range r.Rows {
		t.Addf(row.Bench, row.NormJCT)
	}
	return t
}

// MeanNormJCT averages normalized JCT over the given benchmarks.
func (r Fig2Result) MeanNormJCT(sparkOnly bool) float64 {
	var sum float64
	n := 0
	for _, row := range r.Rows {
		isSpark := len(row.Bench) > 5 && row.Bench[:5] == "spark"
		if isSpark != sparkOnly {
			continue
		}
		sum += row.NormJCT
		n++
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}
