package experiments

import (
	"strconv"
	"time"

	"perfcloud/internal/core"
	"perfcloud/internal/stats"
	"perfcloud/internal/trace"
	"perfcloud/internal/workloads"
)

// CorrelationByWindow holds one suspect's Pearson coefficient computed
// over growing dataset sizes (the paper's Fig. 5c / Fig. 6c analysis).
type CorrelationByWindow struct {
	Suspect string
	ByN     map[int]float64 // dataset size -> coefficient
}

// IdentificationResult reproduces Figure 5 or 6: per suspect, the
// Pearson correlation of the victim's deviation signal with the
// suspect's activity signal over the first n samples, for each dataset
// size n. A suspect is identified once it crosses Threshold.
type IdentificationResult struct {
	Title     string
	Rows      []CorrelationByWindow
	Windows   []int
	Threshold float64
}

// identificationRun executes an instrumented run and correlates each
// suspect in order; useCPU selects CPI deviation and LLC miss rates
// instead of iowait deviation and I/O throughput.
func identificationRun(seed int64, title string, b Bench, d time.Duration, useCPU bool,
	antagonists func(tb *Testbed), suspects []string, opts Options) IdentificationResult {

	cfg := TestbedConfig{Seed: seed, PerfCloud: ObserverConfig()}
	tb := smallTestbed(seed, &cfg, opts)
	defer tb.Close()
	antagonists(tb)
	runBackToBack(tb, b, d)
	corr := tb.Sys.Managers()[0].Correlator()

	victim := corr.VictimIOSeries()
	if useCPU {
		victim = corr.VictimCPISeries()
	}
	// Skip the warm-up samples: the very first intervals see every VM —
	// victim and decoys alike — ramp up from zero together, a degenerate
	// correlation that says nothing about interference. The paper's
	// "dataset size" counts measurements taken while the system runs.
	const warmup = 2
	out := IdentificationResult{Title: title, Windows: []int{3, 4, 5, 6, 8, 10}, Threshold: core.DefaultConfig().CorrThreshold}
	for _, id := range suspects {
		ss := corr.SuspectIOSeries(id)
		if useCPU {
			ss = corr.SuspectLLCSeries(id)
		}
		if ss == nil {
			continue
		}
		row := CorrelationByWindow{Suspect: id, ByN: make(map[int]float64)}
		for _, n := range out.Windows {
			if victim.Len() < warmup+n || ss.Len() < warmup+n {
				continue
			}
			r, err := stats.PearsonMissingAsZero(
				victim.Values()[warmup:warmup+n], ss.Values()[warmup:warmup+n])
			if err != nil {
				continue
			}
			row.ByN[n] = r
		}
		out.Rows = append(out.Rows, row)
	}
	return out
}

// Fig5 runs the terasort case study from §III-B: identifying the I/O
// antagonist among {fio random read, sysbench oltp, sysbench cpu} by
// correlating each suspect's I/O throughput with the victim's
// iowait-ratio deviation — at dataset sizes as small as 3.
func Fig5(seed int64, opts Options) IdentificationResult {
	return identificationRun(seed, "Fig 5: Pearson correlation of victim iowait deviation vs suspect I/O throughput",
		Bench{Name: "terasort"}, 2*time.Minute, false,
		func(tb *Testbed) {
			tb.AddAntagonist(0, workloads.NewFioRandRead(
				workloads.BurstPattern{StartOffset: 10 * time.Second, On: 20 * time.Second, Off: 10 * time.Second}))
			tb.AddAntagonist(0, workloads.NewSysbenchOLTP(workloads.AlwaysOn))
			tb.AddAntagonist(0, workloads.NewSysbenchCPU(workloads.AlwaysOn))
		},
		[]string{"fio-randread", "sysbench-oltp", "sysbench-cpu"}, opts)
}

// Fig6 runs the Spark logistic-regression case study from §III-B:
// identifying the processor-resource antagonists (two STREAM VMs that
// only jointly cause interference) among decoys, by correlating
// suspects' LLC miss rates with the victim's CPI deviation; missing
// miss-rate samples count as zero. Suspects are listed by name.
func Fig6(seed int64, opts Options) IdentificationResult {
	return identificationRun(seed, "Fig 6: Pearson correlation of victim CPI deviation vs suspect LLC miss rate",
		Bench{Name: "spark-logreg-mem", Spark: true}, 150*time.Second, true,
		func(tb *Testbed) {
			pat := workloads.BurstPattern{StartOffset: 10 * time.Second, On: 25 * time.Second, Off: 10 * time.Second}
			tb.AddAntagonist(0, workloads.NewStream(pat))
			tb.AddAntagonist(0, workloads.NewStream(pat))
			tb.AddAntagonist(0, workloads.NewSysbenchOLTP(workloads.AlwaysOn))
			tb.AddAntagonist(0, workloads.NewSysbenchCPU(workloads.AlwaysOn))
		},
		[]string{"stream", "stream-1", "sysbench-cpu", "sysbench-oltp"}, opts)
}

// Table renders the correlation matrix.
func (r IdentificationResult) Table() *trace.Table {
	headers := []string{"suspect"}
	for _, n := range r.Windows {
		headers = append(headers, "n="+strconv.Itoa(n))
	}
	t := trace.New(r.Title, headers...)
	for _, row := range r.Rows {
		cells := []any{row.Suspect}
		for _, n := range r.Windows {
			if v, ok := row.ByN[n]; ok {
				cells = append(cells, v)
			} else {
				cells = append(cells, "-")
			}
		}
		t.Addf(cells...)
	}
	return t
}

// Identified answers "was this suspect flagged at dataset size n?".
func (r IdentificationResult) Identified(suspect string, n int) bool {
	for _, row := range r.Rows {
		if row.Suspect == suspect {
			return row.ByN[n] >= r.Threshold
		}
	}
	return false
}
