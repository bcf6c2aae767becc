package experiments

import (
	"sort"
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

// identificationRun executes an instrumented run and returns, per
// suspect, the correlation of the victim deviation signal with the
// suspect's activity signal over the first n samples, for each n.
func identificationRun(seed int64, b Bench, d time.Duration, useCPU bool,
	antagonists func(tb *Testbed), suspects []string, windows []int, opts Options) []CorrelationByWindow {

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
	var out []CorrelationByWindow
	for _, id := range suspects {
		ss := corr.SuspectIOSeries(id)
		if useCPU {
			ss = corr.SuspectLLCSeries(id)
		}
		if ss == nil {
			continue
		}
		row := CorrelationByWindow{Suspect: id, ByN: make(map[int]float64)}
		for _, n := range windows {
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
		out = append(out, row)
	}
	return out
}

// Fig5Result reproduces Figure 5: identifying the I/O antagonist among
// {fio random read, sysbench oltp, sysbench cpu} colocated with a
// terasort cluster, by correlating each suspect's I/O throughput with
// the victim's iowait-ratio deviation — at dataset sizes as small as 3.
type Fig5Result struct {
	Rows      []CorrelationByWindow
	Windows   []int
	Threshold float64
}

// Fig5 runs the terasort case study from §III-B.
func Fig5(seed int64, opts Options) Fig5Result {
	windows := []int{3, 4, 5, 6, 8, 10}
	rows := identificationRun(seed, Bench{Name: "terasort"}, 2*time.Minute, false,
		func(tb *Testbed) {
			tb.AddAntagonist(0, workloads.NewFioRandRead(
				workloads.BurstPattern{StartOffset: 10 * time.Second, On: 20 * time.Second, Off: 10 * time.Second}))
			tb.AddAntagonist(0, workloads.NewSysbenchOLTP(workloads.AlwaysOn))
			tb.AddAntagonist(0, workloads.NewSysbenchCPU(workloads.AlwaysOn))
		},
		[]string{"fio-randread", "sysbench-oltp", "sysbench-cpu"}, windows, opts)
	return Fig5Result{Rows: rows, Windows: windows, Threshold: core.DefaultConfig().CorrThreshold}
}

// Table renders the Figure 5 correlation matrix.
func (r Fig5Result) Table() *trace.Table {
	headers := []string{"suspect"}
	for _, n := range r.Windows {
		headers = append(headers, "n="+itoa(n))
	}
	t := trace.New("Fig 5: Pearson correlation of victim iowait deviation vs suspect I/O throughput", headers...)
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

// Identified reports whether the suspect crosses the threshold at the
// given dataset size.
func identified(rows []CorrelationByWindow, suspect string, n int, threshold float64) bool {
	for _, row := range rows {
		if row.Suspect == suspect {
			return row.ByN[n] >= threshold
		}
	}
	return false
}

// Identified answers "was this suspect flagged at dataset size n?".
func (r Fig5Result) Identified(suspect string, n int) bool {
	return identified(r.Rows, suspect, n, r.Threshold)
}

// Fig6Result reproduces Figure 6: identifying the processor-resource
// antagonists (two STREAM VMs that only jointly cause interference)
// among decoys, by correlating suspects' LLC miss rates with the
// victim's CPI deviation; missing miss-rate samples count as zero.
type Fig6Result struct {
	Rows      []CorrelationByWindow
	Windows   []int
	Threshold float64
}

// Fig6 runs the Spark logistic-regression case study from §III-B.
func Fig6(seed int64, opts Options) Fig6Result {
	windows := []int{3, 4, 5, 6, 8, 10}
	rows := identificationRun(seed, Bench{Name: "spark-logreg-mem", Spark: true}, 150*time.Second, true,
		func(tb *Testbed) {
			pat := workloads.BurstPattern{StartOffset: 10 * time.Second, On: 25 * time.Second, Off: 10 * time.Second}
			tb.AddAntagonist(0, workloads.NewStream(pat))
			tb.AddAntagonist(0, workloads.NewStream(pat))
			tb.AddAntagonist(0, workloads.NewSysbenchOLTP(workloads.AlwaysOn))
			tb.AddAntagonist(0, workloads.NewSysbenchCPU(workloads.AlwaysOn))
		},
		[]string{"stream", "stream-1", "sysbench-oltp", "sysbench-cpu"}, windows, opts)
	return Fig6Result{Rows: rows, Windows: windows, Threshold: core.DefaultConfig().CorrThreshold}
}

// Table renders the Figure 6 correlation matrix.
func (r Fig6Result) Table() *trace.Table {
	headers := []string{"suspect"}
	for _, n := range r.Windows {
		headers = append(headers, "n="+itoa(n))
	}
	t := trace.New("Fig 6: Pearson correlation of victim CPI deviation vs suspect LLC miss rate", headers...)
	rows := append([]CorrelationByWindow(nil), r.Rows...)
	sort.Slice(rows, func(i, j int) bool { return rows[i].Suspect < rows[j].Suspect })
	for _, row := range rows {
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
func (r Fig6Result) Identified(suspect string, n int) bool {
	return identified(r.Rows, suspect, n, r.Threshold)
}

// itoa is strconv.Itoa without the import noise in table code.
func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [8]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}
