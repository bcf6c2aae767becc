package main

import (
	"fmt"
	"sync"
	"time"

	"perfcloud/internal/exec"
	"perfcloud/internal/experiments"
	"perfcloud/internal/straggler"
)

// paperMix is what perfbench -fig 11 runs: 15 servers of 10 workers, 100
// MapReduce and 100 Spark jobs arriving every 5 s, 6 fio and 6 STREAM
// antagonists.
func paperMix() experiments.LargeScaleConfig { return experiments.DefaultLargeScaleConfig() }

// paperVariability is what perfbench -fig 12 runs: a 50-task terasort and
// a 50-task Spark logistic regression, 30 times per scheme on 15 servers
// with randomly placed antagonists.
func paperVariability() experiments.VariabilityConfig { return experiments.DefaultVariabilityConfig() }

// mixRep runs perfbench -fig 11: the job mix interference-free and under
// LATE, Dolly-2/4/6 and PerfCloud, with the program's own run fan-out. The
// figure call is the rep's one operation; its outputs are every row.
func mixRep(cfg experiments.LargeScaleConfig) func(*probe, int64) repOut {
	return func(p *probe, seed int64) repOut {
		cfg := cfg
		cfg.Seed = seed
		var res experiments.Fig11Result
		err := figureCall(p, func() {
			res = experiments.Fig11With(cfg, []experiments.Scheme{
				experiments.SchemeLATE(), experiments.SchemeDolly(2), experiments.SchemeDolly(4),
				experiments.SchemeDolly(6), experiments.SchemePerfCloud(),
			})
		})
		p.stop()
		if err != nil {
			return failed(err)
		}
		d := newDigest()
		for _, row := range res.Rows {
			d.str(row.Scheme)
			d.str(row.Framework)
			d.f64(float64(row.Buckets.Total()), row.MeanDegraded, row.Efficiency)
			for _, b := range []float64{0.1, 0.2, 0.3, 0.5} {
				d.f64(row.Buckets.CumulativeFrac(b))
			}
		}
		return repOut{calls: []call{{digest: d.sum()}}, under30: res.Row("PerfCloud").FracUnder30}
	}
}

// variabilityRep runs perfbench -fig 12 (LATE, Dolly-2, PerfCloud) with the
// program's own run fan-out, except that LATE is serialised by lockedLATE.
// Its outputs are every row's normalised-JCT summary.
func variabilityRep(cfg experiments.VariabilityConfig) func(*probe, int64) repOut {
	return func(p *probe, seed int64) repOut {
		cfg := cfg
		cfg.Seed = seed
		late := experiments.SchemeLATE()
		late.Speculator = &lockedLATE{late: straggler.NewLATE()}
		var res experiments.Fig12Result
		err := figureCall(p, func() {
			res = experiments.Fig12With(cfg, []experiments.Scheme{late, experiments.SchemeDolly(2), experiments.SchemePerfCloud()})
		})
		p.stop()
		if err != nil {
			return failed(err)
		}
		d := newDigest()
		for _, row := range res.Rows {
			s := row.Summary
			d.str(row.Workload)
			d.str(row.Scheme)
			d.f64(float64(s.N), s.Min, s.Q1, s.Median, s.Q3, s.Max, s.Mean, s.StdDev)
		}
		return repOut{calls: []call{{digest: d.sum()}}}
	}
}

// lockedLATE serialises calls into one straggler.LATE. LATE keeps per-call
// scratch in its struct, and Fig12With runs a scheme's repetitions
// concurrently with one shared Speculator, so perfbench's unlocked LATE
// races: its Fig 12 rows then differ from a sequential run, and some calls
// panic (README.md, "Known defect: Fig 12's shared LATE"). The lock makes
// the shared instance safe without changing what it computes.
type lockedLATE struct {
	mu   sync.Mutex
	late *straggler.LATE
}

func (l *lockedLATE) Candidates(ts *exec.TaskSet, nowSec float64) []*exec.Task {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.late.Candidates(ts, nowSec)
}

// figureCall times one figure call and turns a panic into its error.
func figureCall(p *probe, f func()) (err error) {
	t := time.Now()
	defer func() {
		p.addDur("experiments.figure_ms", time.Since(t))
		if x := recover(); x != nil {
			err = fmt.Errorf("figure call panicked: %v", x)
		}
	}()
	f()
	return nil
}
