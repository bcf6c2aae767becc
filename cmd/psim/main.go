// Command psim runs a configurable PerfCloud testbed scenario and prints
// job completions plus a per-interval control summary. It is the
// interactive counterpart of the bench harness: one cluster, one workload
// stream, a chosen mitigation scheme.
//
// Usage:
//
//	psim [-servers N] [-workers N] [-scheme default|late|dolly-2|dolly-4|perfcloud]
//	     [-workload terasort|wordcount|inverted-index|spark-logreg|spark-pagerank|spark-svm]
//	     [-jobs N] [-fio N] [-streams N] [-seed N] [-v] [-trace FILE]
//	     [-phase-report] [-phase-csv] [-scorecard] [-alerts] [-alerts-jsonl FILE]
//
// -trace writes a Chrome-trace-event/Perfetto JSON timeline of every
// task attempt (open it at https://ui.perfetto.dev or chrome://tracing);
// -phase-report prints the per-job phase-attribution and critical-path
// tables; -phase-csv emits the same tables as CSV; -scorecard grades the
// run's cap decisions against the testbed's ground truth (which VMs
// really were antagonists, and when) and prints the detection scorecard.
//
// Settings psim cannot run — no servers, negative counts, an unknown
// scheme or workload — are rejected with a usage error and exit status 2.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"time"

	"perfcloud/internal/core"
	"perfcloud/internal/experiments"
	"perfcloud/internal/mapreduce"
	"perfcloud/internal/obs"
	"perfcloud/internal/spark"
	"perfcloud/internal/straggler"
	"perfcloud/internal/trace"
	"perfcloud/internal/workloads"
)

// schemeNames and workloadNames list the values -scheme and -workload
// accept.
var (
	schemeNames   = []string{"default", "late", "dolly-2", "dolly-4", "perfcloud", "hybrid"}
	workloadNames = []string{"terasort", "wordcount", "inverted-index", "spark-logreg", "spark-pagerank", "spark-svm"}
)

// options are the flag settings validate checks before psim builds
// anything.
type options struct {
	servers, workers, jobs, fio, streams int
	scheme, workload                     string
	alerts                               bool
}

// validate returns a usage error for settings psim cannot run.
func (o options) validate() error {
	switch {
	case o.servers < 1:
		return fmt.Errorf("-servers must be at least 1, got %d", o.servers)
	case o.workers < 0:
		return fmt.Errorf("-workers must not be negative, got %d", o.workers)
	case o.jobs < 0:
		return fmt.Errorf("-jobs must not be negative, got %d", o.jobs)
	case o.fio < 0:
		return fmt.Errorf("-fio must not be negative, got %d", o.fio)
	case o.streams < 0:
		return fmt.Errorf("-streams must not be negative, got %d", o.streams)
	case !slices.Contains(schemeNames, o.scheme):
		return fmt.Errorf("unknown scheme %q", o.scheme)
	case !slices.Contains(workloadNames, o.workload):
		return fmt.Errorf("unknown workload %q", o.workload)
	case o.alerts && o.scheme != "perfcloud" && o.scheme != "hybrid":
		return fmt.Errorf("-alerts needs a scheme that deploys PerfCloud (got %q)", o.scheme)
	}
	return nil
}

func main() {
	servers := flag.Int("servers", 1, "physical servers")
	workers := flag.Int("workers", 6, "worker VMs per server")
	scheme := flag.String("scheme", "perfcloud", "mitigation scheme: default|late|dolly-2|dolly-4|perfcloud|hybrid")
	workload := flag.String("workload", "terasort", "benchmark to run")
	jobs := flag.Int("jobs", 3, "number of jobs to run back-to-back")
	nfio := flag.Int("fio", 1, "fio antagonist VMs")
	nstream := flag.Int("streams", 1, "STREAM antagonist VMs")
	seed := flag.Int64("seed", 42, "random seed")
	verbose := flag.Bool("v", false, "print every control interval")
	traceFile := flag.String("trace", "", "write a Perfetto/chrome-trace JSON timeline to this file")
	phaseReport := flag.Bool("phase-report", false, "print per-job phase attribution and critical path")
	phaseCSV := flag.Bool("phase-csv", false, "emit the phase tables as CSV instead of text")
	scorecard := flag.Bool("scorecard", false, "grade cap decisions against ground truth and print the scorecard")
	alerts := flag.Bool("alerts", false, "evaluate the default alert rules on sim time and print the summary")
	alertsJSONL := flag.String("alerts-jsonl", "", "write the alert event stream as JSONL to this file (implies -alerts)")
	flag.Parse()
	if *alertsJSONL != "" {
		*alerts = true
	}
	opts := options{
		servers: *servers, workers: *workers, jobs: *jobs, fio: *nfio, streams: *nstream,
		scheme: *scheme, workload: *workload, alerts: *alerts,
	}
	if err := opts.validate(); err != nil {
		fmt.Fprintln(os.Stderr, "psim:", err)
		flag.Usage()
		os.Exit(2)
	}

	cfg := experiments.TestbedConfig{
		Seed:             *seed,
		Servers:          *servers,
		WorkersPerServer: *workers,
	}
	var dolly int
	switch *scheme {
	case "default":
	case "late":
		cfg.Speculator = straggler.NewLATE()
	case "dolly-2":
		dolly = 2
	case "dolly-4":
		dolly = 4
	case "perfcloud":
		cfg.PerfCloud = experiments.ControllerConfig()
	case "hybrid":
		cfg.Speculator = straggler.NewLATE()
		cfg.PerfCloud = experiments.ControllerConfig()
	}

	var tr *trace.Tracer
	var col *obs.Collector
	if *traceFile != "" || *phaseReport || *phaseCSV {
		tr = trace.NewTracer()
		cfg.Tracer = tr
	}
	if cfg.PerfCloud != nil && (tr != nil || *scorecard) {
		col = obs.NewCollector()
		cfg.PerfCloud.Events = col
	}

	// The alert engine consumes the control plane's audit stream (wired
	// by core.Attach) and emits its own alert events into a dedicated
	// sink set: the collector (if any) plus the -alerts-jsonl file, which
	// therefore contains only alert events — the byte-compare artifact
	// the alert-smoke CI job diffs across same-seed runs.
	var alertEng *obs.AlertEngine
	var alertFile *os.File
	var alertSink *obs.JSONLSink
	var tbRef *experiments.Testbed // set right after NewTestbed; the fast-path probe closes over it
	if *alerts {
		var out obs.MultiSink
		if col != nil {
			out = append(out, col)
		}
		if *alertsJSONL != "" {
			f, err := os.Create(*alertsJSONL)
			if err != nil {
				fmt.Fprintln(os.Stderr, "psim:", err)
				os.Exit(1)
			}
			alertFile = f
			alertSink = obs.NewJSONLSink(f)
			out = append(out, alertSink)
		}
		alertEng = obs.NewAlertEngine(obs.DefaultRules(obs.DefaultRulesConfig{
			FastPaths: func() obs.FastPathSnapshot {
				if tbRef == nil {
					return obs.FastPathSnapshot{}
				}
				return tbRef.Clus.FastPathStats()
			},
		}), out)
		cfg.PerfCloud.Alerts = alertEng
	}

	tb := experiments.NewTestbed(cfg)
	defer tb.Close()
	tbRef = tb
	alertEng.SetGroundTruth(tb.Truth)
	tb.MustInput("input", 640<<20)
	for i := 0; i < *nfio; i++ {
		tb.AddAntagonist(i%*servers, workloads.NewFioRandRead(
			workloads.BurstPattern{On: 20 * time.Second, Off: 10 * time.Second}))
	}
	for i := 0; i < *nstream; i++ {
		tb.AddAntagonist(i%*servers, workloads.NewStream(
			workloads.BurstPattern{On: 25 * time.Second, Off: 10 * time.Second}))
	}

	spawn := func() straggler.Clone {
		now := tb.Eng.Clock().Seconds()
		switch *workload {
		case "terasort":
			return mustMR(tb.JT.Submit(mapreduce.Terasort("input", 10), now))
		case "wordcount":
			return mustMR(tb.JT.Submit(mapreduce.Wordcount("input", 10), now))
		case "inverted-index":
			return mustMR(tb.JT.Submit(mapreduce.InvertedIndex("input", 10), now))
		case "spark-logreg":
			return mustSpark(tb.Driver.Submit(spark.LogisticRegression(10, 4, 640<<20), now))
		case "spark-pagerank":
			return mustSpark(tb.Driver.Submit(spark.PageRank(10, 3, 640<<20), now))
		case "spark-svm":
			return mustSpark(tb.Driver.Submit(spark.SVM(10, 3, 640<<20), now))
		}
		panic("psim: unvalidated workload " + *workload)
	}

	for i := 0; i < *jobs; i++ {
		var watch func() bool
		if dolly > 1 {
			clones := make([]straggler.Clone, dolly)
			for c := range clones {
				clones[c] = spawn()
			}
			g := tb.Dolly.Watch(fmt.Sprintf("job-%d", i), clones...)
			watch = g.Done
			if !tb.Stepper().RunUntil(watch, time.Hour) {
				fmt.Fprintln(os.Stderr, "psim: job did not finish")
				os.Exit(1)
			}
			fmt.Printf("[%7.1fs] job %d done: JCT %.1fs (winner of %d clones)\n",
				tb.Eng.Clock().Seconds(), i, g.JCT(), dolly)
			continue
		}
		c := spawn()
		if !tb.Stepper().RunUntil(c.Done, time.Hour) {
			fmt.Fprintln(os.Stderr, "psim: job did not finish")
			os.Exit(1)
		}
		fmt.Printf("[%7.1fs] job %d done: JCT %.1fs\n", tb.Eng.Clock().Seconds(), i, c.JCT())
	}

	if tr != nil {
		var events []obs.Event
		if col != nil {
			events = col.Events()
		}
		if *traceFile != "" {
			f, err := os.Create(*traceFile)
			if err == nil {
				err = writeTrace(f, tr, events)
			}
			if err != nil {
				fmt.Fprintln(os.Stderr, "psim:", err)
				os.Exit(1)
			}
			fmt.Printf("trace: %d spans written to %s (open at https://ui.perfetto.dev)\n",
				tr.Len(), *traceFile)
		}
		if *phaseReport || *phaseCSV {
			for _, tab := range []*trace.Table{tr.PhaseReport(), tr.CriticalPathReport()} {
				if *phaseCSV {
					fmt.Print(tab.CSV())
				} else {
					fmt.Println(tab.String())
				}
			}
		}
	}

	if *scorecard {
		var events []obs.Event
		if col != nil {
			events = col.Events()
		}
		sc := obs.Score(events, tb.Truth, tb.Eng.Clock().Seconds())
		sc.Scheme = *scheme
		fmt.Println("scorecard:", sc)
	}

	if *alerts {
		if alertSink != nil {
			if err := alertSink.Flush(); err != nil {
				fmt.Fprintln(os.Stderr, "psim:", err)
				os.Exit(1)
			}
			if err := alertFile.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "psim:", err)
				os.Exit(1)
			}
		}
		fmt.Println("alerts:", alertEng.Summary())
		for _, st := range alertEng.Statuses() {
			fmt.Printf("  %-34s %-8s value %.2f threshold %.2f fired %d\n",
				st.Rule, st.State, st.Value, st.Threshold, st.Firings)
		}
	}

	if tb.Sys != nil {
		tb.Sys.EachManager(func(nm *core.NodeManager) {
			throttles, detections := 0, 0
			for _, e := range nm.Trace() {
				if e.IOContention || e.CPUContention {
					detections++
				}
				if len(e.IOCaps)+len(e.CPUCaps) > 0 {
					throttles++
				}
				if *verbose {
					fmt.Printf("  [%s t=%5.0f] iowaitDev=%.1f cpiDev=%.2f ioAnt=%v cpuAnt=%v\n",
						nm.ServerID(), e.TimeSec, e.IowaitDev, e.CPIDev, e.IOAntagonists, e.CPUAntagonists)
				}
			}
			fmt.Printf("%s: %d control intervals, %d with contention, %d with caps in force\n",
				nm.ServerID(), len(nm.Trace()), detections, throttles)
		})
	}
}

func mustMR(j *mapreduce.Job, err error) straggler.Clone {
	if err != nil {
		fmt.Fprintln(os.Stderr, "psim:", err)
		os.Exit(1)
	}
	return j
}

func mustSpark(a *spark.App, err error) straggler.Clone {
	if err != nil {
		fmt.Fprintln(os.Stderr, "psim:", err)
		os.Exit(1)
	}
	return a
}

// writeTrace writes the run's Perfetto JSON to f and closes it, returning
// the first error of the two: a failed close can lose data the write
// handed to the file.
func writeTrace(f io.WriteCloser, tr *trace.Tracer, events []obs.Event) error {
	err := tr.WritePerfetto(f, events)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
