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
// -trace writes a Perfetto JSON timeline of every task attempt (open it
// at https://ui.perfetto.dev); -phase-report prints the per-job phase and
// critical-path tables, -phase-csv as CSV; -scorecard grades the cap
// decisions against ground truth; -alerts-jsonl keeps only alert events.
// experiments.Observe builds these observers, as for perfcloudd and the
// experiments, so one event log feeds the trace, scorecard and alerts.
//
// Settings psim cannot run — no servers, negative counts, an unknown
// scheme or workload — are rejected with a usage error and exit status 2.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"time"

	"perfcloud/internal/core"
	"perfcloud/internal/exec"
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

// options are psim's flag settings.
type options struct {
	servers, workers, jobs, fio, streams              int
	scheme, workload                                  string
	seed                                              int64
	verbose, phaseReport, phaseCSV, scorecard, alerts bool
	traceFile, alertsJSONL                            string
}

// parse binds psim's flags on fs and parses args into options.
func parse(fs *flag.FlagSet, args []string) (options, error) {
	var o options
	fs.IntVar(&o.servers, "servers", 1, "physical servers")
	fs.IntVar(&o.workers, "workers", 6, "worker VMs per server")
	fs.StringVar(&o.scheme, "scheme", "perfcloud", "mitigation scheme: default|late|dolly-2|dolly-4|perfcloud|hybrid")
	fs.StringVar(&o.workload, "workload", "terasort", "benchmark to run")
	fs.IntVar(&o.jobs, "jobs", 3, "number of jobs to run back-to-back")
	fs.IntVar(&o.fio, "fio", 1, "fio antagonist VMs")
	fs.IntVar(&o.streams, "streams", 1, "STREAM antagonist VMs")
	fs.Int64Var(&o.seed, "seed", 42, "random seed")
	fs.BoolVar(&o.verbose, "v", false, "print every control interval")
	fs.StringVar(&o.traceFile, "trace", "", "write a Perfetto/chrome-trace JSON timeline to this file")
	fs.BoolVar(&o.phaseReport, "phase-report", false, "print per-job phase attribution and critical path")
	fs.BoolVar(&o.phaseCSV, "phase-csv", false, "emit the phase tables as CSV instead of text")
	fs.BoolVar(&o.scorecard, "scorecard", false, "grade cap decisions against ground truth and print the scorecard")
	fs.BoolVar(&o.alerts, "alerts", false, "evaluate the default alert rules on sim time and print the summary")
	fs.StringVar(&o.alertsJSONL, "alerts-jsonl", "", "write the alert event stream as JSONL to this file (implies -alerts)")
	err := fs.Parse(args)
	if o.alertsJSONL != "" {
		o.alerts = true
	}
	return o, err
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
	o, _ := parse(flag.CommandLine, os.Args[1:]) // flag.CommandLine exits on a parse error
	if err := o.validate(); err != nil {
		fmt.Fprintln(os.Stderr, "psim:", err)
		flag.Usage()
		os.Exit(2)
	}
	if err := run(o, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "psim:", err)
		os.Exit(1)
	}
}

// alertsOnly forwards only alert events, so the -alerts-jsonl file holds
// the alert stream alone: the byte-compare artifact the alert-smoke CI
// job diffs across same-seed runs.
type alertsOnly struct{ *obs.JSONLSink }

func (s alertsOnly) Emit(e obs.Event) {
	if e.Type == obs.EventAlert {
		s.JSONLSink.Emit(e)
	}
}

// run executes the scenario o describes and prints its report to stdout.
// o must have passed validate.
func run(o options, stdout io.Writer) error {
	cfg := experiments.TestbedConfig{Seed: o.seed, Servers: o.servers, WorkersPerServer: o.workers}
	var dolly int
	switch o.scheme {
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

	sel := experiments.Observe{
		Trace:     o.traceFile != "" || o.phaseReport || o.phaseCSV,
		Scorecard: o.scorecard,
	}
	var tb *experiments.Testbed // built below, before the fast-path rule is first evaluated
	if o.alerts {
		sel.Rules = obs.DefaultRules(obs.DefaultRulesConfig{
			FastPaths: func() obs.FastPathSnapshot { return tb.Clus.FastPathStats() },
		})
	}
	var alertFile *os.File
	var alertLog *obs.JSONLSink
	if o.alertsJSONL != "" {
		f, err := os.Create(o.alertsJSONL)
		if err != nil {
			return err
		}
		defer f.Close() // for error returns; the report below checks Close
		alertFile, alertLog = f, obs.NewJSONLSink(f)
		sel.Out = alertsOnly{alertLog}
	}
	ob := sel.Attach(&cfg)
	tb = experiments.NewTestbed(cfg)
	defer tb.Close()
	ob.Bind(tb)
	tb.MustInput("input", 640<<20)
	for i := 0; i < o.fio; i++ {
		tb.AddAntagonist(i%o.servers, workloads.NewFioRandRead(
			workloads.BurstPattern{On: 20 * time.Second, Off: 10 * time.Second}))
	}
	for i := 0; i < o.streams; i++ {
		tb.AddAntagonist(i%o.servers, workloads.NewStream(
			workloads.BurstPattern{On: 25 * time.Second, Off: 10 * time.Second}))
	}

	spawn := func() (*exec.Job, error) {
		now := tb.Eng.Clock().Seconds()
		switch o.workload {
		case "terasort":
			return tb.JT.Submit(mapreduce.Terasort("input", 10), now)
		case "wordcount":
			return tb.JT.Submit(mapreduce.Wordcount("input", 10), now)
		case "inverted-index":
			return tb.JT.Submit(mapreduce.InvertedIndex("input", 10), now)
		case "spark-logreg":
			return tb.Driver.Submit(spark.LogisticRegression(10, 4, 640<<20), now)
		case "spark-pagerank":
			return tb.Driver.Submit(spark.PageRank(10, 3, 640<<20), now)
		case "spark-svm":
			return tb.Driver.Submit(spark.SVM(10, 3, 640<<20), now)
		}
		panic("psim: unvalidated workload " + o.workload)
	}

	for i := 0; i < o.jobs; i++ {
		if dolly > 1 {
			clones := make([]*exec.Job, dolly)
			for c := range clones {
				var err error
				if clones[c], err = spawn(); err != nil {
					return err
				}
			}
			g := tb.Dolly.Watch(clones...)
			if !tb.Stepper().RunUntil(g.Done, time.Hour) {
				return errors.New("job did not finish")
			}
			fmt.Fprintf(stdout, "[%7.1fs] job %d done: JCT %.1fs (winner of %d clones)\n",
				tb.Eng.Clock().Seconds(), i, g.JCT(), dolly)
			continue
		}
		c, err := spawn()
		if err != nil {
			return err
		}
		if !tb.Stepper().RunUntil(c.Done, time.Hour) {
			return errors.New("job did not finish")
		}
		fmt.Fprintf(stdout, "[%7.1fs] job %d done: JCT %.1fs\n", tb.Eng.Clock().Seconds(), i, c.JCT())
	}

	if o.traceFile != "" {
		if err := ob.ExportTrace(o.traceFile); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "trace: %d spans written to %s (open at https://ui.perfetto.dev)\n",
			ob.Tracer.Len(), o.traceFile)
	}
	if o.phaseReport || o.phaseCSV {
		for _, tab := range []*trace.Table{ob.Tracer.PhaseReport(), ob.Tracer.CriticalPathReport()} {
			if o.phaseCSV {
				fmt.Fprint(stdout, tab.CSV())
			} else {
				fmt.Fprintln(stdout, tab.String())
			}
		}
	}

	if o.scorecard {
		fmt.Fprintln(stdout, "scorecard:", ob.Score(tb, o.scheme))
	}

	if o.alerts {
		if alertLog != nil {
			err := alertLog.Flush()
			if cerr := alertFile.Close(); err == nil {
				err = cerr
			}
			if err != nil {
				return err
			}
		}
		fmt.Fprintln(stdout, "alerts:", ob.Alerts.Summary())
		for _, st := range ob.Alerts.Statuses() {
			fmt.Fprintf(stdout, "  %-34s %-8s value %.2f threshold %.2f fired %d\n",
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
				if o.verbose {
					fmt.Fprintf(stdout, "  [%s t=%5.0f] iowaitDev=%.1f cpiDev=%.2f ioAnt=%v cpuAnt=%v\n",
						nm.ServerID(), e.TimeSec, e.IowaitDev, e.CPIDev, e.IOAntagonists, e.CPUAntagonists)
				}
			}
			fmt.Fprintf(stdout, "%s: %d control intervals, %d with contention, %d with caps in force\n",
				nm.ServerID(), len(nm.Trace()), detections, throttles)
		})
	}
	return nil
}
