// Command perfbench regenerates every table and figure of the paper's
// motivation and evaluation sections and prints them as aligned tables
// (or CSV). The full suite at paper scale takes a few minutes; pass
// -quick for a scaled-down run, or -fig to select one experiment.
//
// Usage:
//
//	perfbench [-fig all|1|2|3|4|5|6|7|9|10|11|12|ablations|extensions] [-seed N] [-quick]
//	          [-csv] [-timelines DIR] [-parallel N] [-suite] [-suitejson FILE]
//	          [-cpuprofile FILE] [-memprofile FILE] [-fastpaths] [-tracedir DIR]
//	          [-scorecard] [-alerts] [-health]
//
// The figures, their schemes and their -quick sizes are the entries of
// experiments.Figures; -fig takes "all" or an entry's name. Any other
// -fig value, and a negative -parallel, is rejected with a usage error
// and exit status 2.
//
// -timelines writes the raw time series of every figure that has them as
// one CSV file per figure into the directory. Which figures write
// timelines, traces, scorecards and alerts, and which -suite times, is
// what their experiments.Figures entries declare; -h lists them.
//
// -alerts installs the default alert rule pack for every PerfCloud run
// (sustained victim deviation, cap dwell, false-cap watchdog, monitor
// overrun) and appends per-scheme alert tables to the figures that run it;
// like scorecards, alerting is a pure observer and deterministic per
// seed. -health profiles the engine itself — sampled wall-clock phase
// timers, shared-pool contention, runtime/metrics — and prints the
// report on exit; health numbers are wall-clock and intentionally NOT
// deterministic.
//
// -scorecard grades every scheme's cap decisions against the testbed's
// ground-truth antagonist registry and appends a detection scorecard
// table (precision, recall, false-cap rate, time-to-detect, cap dwell,
// JCT recovery) after the tables of the figures that grade decisions.
// Scoring is a pure observer of the audit-event stream: result tables
// are bit-identical with or without it, and scorecards themselves are
// deterministic per seed.
//
// -tracedir enables data-plane tracing for the figures that support it:
// every repetition writes a Perfetto/chrome-trace JSON timeline into the
// directory, and the result rows carry per-phase time attribution.
//
// -parallel bounds run concurrency: how many independent experiment
// repetitions run at once. 0 (the default) uses GOMAXPROCS; 1 forces fully
// sequential execution. Either setting produces bit-for-bit identical
// tables for the same seed. Repetitions draw workers from one shared slot
// pool, so nested fan-outs never oversubscribe the machine.
//
// -suite runs the evaluation suite and records wall-clock
// per-figure timings, merged by name into the JSON file named by
// -suitejson (default BENCH_suite.json, same schema as benchjson output:
// Count 1, NsPerOp = elapsed nanoseconds).
//
// -cpuprofile and -memprofile write pprof profiles of the selected run,
// for inspecting the simulation and monitoring hot loops with
// `go tool pprof`. The heap profile is taken after all experiments
// complete, preceded by a GC so it reflects live retained memory.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"slices"
	"strings"
	"sync"
	"time"

	"perfcloud/internal/benchfmt"
	"perfcloud/internal/cluster"
	"perfcloud/internal/experiments"
	"perfcloud/internal/obs"
	"perfcloud/internal/sim"
	"perfcloud/internal/trace"
)

// errUsage reports a usage error that run has already printed together
// with the usage text; main exits 2 on it.
var errUsage = errors.New("usage error")

// figValues lists the values -fig accepts: all, then every figure of the
// registry in print order.
func figValues() []string {
	names := []string{"all"}
	for _, f := range experiments.Figures() {
		names = append(names, f.Name)
	}
	return names
}

// validate returns a usage error for a -fig or -parallel value perfbench
// cannot run.
func validate(fig string, parallel int) error {
	if parallel < 0 {
		return fmt.Errorf("-parallel must be 0 (GOMAXPROCS) or more; got %d", parallel)
	}
	if names := figValues(); !slices.Contains(names, fig) {
		return fmt.Errorf("-fig must be one of %s; got %q", strings.Join(names, ", "), fig)
	}
	return nil
}

// figList names figures for flag help: "Figs 11, 12, ablations".
func figList(keep func(experiments.Figure) bool) string {
	var names []string
	for _, f := range experiments.Figures() {
		if keep(f) {
			names = append(names, f.Name)
		}
	}
	return "Figs " + strings.Join(names, ", ")
}

// figsWith names the figures that produce the extra x.
func figsWith(x experiments.Extra) string {
	return figList(func(f experiments.Figure) bool { return f.Extras&x != 0 })
}

// selectFigures returns the registry entries a run regenerates: the
// suite's figures under -suite, otherwise the one -fig names, or all.
func selectFigures(fig string, suite bool) []experiments.Figure {
	var figs []experiments.Figure
	for _, f := range experiments.Figures() {
		if suite && f.Suite || !suite && (fig == "all" || fig == f.Name) {
			figs = append(figs, f)
		}
	}
	return figs
}

func main() {
	// Benchmark-harness GC tuning: the experiment suite allocates in
	// short-lived bursts (run setup) and then holds a small steady heap,
	// so the default 100% growth target forces frequent tiny collections.
	// Relaxing it trades a few tens of MB for fewer GC pauses in the
	// timed regions. Simulation results are unaffected — this changes
	// only when memory is reclaimed. GOGC in the environment still wins.
	if os.Getenv("GOGC") == "" {
		debug.SetGCPercent(400)
	}
	err := run(os.Args[1:], os.Stdout, os.Stderr)
	switch {
	case errors.Is(err, errUsage):
		os.Exit(2)
	case err != nil:
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// run parses args, regenerates the selected figures and prints their
// tables to stdout; progress lines and the -fastpaths and -health
// reports go to stderr. A bad flag is reported on stderr with the usage
// text and returned as errUsage.
func run(args []string, stdout, stderr io.Writer) (err error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fig := fs.String("fig", "all", "which figure to regenerate ("+strings.Join(figValues(), ", ")+")")
	seed := fs.Int64("seed", 42, "master random seed")
	quick := fs.Bool("quick", false, "scaled-down large experiments")
	csv := fs.Bool("csv", false, "emit CSV instead of aligned tables")
	timelines := fs.String("timelines", "", "directory to write raw time-series CSVs ("+figsWith(experiments.ExtraTimelines)+")")
	parallel := fs.Int("parallel", 0, "run concurrency: experiment repetitions at once (0 = GOMAXPROCS, 1 = sequential)")
	suite := fs.Bool("suite", false, "run the evaluation suite ("+figList(func(f experiments.Figure) bool { return f.Suite })+") and record per-figure wall-clock timings")
	suitejson := fs.String("suitejson", "BENCH_suite.json", "file to merge -suite timings into")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := fs.String("memprofile", "", "write a heap profile to this file on exit")
	fastpaths := fs.Bool("fastpaths", false, "print the simulation's cumulative fast-path hit-rate counters after the run")
	scorecard := fs.Bool("scorecard", false, "grade each scheme's cap decisions against ground truth and print detection scorecards ("+figsWith(experiments.ExtraScorecards)+")")
	tracedir := fs.String("tracedir", "", "directory to write per-repetition Perfetto traces ("+figsWith(experiments.ExtraTraces)+")")
	alerts := fs.Bool("alerts", false, "evaluate the default alert rules during PerfCloud runs and append alert tables ("+figsWith(experiments.ExtraAlerts)+")")
	health := fs.Bool("health", false, "profile the engine itself (sampled phase timers, pool contention, runtime stats) and print the report")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return errUsage // fs has printed the error and the usage text
	}
	if err := validate(*fig, *parallel); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		fs.Usage()
		return errUsage
	}
	opts := experiments.Options{Parallel: *parallel, TraceDir: *tracedir, Scorecards: *scorecard}
	// -fastpaths remembers the cluster of every testbed the run builds,
	// so their counters can be summed once every experiment has finished.
	var mu sync.Mutex
	var clusters []*cluster.Cluster
	if *fastpaths {
		opts.OnTestbed = func(tb *experiments.Testbed) {
			mu.Lock()
			defer mu.Unlock()
			clusters = append(clusters, tb.Clus)
		}
	}
	for _, dir := range []string{*tracedir, *timelines} {
		if dir == "" {
			continue
		}
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	if *alerts {
		// The signal-only default pack: every rule reads the audit-event
		// stream, so one pack serves every testbed the suite builds.
		opts.AlertRules = obs.DefaultRules(obs.DefaultRulesConfig{})
	}
	var hl *obs.Health
	if *health {
		// Engine self-profiling: wall-clock phase timers on every testbed
		// plus slot-pool contention and runtime/metrics, reported on exit.
		// Explicitly non-deterministic; result tables are unaffected.
		hl = obs.NewHealth(obs.NewRegistry())
		hl.SetPoolStats(func() obs.PoolHealth { return obs.PoolHealth(sim.SharedPool().Stats()) })
		opts.Health = hl
	}
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			if err == nil {
				if err = writeHeapProfile(*memprofile); err == nil {
					fmt.Fprintln(stderr, "perfbench: wrote", *memprofile)
				}
			}
		}()
	}

	var timings []benchfmt.Result
	start := time.Now()
	err = experiments.RunFigures(selectFigures(*fig, *suite), *seed, opts, *quick,
		func(f experiments.Figure, out experiments.Output, took time.Duration) error {
			for _, t := range out.Tables {
				if *csv {
					fmt.Fprint(stdout, t.CSV())
				} else {
					fmt.Fprintln(stdout, t.String())
				}
			}
			if *timelines != "" {
				for _, tl := range out.Timelines {
					path := filepath.Join(*timelines, tl.File)
					if err := os.WriteFile(path, []byte(trace.SeriesCSV(tl.Columns, tl.Series)), 0o644); err != nil {
						return err
					}
					fmt.Fprintln(stderr, "perfbench: wrote", path)
				}
			}
			if *suite {
				timings = append(timings, benchfmt.Result{
					Name: "FigSuite/Fig" + f.Name, Count: 1,
					NsPerOp: float64(took.Nanoseconds()),
				})
			}
			return nil
		})
	if err != nil {
		return err
	}
	elapsed := time.Since(start)
	if *suite {
		timings = append(timings, benchfmt.Result{
			Name: "FigSuite/Total", Count: 1,
			NsPerOp: float64(elapsed.Nanoseconds()),
		})
		prev, err := benchfmt.ReadFile(*suitejson)
		if err == nil {
			err = benchfmt.WriteFile(*suitejson, benchfmt.Merge(prev, timings))
		}
		if err != nil {
			return err
		}
		fmt.Fprintln(stderr, "perfbench: wrote", *suitejson)
	}
	if *fastpaths {
		printFastPaths(stderr, clusters)
	}
	if hl != nil {
		hl.SampleRuntime()
		fmt.Fprint(stderr, "health:\n"+hl.Summary())
	}
	fmt.Fprintf(stderr, "perfbench: done in %v\n", elapsed.Round(time.Millisecond))
	return nil
}

// writeHeapProfile writes a heap profile to path, preceded by a GC so it
// reflects live retained memory.
func writeHeapProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	runtime.GC()
	if err := pprof.WriteHeapProfile(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// printFastPaths reports how much simulation work the fast paths
// absorbed across the given clusters: the share of grant-phase ticks
// skipped (quiescence) or replayed from the last solve (steady reuse),
// the ticks strides elided, and the whole-shard skips. The steady replay
// is the resource models' only reuse of a solve, so the allocator memo
// counters would repeat the reused and rebuilt counts and are not
// printed.
func printFastPaths(w io.Writer, clusters []*cluster.Cluster) {
	var fp obs.FastPathSnapshot
	for _, c := range clusters {
		fp.Add(c.FastPathStats())
	}
	rate := func(hit, miss uint64) float64 {
		if hit+miss == 0 {
			return 0
		}
		return 100 * float64(hit) / float64(hit+miss)
	}
	ticks := fp.QuiescentSkips + fp.SteadyReuses + fp.Rebuilds
	fmt.Fprintf(w, "fastpaths: %d grant-phase ticks: %d skipped (%.1f%%), %d reused (%.1f%%), %d rebuilt\n",
		ticks, fp.QuiescentSkips, rate(fp.QuiescentSkips, fp.SteadyReuses+fp.Rebuilds),
		fp.SteadyReuses, rate(fp.SteadyReuses, fp.QuiescentSkips+fp.Rebuilds), fp.Rebuilds)
	fmt.Fprintf(w, "fastpaths: event-driven strides: %d cluster ticks elided across %d horizons (avg %.1f ticks/stride)\n",
		fp.StrideSkips, fp.HorizonRecomputes,
		float64(fp.StrideSkips)/float64(max(fp.HorizonRecomputes, 1)))
	fmt.Fprintf(w, "fastpaths: sharded ticking: %d whole-shard skips\n", fp.ShardSkips)
}
