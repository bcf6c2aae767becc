// Large scale: a 6-server, 48-worker virtual cluster running a mix of
// MapReduce and Spark jobs (80% small, 20% large) with randomly placed
// fio and STREAM antagonists — comparing LATE, Dolly and PerfCloud on
// job degradation and resource-utilization efficiency, the setting of
// the paper's Figure 11 (scaled down so the example runs in seconds).
//
// Run with: go run ./examples/large_scale
//
// The baseline and the four scheme mixes are independent engines, so they
// run concurrently (one per core); pass -parallel 1 to force the fully
// sequential mode — the tables are bit-for-bit identical either way. A
// negative -parallel is rejected with a usage error and exit status 2.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"sync"
	"time"

	"perfcloud/internal/cluster"
	"perfcloud/internal/experiments"
	"perfcloud/internal/obs"
)

func main() {
	parallel := flag.Int("parallel", 0, "run concurrency: scheme mixes at once (0 = GOMAXPROCS, 1 = sequential)")
	flag.Parse()
	if *parallel < 0 {
		fmt.Fprintf(os.Stderr, "large_scale: -parallel must be 0 (GOMAXPROCS) or more; got %d\n", *parallel)
		flag.Usage()
		os.Exit(2)
	}
	workers := *parallel
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}

	cfg := experiments.LargeScaleConfig{
		Seed:             3,
		Servers:          6,
		WorkersPerServer: 8,
		NumMR:            15,
		NumSpark:         15,
		Fio:              3,
		Streams:          3,
		InterarrivalSec:  3,
		Limit:            2 * time.Hour,
	}
	// Remember every mix's cluster, to sum their fast-path counters once
	// the mixes have finished ticking.
	var mu sync.Mutex
	var clusters []*cluster.Cluster
	cfg.Options = experiments.Options{Parallel: *parallel, OnTestbed: func(tb *experiments.Testbed) {
		mu.Lock()
		defer mu.Unlock()
		clusters = append(clusters, tb.Clus)
	}}
	fmt.Printf("== %d servers, %d workers, %d jobs, %d antagonists (%d-way parallel) ==\n",
		cfg.Servers, cfg.Servers*cfg.WorkersPerServer, cfg.NumMR+cfg.NumSpark, cfg.Fio+cfg.Streams, workers)
	res := experiments.Fig11With(cfg, []experiments.Scheme{
		experiments.SchemeLATE(),
		experiments.SchemeDolly(2),
		experiments.SchemeDolly(4),
		experiments.SchemePerfCloud(),
	})
	fmt.Println(res.Table().String())
	fmt.Println("PerfCloud throttles antagonists at their source: no cloned or")
	fmt.Println("speculative work, so its efficiency stays at ~100% while Dolly's")
	fmt.Println("falls with every extra clone.")

	// The mixes advance through the event-driven stepper: whenever every
	// framework is between scheduling decisions the simulation replays the
	// resource pipeline in variable-length strides instead of full engine
	// ticks. Report how much of the simulated time that covered.
	var fp obs.FastPathSnapshot
	for _, c := range clusters {
		fp.Add(c.FastPathStats())
	}
	grant := fp.QuiescentSkips + fp.SteadyReuses + fp.Rebuilds
	if ticks := grant / uint64(cfg.Servers); ticks > 0 { // grant phases are per server
		fmt.Printf("\nstride stepping: %d of %d cluster ticks elided (%.1f%%), avg %.1f ticks per stride\n",
			fp.StrideSkips, ticks, 100*float64(fp.StrideSkips)/float64(ticks),
			float64(fp.StrideSkips)/float64(max(fp.HorizonRecomputes, 1)))
	}
}
