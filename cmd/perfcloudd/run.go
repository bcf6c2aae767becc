package main

import (
	"fmt"
	"io"
	"sort"
	"time"

	"perfcloud/internal/cluster"
	"perfcloud/internal/core"
	"perfcloud/internal/experiments"
	"perfcloud/internal/mapreduce"
	"perfcloud/internal/obs"
	"perfcloud/internal/sim"
	"perfcloud/internal/workloads"
)

// runConfig parameterises one perfcloudd run. Metrics is an optional
// observability hook (nil = off); Log receives the human console lines.
type runConfig struct {
	Duration time.Duration
	Seed     int64
	Metrics  *obs.Registry
	Log      io.Writer
	// Observe selects the run's tracer, audit-event collector and alert
	// engine; its Out receives the audit log (JSONL file, HTTP ring).
	Observe experiments.Observe
	// Series, when non-nil, receives the daemon's time series: per-
	// interval deviation signals and the throttle footprint, stamped
	// with exact simulation timestamps (the /debug/series endpoint
	// serves them with delta-scrape and downsampling).
	Series *obs.SeriesRegistry
	// OnInterval, when non-nil, is called after every control interval
	// with the cluster's cumulative fast-path snapshot — the hook the
	// /debug/fastpaths endpoint reads through.
	OnInterval func(obs.FastPathSnapshot)
	// OnScore, when non-nil, selects the scorecard and receives it when
	// the run ends: the cap decisions graded against the testbed's
	// ground-truth antagonist registry.
	OnScore func(obs.Scorecard)
	// OnAlerts, when non-nil, is called after every control interval with
	// the rules' live statuses and running summary — the hook the
	// /debug/alerts endpoint reads through.
	OnAlerts func([]obs.AlertStatus, obs.AlertSummary)
	// Health, when non-nil, attaches the wall-clock self-profiling layer
	// (cluster/monitor phase timers, shard imbalance, runtime/metrics) —
	// explicitly non-deterministic, served on /debug/health, never part
	// of the event stream.
	Health *obs.Health
}

// scenario builds the canonical perfcloudd testbed: one server hosting a
// six-VM high-priority Hadoop cluster, plus a bursty fio-randread
// antagonist and two decoys.
func scenario(cfg experiments.TestbedConfig) *experiments.Testbed {
	tb := experiments.NewTestbed(cfg)
	tb.MustInput("input", 640<<20)
	tb.AddAntagonist(0, workloads.NewFioRandRead(
		workloads.BurstPattern{StartOffset: 10 * time.Second, On: 20 * time.Second, Off: 10 * time.Second}))
	tb.AddAntagonist(0, workloads.NewSysbenchOLTP(workloads.AlwaysOn))
	tb.AddAntagonist(0, workloads.NewSysbenchCPU(workloads.AlwaysOn))
	return tb
}

// run executes the canonical perfcloudd scenario, back-to-back terasort
// jobs managed by the PerfCloud agent, and returns the observers it
// attached for the caller to export. The whole loop is sequential, so
// with a given Seed the emitted event stream is byte-identical across
// runs (asserted by TestSameSeedRunsProduceIdenticalEventStreams).
func run(cfg runConfig) (experiments.Observers, error) {
	if cfg.Log == nil {
		cfg.Log = io.Discard
	}
	ctl := experiments.ControllerConfig()
	ctl.Metrics = cfg.Metrics
	ctl.Health = cfg.Health
	tcfg := experiments.TestbedConfig{Seed: cfg.Seed, PerfCloud: ctl}
	cfg.Observe.Scorecard = cfg.Observe.Scorecard || cfg.OnScore != nil
	ob := cfg.Observe.Attach(&tcfg)
	events, alertEng := ctl.Events, ob.Alerts
	tb := scenario(tcfg)
	defer tb.Close()
	ob.Bind(tb)

	fmt.Fprintln(cfg.Log, "perfcloudd: node manager online (server-0), monitoring interval 5s")
	fmt.Fprintln(cfg.Log, "perfcloudd: high-priority app 'hadoop' (6 VMs); low-priority: fio-randread, sysbench-oltp, sysbench-cpu")

	// Daemon-level instruments: the throttle footprint plus the
	// simulation's fast-path accounting, refreshed every control interval.
	gCapped := cfg.Metrics.Gauge("perfcloud_capped_vms",
		"VMs with any cgroup limit in force.")
	gSkips := cfg.Metrics.Gauge("perfcloud_fastpath_quiescent_skips",
		"Grant-phase ticks elided because the server was quiescent.")
	gSteady := cfg.Metrics.Gauge("perfcloud_fastpath_steady_reuses",
		"Grant phases that reused the previous demand vectors.")
	gRebuilds := cfg.Metrics.Gauge("perfcloud_fastpath_rebuilds",
		"Grant phases that rebuilt the demand vectors.")
	gStrides := cfg.Metrics.Gauge("perfcloud_fastpath_stride_skips",
		"Whole-cluster ticks elided by event-driven strides.")
	gHorizons := cfg.Metrics.Gauge("perfcloud_fastpath_horizon_recomputes",
		"Next-event horizon computations backing the strides.")
	gShardSkips := cfg.Metrics.Gauge("perfcloud_fastpath_shard_skips",
		"Whole-shard ticks elided by the sharded tick.")
	memoHits := [3]*obs.Gauge{}
	memoMisses := [3]*obs.Gauge{}
	for i, res := range []string{"cpu", "mem", "disk"} {
		l := obs.Label{Key: "res", Value: res}
		memoHits[i] = cfg.Metrics.Gauge("perfcloud_alloc_memo_hits",
			"Allocator solves replayed by the steady replay (equals steady reuses).", l)
		memoMisses[i] = cfg.Metrics.Gauge("perfcloud_alloc_memo_misses",
			"Allocator full solves (equals rebuilds).", l)
	}

	// Daemon time series. Throttle footprint is sampled at observe time;
	// the deviation signals are appended from the node manager's trace
	// entries below, so each point carries the control interval's exact
	// simulation timestamp even when strides elided the ticks between.
	sCapped := cfg.Series.Series("capped_vms")
	sIowait := cfg.Series.Series("dev_iowait", obs.Label{Key: "server", Value: "server-0"})
	sCPI := cfg.Series.Series("dev_cpi", obs.Label{Key: "server", Value: "server-0"})

	interval := ctl.IntervalSec
	observe := func(now float64) {
		fp := tb.Clus.FastPathStats()
		gSkips.Set(float64(fp.QuiescentSkips))
		gSteady.Set(float64(fp.SteadyReuses))
		gRebuilds.Set(float64(fp.Rebuilds))
		gStrides.Set(float64(fp.StrideSkips))
		gHorizons.Set(float64(fp.HorizonRecomputes))
		gShardSkips.Set(float64(fp.ShardSkips))
		hits := [3]uint64{fp.CPUMemoHits, fp.MemMemoHits, fp.DiskMemoHits}
		misses := [3]uint64{fp.CPUMemoMisses, fp.MemMemoMisses, fp.DiskMemoMisses}
		for i := range hits {
			memoHits[i].Set(float64(hits[i]))
			memoMisses[i].Set(float64(misses[i]))
		}
		capped := 0
		tb.Clus.EachVM(func(vm *cluster.VM) {
			if vm.Cgroup().Throttle().Active() {
				capped++
			}
		})
		gCapped.Set(float64(capped))
		sCapped.Append(now, float64(capped))
		if events != nil {
			events.Emit(obs.Event{T: now, Type: obs.EventFastPaths, Fast: &fp})
		}
		if cfg.OnInterval != nil {
			cfg.OnInterval(fp)
		}
		if alertEng != nil && cfg.OnAlerts != nil {
			cfg.OnAlerts(alertEng.Statuses(), alertEng.Summary())
		}
		if cfg.Health != nil {
			// Wall-clock self-profiling refresh: shard load imbalance (the
			// max/mean active-server ratio across tick shards) and the
			// runtime/metrics bridge. Kept strictly out of the sim outputs.
			var max, sum float64
			shards := 0
			tb.Clus.EachShardStats(func(st cluster.ShardStats) {
				shards++
				sum += float64(st.Active)
				if float64(st.Active) > max {
					max = float64(st.Active)
				}
			})
			if shards > 0 && sum > 0 {
				cfg.Health.ObserveShardImbalance(max * float64(shards) / sum)
			}
			cfg.Health.SampleRuntime()
		}
	}

	// Keep a terasort stream running while the daemon manages the server.
	var doneFn func() bool
	submit := func() error {
		j, err := tb.JT.Submit(mapreduce.Terasort("input", 10), tb.Eng.Clock().Seconds())
		if err != nil {
			return err
		}
		doneFn = j.Done
		return nil
	}
	if err := submit(); err != nil {
		return ob, err
	}

	logged := 0
	nm := tb.Sys.Managers()[0]
	ticks := int64(cfg.Duration / tb.Eng.Clock().TickSize())
	nextObserve := interval
	st := tb.Stepper()
	for i := int64(0); i < ticks; {
		i += st.Step(func(clk *sim.Clock) int64 {
			// Stop at completions (the resubmission below must happen on the
			// same tick per-tick stepping would use) and before the next
			// daemon observation so its gauges sample the same instants.
			if doneFn() {
				return 0
			}
			b := ticks - i - 1
			if nb := clk.TicksBefore(nextObserve, b); nb < b {
				b = nb
			}
			return b
		})
		now := tb.Eng.Clock().Seconds()
		if doneFn() {
			fmt.Fprintf(cfg.Log, "[%7.1fs] hadoop: terasort finished, resubmitting\n", now)
			if err := submit(); err != nil {
				return ob, err
			}
		}
		if now >= nextObserve {
			observe(now)
			nextObserve += interval
		}
		trace := nm.Trace()
		for ; logged < len(trace); logged++ {
			e := trace[logged]
			sIowait.Append(e.TimeSec, e.IowaitDev)
			sCPI.Append(e.TimeSec, e.CPIDev)
			logEntry(cfg.Log, e)
		}
	}
	fmt.Fprintf(cfg.Log, "perfcloudd: shutting down after %v simulated\n", cfg.Duration)
	if alertEng != nil {
		fmt.Fprintf(cfg.Log, "perfcloudd: alerts: %s\n", alertEng.Summary())
		if cfg.OnAlerts != nil {
			cfg.OnAlerts(alertEng.Statuses(), alertEng.Summary())
		}
	}
	if cfg.OnScore != nil {
		cfg.OnScore(ob.Score(tb, "perfcloud"))
	}
	return ob, nil
}

// logEntry prints one control interval the way the daemon's journal
// would, throttles in sorted VM order.
func logEntry(w io.Writer, e core.TraceEntry) {
	switch {
	case len(e.IOAntagonists)+len(e.CPUAntagonists) > 0:
		fmt.Fprintf(w, "[%7.1fs] CONTENTION iowaitDev=%.1f cpiDev=%.2f -> antagonists io=%v cpu=%v\n",
			e.TimeSec, e.IowaitDev, e.CPIDev, e.IOAntagonists, e.CPUAntagonists)
	case e.IOContention || e.CPUContention:
		fmt.Fprintf(w, "[%7.1fs] contention detected (iowaitDev=%.1f cpiDev=%.2f), identifying...\n",
			e.TimeSec, e.IowaitDev, e.CPIDev)
	}
	for _, vm := range sortedKeys(e.IOCaps) {
		fmt.Fprintf(w, "[%7.1fs]   blkio throttle %s -> %.0f IOPS\n", e.TimeSec, vm, e.IOCaps[vm])
	}
	for _, vm := range sortedKeys(e.CPUCaps) {
		fmt.Fprintf(w, "[%7.1fs]   vcpu quota %s -> %.2f cores\n", e.TimeSec, vm, e.CPUCaps[vm])
	}
}

func sortedKeys(m map[string]float64) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}
