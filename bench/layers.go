package main

// layerMetrics lists the per-layer metrics of a traced run, in the order
// BENCHMARK.json gives them. Times are medians per rep over the traced
// reps; a layer a workload does not exercise reads 0.
var layerMetrics = []struct{ name, unit string }{
	{"experiments.testbed_ms", "ms"},
	{"dfs.input_ms", "ms"},
	{"workloads.antagonist_ms", "ms"},
	{"cloud.provision_ms", "ms"},
	{"cloud.boot_ms", "ms"},
	{"cloud.boot_ns_per_vm", "ns"},
	{"mapreduce_spark.submit_ms", "ms"},
	{"mapreduce_spark.step_ms", "ms"},
	{"mapreduce_spark.ns_per_step", "ns"},
	{"cluster.step_ms", "ms"},
	{"cluster.ns_per_step", "ns"},
	{"cluster.first_step_ms", "ms"},
	{"cluster.quiescent_skips", "count"},
	{"cluster.steady_reuses", "count"},
	{"cluster.rebuilds", "count"},
	{"cluster.shard_skips", "count"},
	{"cluster.grant_reuse_ratio", "ratio"},
	{"cpu.memo_hit_ratio", "ratio"},
	{"memsys.memo_hit_ratio", "ratio"},
	{"disk.memo_hit_ratio", "ratio"},
	{"stride.ms", "ms"},
	{"stride.calls", "count"},
	{"stride.elided_ticks", "count"},
	{"stride.ticks_per_call", "ticks"},
	{"stride.ns_per_elided_tick", "ns"},
	{"core_straggler.step_ms", "ms"},
	{"core_straggler.ns_per_step", "ns"},
	{"obs.alert_ms", "ms"},
	{"obs.observe_ms", "ms"},
	{"obs.journal_ms", "ms"},
	{"obs.setup_ms", "ms"},
	{"obs.flush_ms", "ms"},
	{"obs.score_ms", "ms"},
	{"obs.events", "count"},
	{"obs.prom_ms_p50", "ms"},
	{"obs.events_ms_p50", "ms"},
	{"obs.series_ms_p50", "ms"},
	{"scrape_p50_ms", "ms"},
	{"scrape_p90_ms", "ms"},
	{"scrape_late_p99_ms", "ms"},
	{"obs.tax_ratio", "ratio"},
	{"trace.export_ms", "ms"},
	{"trace.spans", "count"},
	{"telemetry.sample_ms", "ms"},
	{"experiments.figure_ms", "ms"},
	{"sim.steps", "count"},
	{"sim.ticks", "count"},
	{"sim_s_per_s", "sim-s/host-s"},
	{"sim.pool_try_acquires", "count"},
	{"sim.pool_deny_ratio", "ratio"},
	{"under30_frac", "ratio"},
	{"go.gc_cycles", "count"},
	{"go.gc_pause_ms", "ms"},
	{"wall_tail_s", "s"},
	{"wall_tail_q", "ratio"},
	{"other_ms", "ms"},
	{"layer_coverage", "ratio"},
	{"trace_overhead", "ratio"},
}

// partition lists the layers that split a rep's wall time: each is host
// time on the goroutine that drives the rep, and no two overlap.
// other_ms is what they leave: engine dispatch and the driver's own loop.
var partition = []string{
	"experiments.testbed_ms", "dfs.input_ms", "workloads.antagonist_ms", "obs.setup_ms",
	"cloud.provision_ms", "cloud.boot_ms", "telemetry.sample_ms",
	"mapreduce_spark.submit_ms", "mapreduce_spark.step_ms", "cluster.step_ms",
	"core_straggler.step_ms", "obs.alert_ms", "stride.ms",
	"obs.observe_ms", "obs.journal_ms", "obs.flush_ms", "obs.score_ms", "trace.export_ms",
	"experiments.figure_ms",
}

// derive adds a traced rep's per-rep ratios and its accounting against
// wall time to its raw layer map.
func derive(s sample) map[string]float64 {
	m := make(map[string]float64, len(s.ms)+16)
	for k, v := range s.ms {
		m[k] = v
	}
	steps := m["sim.steps"]
	m["mapreduce_spark.ns_per_step"] = ratio(m["mapreduce_spark.step_ms"]*1e6, steps)
	m["cluster.ns_per_step"] = ratio(m["cluster.step_ms"]*1e6, steps)
	m["core_straggler.ns_per_step"] = ratio(m["core_straggler.step_ms"]*1e6, steps)
	m["cloud.boot_ns_per_vm"] = ratio(m["cloud.boot_ms"]*1e6, m["cloud.booted_vms"])
	m["cluster.grant_reuse_ratio"] = ratio(m["cluster.steady_reuses"], m["cluster.steady_reuses"]+m["cluster.rebuilds"])
	for _, r := range []string{"cpu", "memsys", "disk"} {
		m[r+".memo_hit_ratio"] = ratio(m[r+".memo_hits"], m[r+".memo_hits"]+m[r+".memo_misses"])
	}
	m["stride.ticks_per_call"] = ratio(m["stride.elided_ticks"], m["stride.calls"])
	m["stride.ns_per_elided_tick"] = ratio(m["stride.ms"]*1e6, m["stride.elided_ticks"])
	m["sim.pool_deny_ratio"] = ratio(m["sim.pool_denied"], m["sim.pool_try_acquires"])
	m["under30_frac"] = s.out.under30
	wall := float64(s.wall) / 1e6
	var covered float64
	for _, l := range partition {
		covered += m[l]
	}
	m["other_ms"] = wall - covered
	m["layer_coverage"] = ratio(covered, wall)
	return m
}

// perLayer computes the per-layer metrics of a traced run. Layer values
// come from the traced reps; sim_s_per_s and both overhead ratios come from
// the untraced reps measured alongside them, and the scrape latencies from
// every scrape of the run.
func perLayer(plain, traced, off []sample, sc *scraper) []metric {
	byName := map[string][]float64{}
	for _, s := range traced {
		if !s.ok() {
			continue
		}
		for k, v := range derive(s) {
			byName[k] = append(byName[k], v)
		}
	}
	med := map[string]float64{}
	for k, vs := range byName {
		med[k] = median(vs)
	}
	walls := func(ss []sample) []float64 {
		var w []float64
		for _, s := range ss {
			if s.ok() {
				w = append(w, s.wall.Seconds())
			}
		}
		return w
	}
	var simRate []float64
	for _, s := range plain {
		if s.ok() {
			simRate = append(simRate, s.simSec/s.wall.Seconds())
		}
	}
	med["sim_s_per_s"] = median(simRate)
	if sc != nil {
		med["scrape_p50_ms"] = median(sc.latency)
		med["scrape_p90_ms"] = quantile(sc.latency, 0.9)
		med["scrape_late_p99_ms"] = quantile(sc.late, 0.99)
		med["obs.prom_ms_p50"] = median(sc.prom)
		med["obs.events_ms_p50"] = median(sc.events)
		med["obs.series_ms_p50"] = median(sc.series)
	}
	// The tail is the highest quantile with at least ten plain reps beyond
	// it, and never below the median.
	w := walls(plain)
	med["wall_tail_q"] = max(0.5, 1-10/float64(len(w)))
	med["wall_tail_s"] = quantile(w, med["wall_tail_q"])
	plainWall := median(w)
	med["trace_overhead"] = ratio(median(walls(traced)), plainWall)
	if len(off) > 0 {
		med["obs.tax_ratio"] = ratio(plainWall, median(walls(off)))
	}
	out := make([]metric, len(layerMetrics))
	for i, lm := range layerMetrics {
		out[i] = metric{lm.name, med[lm.name], lm.unit}
	}
	return out
}
