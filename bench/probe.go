package main

import (
	"time"

	"perfcloud/internal/experiments"
	"perfcloud/internal/sim"
)

// probe times one rep from outside the program. The driver always times
// its own calls into set-up, for setup_s. On a traced rep it also times its
// calls into submission and the observers, registers sentinel tickables
// that split every Engine.Step into segments, and wraps Testbed.Stride in a
// timing Strider.
type probe struct {
	variant
	start, end time.Time // the timed region; stop ends it before the outputs are digested
	setup      time.Duration
	simSec     float64
	ms         map[string]float64 // per-layer host time in ms, and counts
	eng        *engineProbe       // the testbed being stepped, when traced
	scrape     *scraper
}

func newProbe(v variant) *probe { return &probe{variant: v, ms: map[string]float64{}} }

func (p *probe) add(name string, v float64) { p.ms[name] += v }

func (p *probe) addDur(name string, d time.Duration) { p.ms[name] += float64(d) / 1e6 }

// time runs f and, on a traced rep, charges its host time to layer. A
// plain rep does not read the clock, so its wall time carries no probe.
func (p *probe) time(layer string, f func()) {
	if !p.traced {
		f()
		return
	}
	t := time.Now()
	f()
	p.addDur(layer, time.Since(t))
}

// setupTime is time for a set-up layer, which also counts toward setup_s.
func (p *probe) setupTime(layer string, f func()) {
	t := time.Now()
	f()
	d := time.Since(t)
	p.addDur(layer, d)
	p.setup += d
}

// stop ends the timed region.
func (p *probe) stop() { p.end = time.Now() }

// sentinelPriorities places the sentinels. Each runs after every component
// registered before it at its own priority, and NewTestbed registers every
// component, so the five split a step into four segments: the MapReduce and
// Spark schedulers (priority −1), the cluster's grant and advance (0), Dolly
// and the node managers (+1), and the alert ticker (+2).
var sentinelPriorities = [...]int{-2, -1, 0, 1, 3}

// segmentLayers names the segments between consecutive sentinels.
var segmentLayers = [...]string{"mapreduce_spark.step_ms", "cluster.step_ms", "core_straggler.step_ms", "obs.alert_ms"}

// engineProbe accumulates one testbed's traced step segments and strides.
type engineProbe struct {
	last        time.Time
	seg         [len(segmentLayers)]time.Duration
	firstStep   time.Duration // the cluster segment of the first step
	steps       int64
	stride      time.Duration
	strideCalls int64
	elided      int64
}

func (e *engineProbe) mark(i int) {
	now := time.Now()
	if i == 0 {
		e.steps++
	} else {
		d := now.Sub(e.last)
		e.seg[i-1] += d
		if i == 2 && e.steps == 1 {
			e.firstStep = d
		}
	}
	e.last = now
}

// timedStrider times Testbed.Stride: the frameworks' quiet predicates,
// core.StrideBound and the cluster's stride replay.
type timedStrider struct {
	tb *experiments.Testbed
	e  *engineProbe
}

func (s timedStrider) Stride(clk *sim.Clock, max int64) int64 {
	t := time.Now()
	n := s.tb.Stride(clk, max)
	s.e.stride += time.Since(t)
	s.e.strideCalls++
	s.e.elided += n
	return n
}

// stepper returns the stepper a workload drives tb with: the testbed's own
// on a plain rep, or one with sentinels and a timed strider on a traced rep.
// Both advance the simulation identically.
func (p *probe) stepper(tb *experiments.Testbed) *sim.Stepper {
	if !p.traced {
		return tb.Stepper()
	}
	e := &engineProbe{}
	p.eng = e
	for i, prio := range sentinelPriorities {
		tb.Eng.RegisterPriority(sim.TickFunc(func(*sim.Clock) { e.mark(i) }), prio)
	}
	return &sim.Stepper{Eng: tb.Eng, Str: timedStrider{tb: tb, e: e}}
}

// done folds a testbed the workload has finished with into the rep.
func (p *probe) done(tb *experiments.Testbed) {
	clk := tb.Eng.Clock()
	p.simSec += clk.Seconds()
	p.add("sim.ticks", float64(clk.Tick()))
	fp := tb.Clus.FastPathStats()
	for name, v := range map[string]uint64{
		"cluster.quiescent_skips": fp.QuiescentSkips,
		"cluster.steady_reuses":   fp.SteadyReuses,
		"cluster.rebuilds":        fp.Rebuilds,
		"cluster.shard_skips":     fp.ShardSkips,
		"cpu.memo_hits":           fp.CPUMemoHits,
		"cpu.memo_misses":         fp.CPUMemoMisses,
		"memsys.memo_hits":        fp.MemMemoHits,
		"memsys.memo_misses":      fp.MemMemoMisses,
		"disk.memo_hits":          fp.DiskMemoHits,
		"disk.memo_misses":        fp.DiskMemoMisses,
	} {
		p.add(name, float64(v))
	}
	if e := p.eng; e != nil {
		for i, name := range segmentLayers {
			p.addDur(name, e.seg[i])
		}
		p.addDur("cluster.first_step_ms", e.firstStep)
		p.add("sim.steps", float64(e.steps))
		p.addDur("stride.ms", e.stride)
		p.add("stride.calls", float64(e.strideCalls))
		p.add("stride.elided_ticks", float64(e.elided))
		p.eng = nil
	}
}
