package main

import (
	"fmt"
	"os"
	"runtime"
	"time"

	"perfcloud/internal/sim"
)

// variant is how one rep is run. The plain variant gives the end-to-end
// numbers; a traced rep adds the engine sentinels and the timed strider;
// an observers-off rep (daemon only) detaches every observer.
type variant struct {
	traced       bool
	observersOff bool
}

// sample is one rep's measurements.
type sample struct {
	seed   int64
	v      variant
	wall   time.Duration
	setup  time.Duration
	simSec float64
	out    repOut
	ms     map[string]float64
}

// ok reports whether every operation of the rep completed.
func (s sample) ok() bool {
	for _, c := range s.out.calls {
		if c.err != nil {
			return false
		}
	}
	return len(s.out.calls) > 0
}

type runner struct {
	cfg       config
	wl        workload
	warm      sample
	scrape    *scraper
	attempted int
	failed    int
}

// run makes one untimed warm-up rep, then timed reps until cfg.seconds of
// host time have passed. The warm-up's outputs are the reference: a later
// rep with the same seed must reproduce them. A traced run makes each
// seed's reps in every variant, alternating which goes first, and checks
// that tracing and observers change no simulated output. On a workload
// with observers, a scraper polls whichever rep is live for the whole run,
// as a client of a long-running daemon would.
func run(cfg config, wl workload) report {
	r := &runner{cfg: cfg, wl: wl}
	if wl.observers {
		r.scrape = startScraper()
		defer r.scrape.stop()
	}
	seedOf := func(i int) int64 {
		if wl.seed != 0 {
			return wl.seed
		}
		return cfg.seed + int64(i)
	}
	r.warm = r.rep(seedOf(0), variant{})
	var plain, traced, off []sample
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	for i := 0; i < minReps || time.Since(start) < cfg.seconds; i++ {
		seed := seedOf(i)
		order := []variant{{}}
		if cfg.trace {
			order = append(order, variant{traced: true})
			if i%2 == 1 {
				order[0], order[1] = order[1], order[0]
			}
			if wl.observers {
				order = append(order, variant{observersOff: true})
			}
		}
		var p, t, o sample
		for _, v := range order {
			s := r.rep(seed, v)
			switch {
			case v.traced:
				t, traced = s, append(traced, s)
			case v.observersOff:
				o, off = s, append(off, s)
			default:
				p, plain = s, append(plain, s)
			}
		}
		if seed == r.warm.seed {
			r.compare("warm-up", r.warm, p, true)
		}
		if cfg.trace {
			r.compare("untraced", p, t, true)
		}
		if cfg.trace && wl.observers {
			r.compare("observers-on", p, o, false)
		}
	}
	runtime.ReadMemStats(&m1)
	if sc := r.scrape; sc != nil {
		sc.stop()
		r.attempted += len(sc.latency)
		r.failed += sc.errs
	}

	man := newManifest(cfg)
	man.FixedSeed = wl.seed
	man.Reps = len(plain)
	res := report{correct: r.failed == 0, attempted: r.attempted, failed: r.failed, manifest: man}
	if cfg.trace {
		res.metrics = perLayer(plain, traced, off, r.scrape)
	} else {
		var setup []float64
		if wl.figure {
			setup = []float64{r.warm.wall.Seconds()}
		}
		res.metrics = endToEnd(plain, setup, m1.TotalAlloc-m0.TotalAlloc)
	}
	return res
}

// rep runs one rep and accounts its operations. Every rep starts from a
// collected heap, as a fresh process would, so that neither the garbage
// of the rep before nor where the collector's cycle happens to stand
// moves its time or the peak it reaches.
func (r *runner) rep(seed int64, v variant) sample {
	runtime.GC()
	p := newProbe(v)
	p.scrape = r.scrape
	var m0, m1 runtime.MemStats
	if v.traced {
		runtime.ReadMemStats(&m0)
	}
	pool0 := sim.SharedPool().Stats()
	p.start = time.Now()
	out := safeRep(r.wl, p, seed)
	if p.end.IsZero() {
		p.end = time.Now()
	}
	pool1 := sim.SharedPool().Stats()
	p.add("sim.pool_try_acquires", float64(pool1.TryAcquires-pool0.TryAcquires))
	p.add("sim.pool_denied", float64(pool1.Denied-pool0.Denied))
	if v.traced {
		runtime.ReadMemStats(&m1)
		p.add("go.gc_cycles", float64(m1.NumGC-m0.NumGC))
		p.addDur("go.gc_pause_ms", time.Duration(m1.PauseTotalNs-m0.PauseTotalNs))
	}
	s := sample{seed: seed, v: v, wall: p.end.Sub(p.start), setup: p.setup, simSec: p.simSec, out: out, ms: p.ms}
	r.attempted += len(out.calls)
	for _, c := range out.calls {
		if c.err != nil {
			r.failed++
			fmt.Fprintf(os.Stderr, "bench: %s seed %d %+v: %v\n", r.cfg.workload, seed, v, c.err)
		}
	}
	return s
}

// safeRep runs wl.rep, turning a panic into a failed operation.
func safeRep(wl workload, p *probe, seed int64) (out repOut) {
	defer func() {
		if x := recover(); x != nil {
			out = repOut{calls: []call{{err: fmt.Errorf("panic: %v", x)}}}
		}
	}()
	return wl.rep(p, seed)
}

// compare checks that rep b reproduced rep a's simulated outputs, call by
// call, and, when withObs is set, its observer outputs too. A call that
// differs is a failed operation.
func (r *runner) compare(what string, a, b sample, withObs bool) {
	if len(a.out.calls) != len(b.out.calls) {
		return // a failed rep, already counted
	}
	for i, c := range b.out.calls {
		want := a.out.calls[i]
		if c.err != nil || want.err != nil {
			continue
		}
		got, exp := c.digest, want.digest
		kind := "simulated"
		if got == exp && withObs {
			got, exp, kind = b.out.obs, a.out.obs, "observer"
		}
		if got != exp {
			r.failed++
			fmt.Fprintf(os.Stderr, "bench: %s seed %d %+v: %s output %d differs from the %s rep's (%016x, want %016x)\n",
				r.cfg.workload, b.seed, b.v, kind, i, what, got, exp)
		}
	}
}

// endToEnd computes the metrics a user of the simulator sees, from the
// plain reps that completed. setup, when given, replaces the reps' own
// set-up times.
func endToEnd(plain []sample, setup []float64, allocBytes uint64) []metric {
	var wall, own []float64
	for _, s := range plain {
		if s.ok() {
			wall = append(wall, s.wall.Seconds())
			own = append(own, s.setup.Seconds())
		}
	}
	if setup == nil {
		setup = own
	}
	rss, err := peakRSSMB()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench: peak RSS:", err)
	}
	return []metric{
		{"wall_p50_s", median(wall), "s"},
		{"setup_s", median(setup), "s"},
		{"peak_rss_mb", rss, "MB"},
		{"alloc_mb", ratio(float64(allocBytes)/1e6, float64(len(plain))), "MB"},
	}
}
