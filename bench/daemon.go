package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"perfcloud/internal/cluster"
	"perfcloud/internal/core"
	"perfcloud/internal/experiments"
	"perfcloud/internal/mapreduce"
	"perfcloud/internal/obs"
	"perfcloud/internal/sim"
	tracing "perfcloud/internal/trace"
	"perfcloud/internal/workloads"
)

// daemonDuration is perfcloudd's default -duration: the simulated time of
// one daemon rep.
const daemonDuration = 3 * time.Minute

// daemonSize sizes the daemon workload.
type daemonSize struct{ Duration time.Duration }

// scrapePeriod paces the scraper's open loop at 50 Hz.
const scrapePeriod = 20 * time.Millisecond

// runConfig is cmd/perfcloudd's runConfig, field for field.
type runConfig struct {
	Duration   time.Duration
	Seed       int64
	Metrics    *obs.Registry
	Events     obs.Sink
	Log        io.Writer
	Series     *obs.SeriesRegistry
	OnInterval func(obs.FastPathSnapshot)
	OnScore    func(obs.Scorecard)
	Tracer     *tracing.Tracer
	AlertRules []obs.Rule
	OnAlerts   func([]obs.AlertStatus, obs.AlertSummary)
	Health     *obs.Health
}

// daemonServer holds what perfcloudd's HTTP server serves: the registries
// and ring it reads live, and the hook state the run loop replaces under mu.
type daemonServer struct {
	reg    *obs.Registry
	ring   *obs.Ring
	series *obs.SeriesRegistry

	mu     sync.Mutex
	fast   obs.FastPathSnapshot
	score  *obs.Scorecard
	alerts []obs.AlertStatus
	sum    obs.AlertSummary
}

func (s *daemonServer) setFastPaths(fp obs.FastPathSnapshot) {
	s.mu.Lock()
	s.fast = fp
	s.mu.Unlock()
}

func (s *daemonServer) setScore(sc obs.Scorecard) {
	s.mu.Lock()
	s.score = &sc
	s.mu.Unlock()
}

func (s *daemonServer) setAlerts(sts []obs.AlertStatus, sum obs.AlertSummary) {
	s.mu.Lock()
	s.alerts, s.sum = sts, sum
	s.mu.Unlock()
}

// daemonOutputs is where one rep's outputs go: the console journal, and,
// with observers on, the -events audit log, the -trace collector and the
// HTTP server's state.
type daemonOutputs struct {
	journal bytes.Buffer
	events  bytes.Buffer
	jsonl   *obs.JSONLSink
	col     *obs.Collector
	srv     *daemonServer
}

// daemonConfig wires a run as cmd/perfcloudd's main does: with observers,
// as `perfcloudd -http :0 -events F -alerts -trace F`; without, as plain
// `perfcloudd`. The journal, the audit log and the export go to memory.
func daemonConfig(sz daemonSize, seed int64, observers bool) (runConfig, *daemonOutputs) {
	out := &daemonOutputs{}
	cfg := runConfig{Duration: sz.Duration, Seed: seed, Log: &out.journal}
	if !observers {
		return cfg, out
	}
	cfg.AlertRules = obs.DefaultRules(obs.DefaultRulesConfig{})
	var sinks obs.MultiSink
	cfg.Tracer = tracing.NewTracer()
	out.col = obs.NewCollector()
	sinks = append(sinks, out.col)
	out.jsonl = obs.NewJSONLSink(&out.events)
	sinks = append(sinks, out.jsonl)
	cfg.Metrics = obs.NewRegistry()
	cfg.Series = obs.NewSeriesRegistry(0)
	out.srv = &daemonServer{reg: cfg.Metrics, ring: obs.NewRing(4096), series: cfg.Series}
	sinks = append(sinks, out.srv.ring)
	cfg.OnInterval = out.srv.setFastPaths
	cfg.OnScore = out.srv.setScore
	cfg.OnAlerts = out.srv.setAlerts
	cfg.Health = obs.NewHealth(cfg.Metrics)
	cfg.Health.SetPoolStats(func() obs.PoolHealth {
		st := sim.SharedPool().Stats()
		return obs.PoolHealth{
			Capacity: st.Capacity, InUse: st.InUse, Peak: st.Peak,
			TryAcquires: st.TryAcquires, Denied: st.Denied, GrantedSlots: st.GrantedSlots,
		}
	})
	cfg.Events = sinks
	return cfg, out
}

// daemonRep runs perfcloudd's canonical scenario for Duration: one server,
// a six-VM Hadoop cluster running back-to-back terasorts, a bursty fio
// antagonist and two sysbench decoys, managed by PerfCloud. With observers
// on, the run's scraper polls the rep's HTTP state while it runs, and the
// rep ends as perfcloudd does: the audit log flushed and the trace
// exported. Its simulated outputs are the JCTs and every cap; its observer
// outputs are the journal, the audit log, the export, the score, the
// alerts, the metrics and the series.
func daemonRep(sz daemonSize) func(*probe, int64) repOut {
	return func(p *probe, seed int64) repOut {
		var cfg runConfig
		var out *daemonOutputs
		p.setupTime("obs.setup_ms", func() { cfg, out = daemonConfig(sz, seed, !p.observersOff) })
		jcts, tb, err := daemonRun(p, cfg, func() { p.scrape.serve(out.srv) })
		p.scrape.serve(nil)
		export := fnv.New64a()
		if err == nil && out.srv != nil {
			p.time("obs.flush_ms", func() { err = out.jsonl.Flush() })
			if err == nil {
				p.time("trace.export_ms", func() { err = cfg.Tracer.WritePerfetto(export, out.col.Events()) })
			}
		}
		p.stop()
		if err != nil {
			return failed(err)
		}
		if len(jcts) == 0 {
			return failed(fmt.Errorf("no terasort finished in %v", sz.Duration))
		}
		d := newDigest()
		d.f64(jcts...)
		d.caps(tb.Sys)
		res := repOut{calls: []call{{digest: d.sum()}}}
		if out.srv == nil {
			return res
		}
		p.add("obs.events", float64(len(out.col.Events())))
		p.add("trace.spans", float64(cfg.Tracer.Len()))
		od := newDigest()
		od.u64(export.Sum64())
		od.str(out.journal.String())
		od.str(out.events.String())
		if out.srv.score == nil {
			return failed(fmt.Errorf("run ended without a scorecard"))
		}
		od.str(out.srv.score.String())
		od.str(out.srv.sum.String())
		if err := writeSimMetrics(od.h, out.srv.reg); err != nil {
			return failed(err)
		}
		if err := out.srv.series.WriteJSON(od.h, 0, 0); err != nil {
			return failed(err)
		}
		res.obs = od.sum()
		return res
	}
}

// writeSimMetrics writes reg's Prometheus exposition without the health
// layer's wall-clock gauges, which differ from run to run by design.
func writeSimMetrics(w io.Writer, reg *obs.Registry) error {
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		return err
	}
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		if !strings.Contains(sc.Text(), "perfcloud_health_") {
			fmt.Fprintln(w, sc.Text())
		}
	}
	return sc.Err()
}

// daemonRun is cmd/perfcloudd's run, statement for statement, returning the
// JCTs of the terasorts that finished and the testbed. Only the probe's
// timing wrappers, the JCT bookkeeping and the online call are added, and
// the loop steps through p.stepper, which advances the simulation exactly
// as tb.Stepper() does. online runs once the daemon has registered its
// instruments, just before the loop: a scrape that overlaps the
// registration of a histogram can dereference nil and crash the process
// (README.md, "Known defects").
func daemonRun(p *probe, cfg runConfig, online func()) ([]float64, *experiments.Testbed, error) {
	if cfg.Log == nil {
		cfg.Log = io.Discard
	}
	var col *obs.Collector
	events := cfg.Events
	var ctl *core.Config
	var alertEng *obs.AlertEngine
	p.setupTime("obs.setup_ms", func() {
		if cfg.OnScore != nil {
			col = obs.NewCollector()
			if events != nil {
				events = obs.MultiSink{events, col}
			} else {
				events = col
			}
		}
		ctl = experiments.ControllerConfig()
		ctl.Metrics = cfg.Metrics
		ctl.Events = events
		ctl.Health = cfg.Health
		if len(cfg.AlertRules) > 0 {
			alertEng = obs.NewAlertEngine(cfg.AlertRules, events)
			ctl.Alerts = alertEng
		}
	})
	var tb *experiments.Testbed
	p.setupTime("experiments.testbed_ms", func() {
		tb = experiments.NewTestbed(experiments.TestbedConfig{
			Seed:      cfg.Seed,
			PerfCloud: ctl,
			Tracer:    cfg.Tracer,
		})
	})
	alertEng.SetGroundTruth(tb.Truth)
	p.setupTime("dfs.input_ms", func() { tb.MustInput("input", 640<<20) })
	p.setupTime("workloads.antagonist_ms", func() {
		tb.AddAntagonist(0, workloads.NewFioRandRead(
			workloads.BurstPattern{StartOffset: 10 * time.Second, On: 20 * time.Second, Off: 10 * time.Second}))
		tb.AddAntagonist(0, workloads.NewSysbenchOLTP(workloads.AlwaysOn))
		tb.AddAntagonist(0, workloads.NewSysbenchCPU(workloads.AlwaysOn))
	})

	fmt.Fprintln(cfg.Log, "perfcloudd: node manager online (server-0), monitoring interval 5s")
	fmt.Fprintln(cfg.Log, "perfcloudd: high-priority app 'hadoop' (6 VMs); low-priority: fio-randread, sysbench-oltp, sysbench-cpu")

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
			"Allocator input-memo hits.", l)
		memoMisses[i] = cfg.Metrics.Gauge("perfcloud_alloc_memo_misses",
			"Allocator input-memo misses.", l)
	}

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

	var job *mapreduce.Job
	var jcts []float64
	submit := func() (err error) {
		p.time("mapreduce_spark.submit_ms", func() {
			job, err = tb.JT.Submit(mapreduce.Terasort("input", 10), tb.Eng.Clock().Seconds())
		})
		return err
	}
	if err := submit(); err != nil {
		return nil, nil, err
	}

	online()
	logged := 0
	nm := tb.Sys.Managers()[0]
	ticks := int64(cfg.Duration / tb.Eng.Clock().TickSize())
	nextObserve := interval
	st := p.stepper(tb)
	for i := int64(0); i < ticks; {
		i += st.Step(func(clk *sim.Clock) int64 {
			if job.Done() {
				return 0
			}
			b := ticks - i - 1
			if nb := clk.TicksBefore(nextObserve, b); nb < b {
				b = nb
			}
			return b
		})
		now := tb.Eng.Clock().Seconds()
		if job.Done() {
			jcts = append(jcts, job.JCT())
			fmt.Fprintf(cfg.Log, "[%7.1fs] hadoop: terasort finished, resubmitting\n", now)
			if err := submit(); err != nil {
				return nil, nil, err
			}
		}
		if now >= nextObserve {
			p.time("obs.observe_ms", func() { observe(now) })
			nextObserve += interval
		}
		p.time("obs.journal_ms", func() {
			trace := nm.Trace()
			for ; logged < len(trace); logged++ {
				e := trace[logged]
				sIowait.Append(e.TimeSec, e.IowaitDev)
				sCPI.Append(e.TimeSec, e.CPIDev)
				logEntry(cfg.Log, e)
			}
		})
	}
	p.done(tb)
	fmt.Fprintf(cfg.Log, "perfcloudd: shutting down after %v simulated\n", cfg.Duration)
	if alertEng != nil {
		fmt.Fprintf(cfg.Log, "perfcloudd: alerts: %s\n", alertEng.Summary())
		if cfg.OnAlerts != nil {
			cfg.OnAlerts(alertEng.Statuses(), alertEng.Summary())
		}
	}
	if cfg.OnScore != nil {
		p.time("obs.score_ms", func() {
			sc := obs.Score(col.Events(), tb.Truth, tb.Eng.Clock().Seconds())
			sc.Scheme = "perfcloud"
			cfg.OnScore(sc)
		})
	}
	return jcts, tb, nil
}

// logEntry is cmd/perfcloudd's journal line for one control interval.
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

// scraper reads a daemon's HTTP state from a second goroutine in an open
// loop, as a client polling /metrics, /debug/events and /debug/series
// would, each read rendered as its handler renders it. Scrape k is due at
// start + k·scrapePeriod whether or not scrape k−1 has finished, and its
// latency counts from when it was due. It reads whichever daemon serve
// last installed, and skips its turns while none is installed.
type scraper struct {
	srv  atomic.Pointer[daemonServer]
	quit chan struct{}
	done chan struct{}

	// Written by the scraping goroutine; read after done is closed. Times
	// are ms per scrape.
	latency, late, prom, events, series []float64
	errs                                int
}

func startScraper() *scraper {
	s := &scraper{quit: make(chan struct{}), done: make(chan struct{})}
	go s.loop()
	return s
}

// serve points the scraper at srv, or at nothing for nil. It does nothing
// on the nil scraper.
func (s *scraper) serve(srv *daemonServer) {
	if s != nil {
		s.srv.Store(srv)
	}
}

func (s *scraper) loop() {
	defer close(s.done)
	due := time.Now()
	t := time.NewTimer(0)
	defer t.Stop()
	ms := func(d time.Duration) float64 { return float64(d) / 1e6 }
	for {
		select {
		case <-s.quit:
			return
		case <-t.C:
		}
		if srv := s.srv.Load(); srv != nil {
			start := time.Now()
			err := srv.reg.WritePrometheus(io.Discard)
			t1 := time.Now()
			events := srv.ring.Events()
			if e := json.NewEncoder(io.Discard).Encode(struct {
				Total    uint64      `json:"total"`
				Retained int         `json:"retained"`
				Events   []obs.Event `json:"events"`
			}{Total: srv.ring.Total(), Retained: len(events), Events: events}); err == nil {
				err = e
			}
			t2 := time.Now()
			if e := srv.series.WriteJSON(io.Discard, 0, 0); err == nil {
				err = e
			}
			end := time.Now()
			if err != nil {
				s.errs++
			}
			s.latency = append(s.latency, ms(end.Sub(due)))
			s.late = append(s.late, ms(start.Sub(due)))
			s.prom = append(s.prom, ms(t1.Sub(start)))
			s.events = append(s.events, ms(t2.Sub(t1)))
			s.series = append(s.series, ms(end.Sub(t2)))
		}
		due = due.Add(scrapePeriod)
		t.Reset(time.Until(due))
	}
}

// stop ends the loop and waits for it; later calls do nothing.
func (s *scraper) stop() {
	select {
	case <-s.done:
	default:
		close(s.quit)
		<-s.done
	}
}
