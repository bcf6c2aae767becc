package core

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"perfcloud/internal/cloud"
	"perfcloud/internal/cluster"
	"perfcloud/internal/dfs"
	"perfcloud/internal/exec"
	"perfcloud/internal/mapreduce"
	"perfcloud/internal/sim"
	"perfcloud/internal/spark"
	"perfcloud/internal/workloads"
)

// scenario is a one-server testbed: six Hadoop VMs running back-to-back
// high-priority work, plus configurable low-priority antagonists/decoys.
type scenario struct {
	eng    *sim.Engine
	clus   *cluster.Cluster
	cm     *cloud.Manager
	pool   exec.Pool
	fs     *dfs.FileSystem
	jt     *mapreduce.JobTracker
	driver *spark.Driver
	sys    *System

	benchmarks map[string]*workloads.Benchmark
}

type scenarioOpts struct {
	perfcloud  bool
	fio        bool
	streams    int
	decoys     bool
	burstyFio  bool
	cfg        Config
	seed       int64
	tickMillis int
}

func defaultOpts() scenarioOpts {
	return scenarioOpts{cfg: DefaultConfig(), seed: 42, tickMillis: 100}
}

func newScenario(t *testing.T, o scenarioOpts) *scenario {
	t.Helper()
	sc := &scenario{benchmarks: make(map[string]*workloads.Benchmark)}
	sc.eng = sim.NewEngine(time.Duration(o.tickMillis)*time.Millisecond, o.seed)
	sc.clus = cluster.New()
	sc.cm = cloud.NewManager(sc.clus, sc.eng.RNG())
	sc.cm.ProvisionServers(1)

	var names []string
	for i := 0; i < 6; i++ {
		id := fmt.Sprintf("hadoop-%d", i)
		vm, err := sc.cm.Boot(cloud.VMSpec{Name: id, Priority: cluster.HighPriority, AppID: "hadoop"})
		if err != nil {
			t.Fatal(err)
		}
		sc.pool = append(sc.pool, exec.NewExecutor(vm, 2))
		names = append(names, id)
	}
	boot := func(name string, w *workloads.Benchmark) {
		vm, err := sc.cm.Boot(cloud.VMSpec{Name: name, Priority: cluster.LowPriority})
		if err != nil {
			t.Fatal(err)
		}
		vm.SetWorkload(w)
		sc.benchmarks[name] = w
	}
	if o.fio {
		pat := workloads.AlwaysOn
		if o.burstyFio {
			pat = workloads.BurstPattern{On: 20 * time.Second, Off: 10 * time.Second}
		}
		boot("fio", workloads.NewFioRandRead(pat))
	}
	for i := 0; i < o.streams; i++ {
		pat := workloads.BurstPattern{On: 25 * time.Second, Off: 10 * time.Second}
		boot(fmt.Sprintf("stream-%d", i), workloads.NewStream(pat))
	}
	if o.decoys {
		boot("oltp", workloads.NewSysbenchOLTP(workloads.AlwaysOn))
		boot("sysbench-cpu", workloads.NewSysbenchCPU(workloads.AlwaysOn))
	}

	sc.fs = dfs.New(dfs.DefaultConfig(), names, rand.New(rand.NewSource(o.seed+1)))
	sc.fs.Create("input", 640<<20)
	sc.jt = mapreduce.NewJobTracker(sc.pool, sc.fs, nil)
	sc.driver = spark.NewDriver(sc.pool, nil)
	sc.eng.RegisterPriority(sc.jt, -1)
	sc.eng.RegisterPriority(sc.driver, -1)
	sc.eng.RegisterPriority(sc.clus, 0)
	if o.perfcloud {
		sc.sys = Attach(sc.eng, sc.clus, sc.cm, o.cfg)
	}
	return sc
}

// runTerasortStream keeps a terasort job running back-to-back for the
// given duration, returning the completed JCTs.
func (sc *scenario) runTerasortStream(t *testing.T, d time.Duration) []float64 {
	t.Helper()
	var jcts []float64
	var cur *mapreduce.Job
	submit := func() {
		j, err := sc.jt.Submit(mapreduce.Terasort("input", 6), sc.eng.Clock().Seconds())
		if err != nil {
			t.Fatal(err)
		}
		cur = j
	}
	submit()
	ticks := int64(d / sc.eng.Clock().TickSize())
	for i := int64(0); i < ticks; i++ {
		sc.eng.Step()
		if cur.Done() {
			jcts = append(jcts, cur.JCT())
			submit()
		}
	}
	return jcts
}

// runLogregStream is runTerasortStream for Spark logistic regression.
func (sc *scenario) runLogregStream(t *testing.T, d time.Duration) []float64 {
	t.Helper()
	var jcts []float64
	var cur *exec.Job
	submit := func() {
		a, err := sc.driver.Submit(spark.LogisticRegression(10, 4, 640<<20), sc.eng.Clock().Seconds())
		if err != nil {
			t.Fatal(err)
		}
		cur = a
	}
	submit()
	ticks := int64(d / sc.eng.Clock().TickSize())
	for i := int64(0); i < ticks; i++ {
		sc.eng.Step()
		if cur.Done() {
			jcts = append(jcts, cur.JCT())
			submit()
		}
	}
	return jcts
}

func (sc *scenario) manager() *NodeManager { return sc.sys.Managers()[0] }

func mean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func TestDetectsIOContentionOnlyWithAntagonist(t *testing.T) {
	// Alone: no interval may cross the iowait threshold. With fio: many do.
	count := func(fio bool) (contended, total int) {
		o := defaultOpts()
		o.perfcloud = true
		// Observation only: disable throttling by making identification
		// impossible (threshold above 1).
		o.cfg.CorrThreshold = 1.1
		o.fio = fio
		o.burstyFio = true
		sc := newScenario(t, o)
		sc.runTerasortStream(t, 3*time.Minute)
		for _, e := range sc.manager().Trace() {
			total++
			if e.IOContention {
				contended++
			}
		}
		return
	}
	alone, totalAlone := count(false)
	contended, _ := count(true)
	if alone > totalAlone/10 {
		t.Errorf("false positives alone: %d of %d intervals", alone, totalAlone)
	}
	if contended < 5 {
		t.Errorf("contended intervals with fio = %d, want many", contended)
	}
}

func TestIdentifiesAndThrottlesFioNotDecoys(t *testing.T) {
	o := defaultOpts()
	o.perfcloud = true
	o.fio = true
	o.burstyFio = true
	o.decoys = true
	sc := newScenario(t, o)
	sc.runTerasortStream(t, 4*time.Minute)

	identified := map[string]bool{}
	capped := map[string]bool{}
	for _, e := range sc.manager().Trace() {
		for _, id := range e.IOAntagonists {
			identified[id] = true
		}
		for id := range e.IOCaps {
			capped[id] = true
		}
	}
	if !identified["fio"] {
		t.Error("fio never identified as I/O antagonist")
	}
	if identified["oltp"] || identified["sysbench-cpu"] {
		t.Errorf("decoys misidentified: %v", identified)
	}
	if !capped["fio"] {
		t.Error("fio never throttled")
	}
	if capped["oltp"] || capped["sysbench-cpu"] {
		t.Errorf("decoys throttled: %v", capped)
	}
	// The actual blkio throttle reached the hypervisor at some point.
	foundCapBelow := false
	for _, e := range sc.manager().Trace() {
		if c, ok := e.IOCaps["fio"]; ok && c < 4000 {
			foundCapBelow = true
		}
	}
	if !foundCapBelow {
		t.Error("fio cap never dropped below half its solo rate")
	}
}

func TestPerfCloudImprovesTerasortJCT(t *testing.T) {
	run := func(pc bool) float64 {
		o := defaultOpts()
		o.perfcloud = pc
		o.fio = true
		o.burstyFio = true
		sc := newScenario(t, o)
		jcts := sc.runTerasortStream(t, 4*time.Minute)
		if len(jcts) == 0 {
			t.Fatal("no jobs completed")
		}
		return mean(jcts)
	}
	off := run(false)
	on := run(true)
	if on >= off*0.95 {
		t.Errorf("PerfCloud JCT %v should clearly beat default %v", on, off)
	}
}

func TestDetectsAndMitigatesMemoryContention(t *testing.T) {
	run := func(pc bool) (jct float64, trace []TraceEntry) {
		o := defaultOpts()
		o.perfcloud = true
		o.streams = 2
		if !pc {
			o.cfg.CorrThreshold = 1.1 // observe only
		}
		sc := newScenario(t, o)
		jcts := sc.runLogregStream(t, 4*time.Minute)
		if len(jcts) == 0 {
			t.Fatal("no apps completed")
		}
		return mean(jcts), sc.manager().Trace()
	}
	off, offTrace := run(false)
	on, onTrace := run(true)

	cpuContended := 0
	for _, e := range offTrace {
		if e.CPUContention {
			cpuContended++
		}
	}
	if cpuContended < 3 {
		t.Errorf("CPU contention detected in %d intervals, want several", cpuContended)
	}
	identified := map[string]bool{}
	for _, e := range onTrace {
		for _, id := range e.CPUAntagonists {
			identified[id] = true
		}
	}
	if !identified["stream-0"] && !identified["stream-1"] {
		t.Error("no STREAM VM identified as CPU antagonist")
	}
	if on >= off*0.97 {
		t.Errorf("PerfCloud logreg JCT %v should beat default %v", on, off)
	}
}

func TestCapsRecoverAfterAntagonistStops(t *testing.T) {
	o := defaultOpts()
	o.perfcloud = true
	o.fio = true
	o.burstyFio = true
	sc := newScenario(t, o)
	// Run until fio is throttled, then stop it partway: detach its
	// workload and keep the victim running.
	sc.runTerasortStream(t, 2*time.Minute)
	sc.clus.FindVM("fio").SetWorkload(nil)
	sc.runTerasortStream(t, 8*time.Minute)

	trace := sc.manager().Trace()
	var minCap float64 = 1e18
	capAtEnd := -1.0 // -1 = released
	for _, e := range trace {
		if c, ok := e.IOCaps["fio"]; ok {
			if c < minCap {
				minCap = c
			}
			capAtEnd = c
		} else {
			capAtEnd = -1
		}
	}
	if minCap > 4000 {
		t.Errorf("min cap = %v, fio was never meaningfully throttled", minCap)
	}
	if capAtEnd != -1 {
		t.Errorf("cap still in force at end (%v); probing should have released it", capAtEnd)
	}
	// And the blkio throttle was actually cleared.
	vm := sc.clus.FindVM("fio")
	if th := vm.Cgroup().Throttle(); th.ReadIOPS != 0 {
		t.Errorf("lingering throttle: %+v", th)
	}
}

func TestDecentralizedOneManagerPerServer(t *testing.T) {
	eng := sim.NewEngine(100*time.Millisecond, 1)
	clus := cluster.New()
	cm := cloud.NewManager(clus, eng.RNG())
	cm.ProvisionServers(3)
	sys := Attach(eng, clus, cm, DefaultConfig())
	if len(sys.Managers()) != 3 {
		t.Fatalf("managers = %d", len(sys.Managers()))
	}
	if sys.Manager("server-1") == nil || sys.Manager("nope") != nil {
		t.Error("Manager lookup")
	}
	// Ticking with empty servers must be safe.
	eng.RunFor(20 * time.Second)
}

func TestNodeManagerPanicsOnBadInterval(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("want panic")
		}
	}()
	cfg := DefaultConfig()
	cfg.IntervalSec = 0
	NewNodeManager(cfg, nil, nil)
}

// TestTraceViewIsReadOnly checks that Trace returns a view of the
// control history that neither changes the log when appended to nor
// sees intervals recorded after it was taken.
func TestTraceViewIsReadOnly(t *testing.T) {
	o := defaultOpts()
	o.perfcloud = true
	o.fio = true
	sc := newScenario(t, o)
	step := func(d time.Duration) {
		for i := int64(0); i < int64(d/sc.eng.Clock().TickSize()); i++ {
			sc.eng.Step()
		}
	}
	step(30 * time.Second)
	nm := sc.manager()
	early := nm.Trace()
	if len(early) == 0 {
		t.Fatal("no control intervals recorded")
	}
	earlyTimes := make([]float64, len(early))
	for i, e := range early {
		earlyTimes[i] = e.TimeSec
	}

	grown := append(early, TraceEntry{TimeSec: -1})
	if got := nm.Trace(); len(got) != len(early) {
		t.Fatalf("appending to a view changed the log length: %d, want %d", len(got), len(early))
	}
	grown[0].TimeSec = -2 // the append reallocated: early is untouched
	if early[0].TimeSec == -2 {
		t.Fatal("appending to a view shares its backing array")
	}

	step(30 * time.Second)
	later := nm.Trace()
	if len(later) <= len(early) {
		t.Fatalf("log did not grow: %d entries, was %d", len(later), len(early))
	}
	if len(early) != len(earlyTimes) || cap(early) != len(early) {
		t.Fatalf("earlier view changed shape: len %d cap %d", len(early), cap(early))
	}
	for i, e := range early {
		if e.TimeSec != earlyTimes[i] || later[i].TimeSec != earlyTimes[i] {
			t.Fatalf("entry %d: view %v, log %v, want %v", i, e.TimeSec, later[i].TimeSec, earlyTimes[i])
		}
	}
}
