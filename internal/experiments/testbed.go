// Package experiments contains one scenario builder per figure of the
// paper's motivation and evaluation sections. Each experiment constructs
// a fresh simulated testbed (servers, Hadoop/Spark worker VMs, antagonist
// VMs, optional PerfCloud deployment), runs the workload the paper ran,
// and returns a structured result that renders as the corresponding
// table/series via internal/trace. The bench harness at the repository
// root and cmd/perfbench are thin wrappers over this package.
package experiments

import (
	"fmt"
	"time"

	"perfcloud/internal/cloud"
	"perfcloud/internal/cluster"
	"perfcloud/internal/core"
	"perfcloud/internal/dfs"
	"perfcloud/internal/exec"
	"perfcloud/internal/mapreduce"
	"perfcloud/internal/obs"
	"perfcloud/internal/sim"
	"perfcloud/internal/spark"
	"perfcloud/internal/straggler"
	"perfcloud/internal/trace"
	"perfcloud/internal/workloads"
)

// TestbedConfig sizes a testbed.
type TestbedConfig struct {
	Seed             int64
	Tick             time.Duration // 0 = 100 ms
	Servers          int           // 0 = 1
	WorkersPerServer int           // 0 = 6
	Speculator       exec.Speculator
	// PerfCloud deploys the node managers when non-nil.
	PerfCloud *core.Config
	// BlockBytes overrides the DFS block size (0 = the 64 MB default).
	BlockBytes float64
	// SlowServers makes the last N provisioned servers heterogeneous:
	// their disk bandwidth/IOPS and CPU frequency are scaled by
	// SlowFactor (0 = 0.5). The paper's §IV-D2 future-work setting.
	SlowServers int
	SlowFactor  float64
	// Tracer, when non-nil, is attached to every executor and both
	// frameworks: jobs, stages, tasks and attempts are recorded as spans
	// with per-phase time attribution.
	Tracer *trace.Tracer

	// reference builds the testbed on the reference cluster
	// (cluster.NewReference), the oracle the equivalence tests compare
	// against. Only tests and Options set it.
	reference bool
}

// newCluster returns an optimised cluster, or the reference oracle when
// reference is set.
func newCluster(reference bool) *cluster.Cluster {
	if reference {
		return cluster.NewReference()
	}
	return cluster.New()
}

// slotsPerWorker is each worker VM's task slot count.
const slotsPerWorker = 2

// Testbed is a fully wired simulated deployment.
type Testbed struct {
	Cfg    TestbedConfig
	Eng    *sim.Engine
	Clus   *cluster.Cluster
	CM     *cloud.Manager
	FS     *dfs.FileSystem
	JT     *mapreduce.JobTracker
	Driver *spark.Driver
	Pool   exec.Pool
	Sys    *core.System // nil unless PerfCloud deployed
	Dolly  *straggler.Dolly

	Benchmarks map[string]*workloads.Benchmark
	nAnt       int

	// Truth records every benchmark VM booted through AddAntagonist —
	// identity, burst schedule and harm channel — so detection-quality
	// scorecards can grade the control plane's cap decisions against
	// what the simulator knows to be true.
	Truth *obs.GroundTruth
}

// NewTestbed builds and wires a testbed: worker VMs are spread evenly
// across servers (as the paper's virtual Hadoop clusters are), executors
// attached, DFS over the workers, both frameworks registered before the
// resource pipeline and PerfCloud (if any) after it.
func NewTestbed(cfg TestbedConfig) *Testbed {
	if cfg.Tick == 0 {
		cfg.Tick = 100 * time.Millisecond
	}
	if cfg.Servers == 0 {
		cfg.Servers = 1
	}
	if cfg.WorkersPerServer == 0 {
		cfg.WorkersPerServer = 6
	}
	// Schemes hand one speculator to every repetition, and repetitions
	// build their testbeds concurrently; LATE's per-call scratch must not
	// be shared between them.
	if l, ok := cfg.Speculator.(*straggler.LATE); ok {
		cfg.Speculator = l.Copy()
	}
	tb := &Testbed{Cfg: cfg, Benchmarks: make(map[string]*workloads.Benchmark), Truth: obs.NewGroundTruth()}
	tb.Eng = sim.NewEngine(cfg.Tick, cfg.Seed)
	tb.Clus = newCluster(cfg.reference)
	tb.CM = cloud.NewManager(tb.Clus, tb.Eng.RNG())
	fast := cfg.Servers - cfg.SlowServers
	if fast < 0 {
		panic("experiments: more slow servers than servers")
	}
	tb.CM.ProvisionServers(fast)
	if cfg.SlowServers > 0 {
		factor := cfg.SlowFactor
		if factor == 0 {
			factor = 0.5
		}
		slow := cluster.DefaultServerConfig()
		slow.Disk.BandwidthCapacity *= factor
		slow.Disk.IOPSCapacity *= factor
		slow.CPU.FreqHz *= factor
		slow.Mem.FreqHz *= factor
		slow.Mem.BandwidthCapacity *= factor
		tb.CM.ProvisionServersWith(cfg.SlowServers, slow)
	}

	var names []string
	for s := 0; s < cfg.Servers; s++ {
		for w := 0; w < cfg.WorkersPerServer; w++ {
			id := fmt.Sprintf("worker-%02d-%02d", s, w)
			vm, err := tb.CM.Boot(cloud.VMSpec{
				Name:     id,
				Priority: cluster.HighPriority,
				AppID:    "hadoop",
				ServerID: fmt.Sprintf("server-%d", s),
			})
			if err != nil {
				panic(err)
			}
			tb.Pool = append(tb.Pool, exec.NewExecutor(vm, slotsPerWorker))
			names = append(names, id)
		}
	}
	dfsCfg := dfs.DefaultConfig()
	if cfg.BlockBytes > 0 {
		dfsCfg.BlockBytes = cfg.BlockBytes
	}
	tb.FS = dfs.New(dfsCfg, names, tb.Eng.RNG().Seeded(cfg.Seed+101))
	tb.JT = mapreduce.NewJobTracker(tb.Pool, tb.FS, cfg.Speculator)
	tb.Driver = spark.NewDriver(tb.Pool, cfg.Speculator)
	tb.Dolly = straggler.NewDolly()
	tb.Eng.RegisterPriority(tb.JT, -1)
	tb.Eng.RegisterPriority(tb.Driver, -1)
	tb.Eng.RegisterPriority(tb.Clus, 0)
	tb.Eng.RegisterPriority(tb.Dolly, 1)
	if cfg.PerfCloud != nil {
		tb.Sys = core.Attach(tb.Eng, tb.Clus, tb.CM, *cfg.PerfCloud)
	}
	if cfg.Tracer != nil {
		for _, e := range tb.Pool {
			e.SetTracer(cfg.Tracer)
		}
		tb.JT.SetTracer(cfg.Tracer)
		tb.Driver.SetTracer(cfg.Tracer)
	}
	return tb
}

// Close ends the testbed's life: it releases the random streams of its
// engine's factory, so the next testbed's streams load into their state
// vectors instead of allocating their own (DESIGN.md §5.10). Call it once
// the run's results, traces and scorecards have been taken — any later
// draw from one of the testbed's streams panics with sim.ReleasedStream.
// Close may be called more than once.
func (tb *Testbed) Close() { tb.Eng.RNG().Release() }

// Stepper returns an event-driven stepper over the testbed's engine: each
// Step runs one engine tick, then elides upcoming ticks through the
// testbed's Strider while every framework is provably idle (DESIGN.md
// §5.6). On a reference cluster the stepper steps per tick; both are
// bit-for-bit identical.
func (tb *Testbed) Stepper() *sim.Stepper {
	return &sim.Stepper{Eng: tb.Eng, Str: tb}
}

// Stride implements sim.Strider: it elides up to max upcoming ticks when
// every cluster-external event source is provably silent for them. The
// event sources and their owners:
//
//   - framework scheduling (launch, harvest, state transitions) — the
//     JobTracker/Driver/Dolly StrideQuiet predicates prove the next tick
//     is a no-op, and it stays one until an attempt completes, which the
//     stop callback detects (a completion frees an executor slot) and
//     ends the stride at that exact tick;
//   - control intervals — System.StrideBound caps the stride below every
//     node manager's next sample time;
//   - demand changes (workload phase flips, task tapering) — owned by the
//     cluster pipeline itself, which rebuilds on them inside the stride
//     (no bound needed), and only on a tick with such a change does the
//     stride ask the stop callback whether a slot was freed;
//   - driver-level events (job arrivals, observation intervals, run
//     predicates) — owned by the caller via the Stepper bound callback.
//
// When any predicate cannot prove quietness the stride is 0 and the
// engine steps per tick — the always-correct fallback.
func (tb *Testbed) Stride(clk *sim.Clock, max int64) int64 {
	if tb.Clus.Reference() {
		return 0
	}
	if !tb.JT.StrideQuiet() || !tb.Driver.StrideQuiet() || !tb.Dolly.StrideQuiet() {
		return 0
	}
	if tb.Sys != nil {
		max = tb.Sys.StrideBound(clk, max)
		if max <= 0 {
			return 0
		}
	}
	free := tb.Pool.FreeSlots()
	return tb.Clus.Stride(clk, max, func() bool { return tb.Pool.FreeSlots() != free })
}

// AddAntagonist boots a low-priority VM on the given server index and
// attaches the benchmark. The VM is named after the benchmark (with a
// disambiguating counter when needed).
func (tb *Testbed) AddAntagonist(server int, w *workloads.Benchmark) *cluster.VM {
	name := w.Name()
	if _, taken := tb.Benchmarks[name]; taken {
		tb.nAnt++
		name = fmt.Sprintf("%s-%d", w.Name(), tb.nAnt)
	}
	vm, err := tb.CM.Boot(cloud.VMSpec{
		Name:     name,
		Priority: cluster.LowPriority,
		ServerID: fmt.Sprintf("server-%d", server),
	})
	if err != nil {
		panic(err)
	}
	vm.SetWorkload(w)
	tb.Benchmarks[name] = w
	p := w.Pattern()
	tb.Truth.Add(obs.TruthVM{
		VM:       name,
		Server:   fmt.Sprintf("server-%d", server),
		Channel:  w.HarmChannel(),
		StartSec: p.StartOffset.Seconds(),
		OnSec:    p.On.Seconds(),
		OffSec:   p.Off.Seconds(),
	})
	return vm
}

// MustInput creates a DFS input file, panicking on error (experiment
// construction is programmer-controlled).
func (tb *Testbed) MustInput(name string, bytes float64) {
	if _, err := tb.FS.Create(name, bytes); err != nil {
		panic(err)
	}
}

// RunMR submits a MapReduce job and runs the simulation until it
// finishes (or the limit elapses, which panics: an experiment that
// cannot finish is a configuration bug worth failing loudly on).
func (tb *Testbed) RunMR(cfg mapreduce.JobConfig, limit time.Duration) *mapreduce.Job {
	j, err := tb.JT.Submit(cfg, tb.Eng.Clock().Seconds())
	if err != nil {
		panic(err)
	}
	if !tb.Stepper().RunUntil(j.Done, limit) {
		panic(fmt.Sprintf("experiments: job %s stuck in state %v", j.ID(), j.State()))
	}
	return j
}

// RunSpark submits a Spark application and runs until it finishes.
func (tb *Testbed) RunSpark(cfg spark.AppConfig, limit time.Duration) *spark.App {
	a, err := tb.Driver.Submit(cfg, tb.Eng.Clock().Seconds())
	if err != nil {
		panic(err)
	}
	if !tb.Stepper().RunUntil(a.Done, limit) {
		panic(fmt.Sprintf("experiments: app %s stuck at stage %d", a.ID(), a.StageIndex()))
	}
	return a
}

// CapAntagonistIOPS applies a static blkio IOPS cap to a named
// antagonist VM (the paper's static-capping baseline); frac is relative
// to the given solo rate.
func (tb *Testbed) CapAntagonistIOPS(name string, frac, soloIOPS float64) {
	vm := tb.Clus.FindVM(name)
	if vm == nil {
		panic(fmt.Sprintf("experiments: no antagonist %q", name))
	}
	vm.Cgroup().SetReadIOPS(frac * soloIOPS)
	vm.Server().MarkDirty()
}

// CapAntagonistCPU applies a static CPU quota, frac relative to the
// VM's vcpus.
func (tb *Testbed) CapAntagonistCPU(name string, frac float64) {
	vm := tb.Clus.FindVM(name)
	if vm == nil {
		panic(fmt.Sprintf("experiments: no antagonist %q", name))
	}
	vm.Cgroup().SetCPUCores(frac * vm.VCPUs())
	vm.Server().MarkDirty()
}

// ObserverConfig returns a PerfCloud config that records the detection
// signals without ever throttling — the instrumented "default system".
func ObserverConfig() *core.Config {
	cfg := core.DefaultConfig()
	cfg.ObserveOnly = true
	return &cfg
}

// ControllerConfig returns the standard active PerfCloud configuration.
func ControllerConfig() *core.Config {
	cfg := core.DefaultConfig()
	return &cfg
}

// FioSoloIOPS is fio's demand rate, its throughput when running alone on
// an idle device (verified by TestFioSoloRate).
const FioSoloIOPS = 8000
