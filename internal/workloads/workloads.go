// Package workloads implements the antagonist and decoy benchmarks the
// paper colocates with the data-intensive applications: the fio random
// read I/O stressor, the STREAM memory-bandwidth stressor, and the
// sysbench oltp / sysbench cpu decoys (§II, §III-B).
//
// Every benchmark is a cluster.Workload built from a steady-state demand
// Profile and an on/off BurstPattern. Bursts matter for two reasons drawn
// from the paper's methodology: antagonist identification correlates the
// victim's deviation signal with each suspect's activity over time (a
// perfectly constant suspect carries no correlation signal), and idle
// phases produce the missing measurement intervals that exercise the
// missing-as-zero Pearson rule of §III-B.
package workloads

import (
	"fmt"
	"time"

	"perfcloud/internal/cluster"
)

// Profile is a benchmark's steady-state demand while in an "on" phase,
// expressed per second of wall time.
type Profile struct {
	CPUCores float64 // cores of CPU demand
	IOPS     float64 // block I/O operations per second
	OpBytes  float64 // bytes per operation

	// Memory behaviour (see memsys.Request).
	CoreCPI         float64
	LLCRefsPerInstr float64
	BytesPerInstr   float64
	WorkingSetBytes float64
}

// BurstPattern alternates on and off phases. A zero Off means always on.
type BurstPattern struct {
	On          time.Duration // length of an active phase
	Off         time.Duration // length of an idle phase (0 = always on)
	StartOffset time.Duration // delay before the first active phase
}

// AlwaysOn is the degenerate burst pattern with no idle phases.
var AlwaysOn = BurstPattern{}

// active reports whether the pattern is in an "on" phase at elapsed t.
func (b BurstPattern) active(t time.Duration) bool {
	if t < b.StartOffset {
		return false
	}
	if b.Off <= 0 || b.On <= 0 {
		return true
	}
	period := b.On + b.Off
	return (t-b.StartOffset)%period < b.On
}

// Limits terminate a benchmark once a nonzero threshold is reached;
// zero limits mean the benchmark runs until the scenario ends.
type Limits struct {
	MemBytes float64 // total memory traffic (STREAM's work metric)
}

// Benchmark is a synthetic workload driven by a Profile and BurstPattern.
// It implements cluster.Workload. Its demand is its constant profile gated
// by Active, so it changes exactly on burst-phase flips and on completion
// (a limit reached), both of which happen inside Advance; Advance reports
// them, and between them a server may replay its last tick.
type Benchmark struct {
	name    string
	profile Profile
	pattern BurstPattern
	limits  Limits
	harm    string // resource channel this benchmark genuinely pressures

	elapsed    time.Duration // simulated wall time observed via Advance
	activeSecs float64       // seconds spent in "on" phases

	totalOps      float64
	totalMemBytes float64
}

var _ cluster.Workload = (*Benchmark)(nil)

// NewBenchmark builds a benchmark from its parts.
func NewBenchmark(name string, p Profile, b BurstPattern, l Limits) *Benchmark {
	if p.CPUCores < 0 || p.IOPS < 0 {
		panic(fmt.Sprintf("workloads: negative profile %+v", p))
	}
	return &Benchmark{name: name, profile: p, pattern: b, limits: l}
}

// Name returns the benchmark's name.
func (w *Benchmark) Name() string { return w.name }

// Pattern returns the benchmark's burst schedule — the testbed's
// ground-truth registry records it so detection scorecards can compute
// when an antagonist was genuinely active.
func (w *Benchmark) Pattern() BurstPattern { return w.pattern }

// HarmChannel names the resource channel the benchmark saturates when
// active — "io" (fio), "cpu" (STREAM's bandwidth pressure surfaces as
// CPI inflation) or "" for decoys that never harm colocated tenants.
// It is ground truth for scoring, invisible to the detector itself.
func (w *Benchmark) HarmChannel() string { return w.harm }

// Active reports whether the benchmark is currently in an "on" phase.
func (w *Benchmark) Active() bool { return w.pattern.active(w.elapsed) && !w.Done() }

// Demand implements cluster.Workload.
func (w *Benchmark) Demand(tickSec float64) cluster.Demand {
	if !w.Active() {
		return cluster.Demand{}
	}
	p := w.profile
	return cluster.Demand{
		CPUSeconds:      p.CPUCores * tickSec,
		IOOps:           p.IOPS * tickSec,
		IOBytes:         p.IOPS * p.OpBytes * tickSec,
		CoreCPI:         p.CoreCPI,
		LLCRefsPerInstr: p.LLCRefsPerInstr,
		BytesPerInstr:   p.BytesPerInstr,
		WorkingSetBytes: p.WorkingSetBytes,
	}
}

// Advance implements cluster.Workload. It reports a burst-phase flip or
// a limit reached: the only changes to the benchmark's Demand and Done.
// A limit can only be reached while active, so it also flips Active.
func (w *Benchmark) Advance(nowSec, tickSec float64, g cluster.Grant) bool {
	wasActive := w.Active()
	if wasActive {
		w.activeSecs += tickSec
	}
	w.elapsed += time.Duration(tickSec * float64(time.Second))
	w.totalOps += g.IOOps
	w.totalMemBytes += g.MemBytes
	return w.Active() != wasActive
}

// Done implements cluster.Workload: a benchmark that reached its limit
// demands nothing ever again, so once every workload on a server reports
// Done the server may be parked out of the active set.
func (w *Benchmark) Done() bool {
	return w.limits.MemBytes > 0 && w.totalMemBytes >= w.limits.MemBytes
}

// AchievedIOPS is the benchmark's average I/O rate over its active time —
// the metric the paper reports for fio (normalized against running alone).
func (w *Benchmark) AchievedIOPS() float64 {
	if w.activeSecs == 0 {
		return 0
	}
	return w.totalOps / w.activeSecs
}

// Elapsed returns total simulated wall time observed by the benchmark.
func (w *Benchmark) Elapsed() time.Duration { return w.elapsed }

// NewFioRandRead builds the fio 4 KiB random-read stressor: a saturating
// small-op read load with negligible cache footprint. With default device
// capacity (10k IOPS) its 8k IOPS demand makes any colocated I/O-bound
// application contend heavily, reproducing Fig. 1's degradations.
func NewFioRandRead(pattern BurstPattern) *Benchmark {
	b := NewBenchmark("fio-randread", Profile{
		CPUCores:        0.4,
		IOPS:            8000,
		OpBytes:         4096,
		CoreCPI:         1.2,
		LLCRefsPerInstr: 0.005,
		BytesPerInstr:   0.05,
		WorkingSetBytes: 4 << 20,
	}, pattern, Limits{})
	b.harm = "io"
	return b
}

// NewStream builds the STREAM memory-bandwidth stressor: the paper runs
// it with eight threads over a two-billion-element array, i.e. a working
// set that dwarfs the LLC and a saturating bandwidth demand. Inside a
// 2-vcpu VM its CPU demand clamps at the vcpus; two such VMs together
// oversubscribe the default 60 GB/s host (the paper's "group of
// antagonists that individually do not have much effect", §III-B).
func NewStream(pattern BurstPattern) *Benchmark {
	b := NewBenchmark("stream", Profile{
		CPUCores:        8, // 8 threads; the VM's vcpus clamp applies
		IOPS:            0,
		CoreCPI:         0.7,
		LLCRefsPerInstr: 0.15,
		BytesPerInstr:   8,
		WorkingSetBytes: 16 << 30,
	}, pattern, Limits{})
	b.harm = "cpu"
	return b
}

// NewStreamWithWork is NewStream with a finite amount of memory traffic to
// move, after which the benchmark completes (Fig. 10's STREAM "finishes at
// different times under different schemes").
func NewStreamWithWork(pattern BurstPattern, totalBytes float64) *Benchmark {
	b := NewStream(pattern)
	b.limits.MemBytes = totalBytes
	return b
}

// NewSysbenchOLTP builds the sysbench read-only MySQL decoy: eight worker
// threads against a 10M-row table — moderate mixed I/O and CPU, far from
// saturating either resource.
func NewSysbenchOLTP(pattern BurstPattern) *Benchmark {
	return NewBenchmark("sysbench-oltp", Profile{
		CPUCores:        1.0,
		IOPS:            400,
		OpBytes:         16384,
		CoreCPI:         1.1,
		LLCRefsPerInstr: 0.02,
		BytesPerInstr:   0.4,
		WorkingSetBytes: 50 << 20,
	}, pattern, Limits{})
}

// NewSysbenchCPU builds the sysbench prime-computation decoy: four
// compute-bound threads with a tiny working set and no I/O.
func NewSysbenchCPU(pattern BurstPattern) *Benchmark {
	return NewBenchmark("sysbench-cpu", Profile{
		CPUCores:        4,
		IOPS:            0,
		CoreCPI:         0.6,
		LLCRefsPerInstr: 0.001,
		BytesPerInstr:   0.01,
		WorkingSetBytes: 1 << 20,
	}, pattern, Limits{})
}
