// Package cgroup emulates the slice of the Linux control-group interface
// that PerfCloud observes and actuates: the blkio subsystem's cumulative
// I/O accounting (io_serviced, io_service_bytes, io_wait_time) and
// throttling knobs (IOPS and bytes-per-second caps), the cpuacct usage
// counter with the CFS quota knob, and the perf_event counters (cycles,
// instructions, LLC references/misses) that the paper samples in counting
// mode per cgroup.
//
// Exactly one cgroup exists per VM, mirroring the paper's setup where each
// KVM domain is mapped to a cgroup. Counters are cumulative from "boot";
// consumers compute deltas between measurement intervals, as the paper's
// performance monitor does (§III-D1).
package cgroup

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// BlkioCounters are the cumulative block-I/O statistics for one cgroup,
// mirroring blkio.io_serviced, blkio.io_service_bytes and
// blkio.io_wait_time. WaitTimeMs is kept in milliseconds: the detector's
// iowait-ratio threshold (H_io = 10) is expressed in ms per operation.
type BlkioCounters struct {
	IoServiced     float64 // operations completed
	IoServiceBytes float64 // bytes transferred
	IoWaitTimeMs   float64 // total time ops spent waiting for service, ms
}

// CPUCounters are the cumulative cpuacct statistics for one cgroup.
type CPUCounters struct {
	UsageSeconds float64 // core-seconds consumed
}

// PerfCounters are the cumulative hardware-counter readings attributed to
// one cgroup, as perf_event reports in per-cgroup counting mode.
type PerfCounters struct {
	Cycles        float64
	Instructions  float64
	LLCReferences float64
	LLCMisses     float64
}

// CPI returns cycles per instruction over the whole counter lifetime,
// or 0 when no instructions have retired.
func (p PerfCounters) CPI() float64 {
	if p.Instructions == 0 {
		return 0
	}
	return p.Cycles / p.Instructions
}

// Throttle holds the resource caps applied to a cgroup. Zero means
// "no cap" for each knob, matching the kernel's unlimited default.
type Throttle struct {
	ReadIOPS float64 // blkio.throttle.read_iops_device, ops/sec
	ReadBPS  float64 // blkio.throttle.read_bps_device, bytes/sec
	CPUCores float64 // CFS quota expressed in cores (quota/period)
}

// Active reports whether any limit is in force (a zero value on every
// knob means unthrottled, cgroup convention).
func (t Throttle) Active() bool {
	return t.ReadIOPS > 0 || t.ReadBPS > 0 || t.CPUCores > 0
}

// Counters is a point-in-time snapshot of all cumulative counters.
type Counters struct {
	Blkio BlkioCounters
	CPU   CPUCounters
	Perf  PerfCounters
}

// Cgroup is one control group. All methods are safe for concurrent use:
// the resource models write from the simulation tick while monitors may
// snapshot from test code.
type Cgroup struct {
	name string

	mu       sync.Mutex // guards counters and serializes SetThrottle
	counters Counters

	// throttle points at the caps in force (nil: none ever set). Each
	// SetThrottle stores a fresh copy, so per-tick readers load the caps
	// with one atomic read instead of a mutex round-trip.
	throttle atomic.Pointer[Throttle]

	// throttleSeq counts SetThrottle calls. Loading it is a single atomic
	// read, so per-tick code can detect "caps unchanged since my snapshot"
	// without comparing the caps themselves.
	throttleSeq atomic.Uint64
}

// New creates an empty cgroup with the given name (conventionally the VM id).
func New(name string) *Cgroup {
	c := new(Cgroup)
	c.Init(name)
	return c
}

// Init names a zero Cgroup in place. The zero value needs no other set-up,
// so an owner can embed a Cgroup by value (the cluster keeps one inside
// each VM, saving an allocation per boot) and call Init instead of New.
func (c *Cgroup) Init(name string) { c.name = name }

// Name returns the cgroup's name.
func (c *Cgroup) Name() string { return c.name }

// AddBlkio accumulates one tick's worth of block-I/O activity.
func (c *Cgroup) AddBlkio(ops, bytes, waitMs float64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.counters.Blkio.IoServiced += ops
	c.counters.Blkio.IoServiceBytes += bytes
	c.counters.Blkio.IoWaitTimeMs += waitMs
}

// AddCPU accumulates consumed core-seconds.
func (c *Cgroup) AddCPU(coreSeconds float64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.counters.CPU.UsageSeconds += coreSeconds
}

// AddPerf accumulates hardware-counter readings.
func (c *Cgroup) AddPerf(cycles, instructions, llcRefs, llcMisses float64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.counters.Perf.Cycles += cycles
	c.counters.Perf.Instructions += instructions
	c.counters.Perf.LLCReferences += llcRefs
	c.counters.Perf.LLCMisses += llcMisses
}

// AddTick accumulates one tick's worth of everything — blkio, cpuacct
// and perf — under a single lock round-trip. Equivalent to AddBlkio +
// AddCPU + AddPerf; the cluster's per-tick accounting uses it so each VM
// costs one mutex acquisition per tick instead of three.
func (c *Cgroup) AddTick(ops, bytes, waitMs, coreSeconds, cycles, instructions, llcRefs, llcMisses float64) {
	if ops == 0 && bytes == 0 && waitMs == 0 && coreSeconds == 0 &&
		cycles == 0 && instructions == 0 && llcRefs == 0 && llcMisses == 0 {
		// A tick that delivered nothing leaves every counter bit-identical:
		// the counters are sums of nonnegative values (so never -0), and
		// adding zero to such a float is exact. Skipping the lock round-trip
		// makes idle-VM ticks on busy servers free.
		return
	}
	c.mu.Lock()
	c.counters.Blkio.IoServiced += ops
	c.counters.Blkio.IoServiceBytes += bytes
	c.counters.Blkio.IoWaitTimeMs += waitMs
	c.counters.CPU.UsageSeconds += coreSeconds
	c.counters.Perf.Cycles += cycles
	c.counters.Perf.Instructions += instructions
	c.counters.Perf.LLCReferences += llcRefs
	c.counters.Perf.LLCMisses += llcMisses
	c.mu.Unlock()
}

// Snapshot returns a copy of all cumulative counters.
func (c *Cgroup) Snapshot() Counters {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.counters
}

// Throttle returns the currently applied caps. It takes no lock.
func (c *Cgroup) Throttle() Throttle {
	if t := c.throttle.Load(); t != nil {
		return *t
	}
	return Throttle{}
}

// SetThrottle replaces all caps at once.
func (c *Cgroup) SetThrottle(t Throttle) {
	if t.ReadIOPS < 0 || t.ReadBPS < 0 || t.CPUCores < 0 {
		panic(fmt.Sprintf("cgroup %s: negative throttle %+v", c.name, t))
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.throttle.Store(&t)
	c.throttleSeq.Add(1)
}

// ThrottleSeq returns a counter that advances on every SetThrottle call.
// A caller that snapshotted the caps may later compare sequence numbers
// to learn — without taking the cgroup lock — that they are still in
// force.
func (c *Cgroup) ThrottleSeq() uint64 { return c.throttleSeq.Load() }

// SetReadIOPS sets the IOPS cap (0 = unlimited).
func (c *Cgroup) SetReadIOPS(v float64) {
	t := c.Throttle()
	t.ReadIOPS = v
	c.SetThrottle(t)
}

// SetReadBPS sets the bytes-per-second cap (0 = unlimited).
func (c *Cgroup) SetReadBPS(v float64) {
	t := c.Throttle()
	t.ReadBPS = v
	c.SetThrottle(t)
}

// SetCPUCores sets the CFS quota in cores (0 = unlimited).
func (c *Cgroup) SetCPUCores(v float64) {
	t := c.Throttle()
	t.CPUCores = v
	c.SetThrottle(t)
}

// Delta computes the counter difference now - prev, used by monitors that
// sample cumulative counters at fixed intervals.
func Delta(now, prev Counters) Counters {
	return Counters{
		Blkio: BlkioCounters{
			IoServiced:     now.Blkio.IoServiced - prev.Blkio.IoServiced,
			IoServiceBytes: now.Blkio.IoServiceBytes - prev.Blkio.IoServiceBytes,
			IoWaitTimeMs:   now.Blkio.IoWaitTimeMs - prev.Blkio.IoWaitTimeMs,
		},
		CPU: CPUCounters{
			UsageSeconds: now.CPU.UsageSeconds - prev.CPU.UsageSeconds,
		},
		Perf: PerfCounters{
			Cycles:        now.Perf.Cycles - prev.Perf.Cycles,
			Instructions:  now.Perf.Instructions - prev.Perf.Instructions,
			LLCReferences: now.Perf.LLCReferences - prev.Perf.LLCReferences,
			LLCMisses:     now.Perf.LLCMisses - prev.Perf.LLCMisses,
		},
	}
}

// IowaitRatio returns the average queueing delay per I/O operation
// (ms/op) over a delta interval — the paper's block-iowait ratio,
// blkio.io_wait_time / blkio.io_serviced. Intervals with no completed
// operations report 0: an idle VM contributes no deviation signal.
func (c Counters) IowaitRatio() float64 {
	if c.Blkio.IoServiced == 0 {
		return 0
	}
	return c.Blkio.IoWaitTimeMs / c.Blkio.IoServiced
}
