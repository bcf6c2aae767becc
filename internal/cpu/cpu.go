// Package cpu models a physical server's CPU scheduler: each VM owns a
// number of vcpus, the host has a fixed core count, and the hypervisor can
// impose a hard cap (the CFS quota that libvirt exposes as vcpu_quota —
// the knob PerfCloud's CPU-control module actuates, §III-C).
//
// When aggregate demand exceeds physical cores the scheduler shares
// capacity max-min fairly, mirroring CFS's behaviour for equal-weight
// groups. The paper's testbed (48 cores hosting ~24 vcpus) rarely
// oversubscribes raw cores — the interesting CPU effect is the hard cap
// on antagonists — but the fair-share path matters for the large-scale
// mixes where sysbench-cpu VMs pile onto busy hosts.
package cpu

import (
	"fmt"
	"math"
	"slices"

	"perfcloud/internal/stats"
)

// Config describes the host CPU.
type Config struct {
	Cores  float64 // physical cores
	FreqHz float64 // nominal core frequency, cycles per second
}

// DefaultConfig mirrors the paper's Dell R630: 48 cores at 2.3 GHz.
func DefaultConfig() Config {
	return Config{Cores: 48, FreqHz: 2.3e9}
}

// Request is one VM's CPU demand for a tick.
type Request struct {
	ClientID string
	Seconds  float64 // core-seconds wanted this tick
	VCPUs    float64 // the VM's vcpu count (upper bound on parallelism)
	CapCores float64 // hard cap in cores (CFS quota); 0 = unlimited
}

// Grant is the scheduler's answer for one client for one tick.
type Grant struct {
	ClientID string
	Seconds  float64 // core-seconds granted
}

// Scheduler shares host cores across VMs each tick. It is a pure solver:
// its grants depend on the tick's inputs alone, and it keeps only scratch
// buffers between calls. Not safe for concurrent use; the cluster steps
// it from the simulation loop.
type Scheduler struct {
	cfg Config

	// Reused per-Allocate scratch (one scheduler serves one server, ticked
	// by a single goroutine, so plain fields suffice).
	clamped []float64
	fair    stats.WaterFill
}

// New creates a scheduler.
func New(cfg Config) *Scheduler {
	s := new(Scheduler)
	s.Rearm(cfg)
	return s
}

// Rearm makes s the scheduler New(cfg) would return, but keeps the
// storage of its scratch buffers, so a recycled scheduler's first solves
// allocate nothing.
func (s *Scheduler) Rearm(cfg Config) {
	if cfg.Cores <= 0 || cfg.FreqHz <= 0 {
		panic(fmt.Sprintf("cpu: nonpositive config %+v", cfg))
	}
	*s = Scheduler{
		cfg:     cfg,
		clamped: s.clamped[:0],
		fair:    s.fair.Rearm(),
	}
}

// Allocate grants core-seconds for one tick. Per-client demand is first
// clamped to the VM's vcpus and its hard cap; remaining contention for
// physical cores is resolved max-min fairly.
func (s *Scheduler) Allocate(tickSec float64, reqs []Request) []Grant {
	return s.AllocateInto(nil, tickSec, reqs)
}

// AllocateInto is Allocate appending into dst (usually dst[:0] of a
// caller-owned buffer), so the per-tick hot path allocates nothing once
// the buffers reach steady-state size.
func (s *Scheduler) AllocateInto(dst []Grant, tickSec float64, reqs []Request) []Grant {
	if tickSec <= 0 {
		panic("cpu: nonpositive tick")
	}
	dst = slices.Grow(dst, len(reqs))
	s.clamped = slices.Grow(s.clamped[:0], len(reqs))
	var anyDemand bool
	for _, r := range reqs {
		if r.Seconds < 0 {
			panic(fmt.Sprintf("cpu: negative demand from %s", r.ClientID))
		}
		d := r.Seconds
		if r.VCPUs > 0 {
			d = math.Min(d, r.VCPUs*tickSec)
		}
		if r.CapCores > 0 {
			d = math.Min(d, r.CapCores*tickSec)
		}
		anyDemand = anyDemand || d > 0
		s.clamped = append(s.clamped, d)
	}
	if !anyDemand {
		// Quiescent fast path: all grants are zero; skip the fair share.
		for _, r := range reqs {
			dst = append(dst, Grant{ClientID: r.ClientID})
		}
		return dst
	}
	shares := s.fair.Fill(s.clamped, s.cfg.Cores*tickSec)
	for i, r := range reqs {
		dst = append(dst, Grant{ClientID: r.ClientID, Seconds: shares[i]})
	}
	return dst
}
