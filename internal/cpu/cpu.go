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
	"cmp"
	"fmt"
	"math"
	"slices"
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

// Scheduler shares host cores across VMs each tick. Not safe for
// concurrent use; the cluster steps it from the simulation loop.
type Scheduler struct {
	cfg Config

	// Reused per-Allocate scratch (one scheduler serves one server, ticked
	// by a single goroutine, so plain fields suffice).
	clamped []float64
	fair    fairScratch

	// Input memo: the scheduler is a pure function of (tickSec, reqs), so
	// when a tick repeats last tick's inputs exactly — the steady state of
	// a busy server — the cached grants are returned without re-solving.
	memoValid  bool
	memoTick   float64
	memoReqs   []Request
	memoGrants []Grant

	// Memo accounting (plain fields: one scheduler serves one server's
	// ticking goroutine; read between ticks via MemoStats).
	memoHits   uint64
	memoMisses uint64
}

// MemoStats returns how many AllocateInto calls were served from the
// input memo (hits) versus fully solved (misses) over the scheduler's
// lifetime. Read it between ticks — the counters are owned by the
// goroutine ticking the server.
func (s *Scheduler) MemoStats() (hits, misses uint64) { return s.memoHits, s.memoMisses }

// InvalidateMemo drops the input memo, so the next AllocateInto solves
// its tick in full. The reference cluster calls it before every tick,
// and a server settling an all-idle tick calls it rather than priming the
// memo with zero demand; the memo only saves work, so dropping it cannot
// change a grant.
func (s *Scheduler) InvalidateMemo() { s.memoValid = false }

// New creates a scheduler.
func New(cfg Config) *Scheduler {
	s := new(Scheduler)
	s.Rearm(cfg)
	return s
}

// Rearm makes s the scheduler New(cfg) would return, with no memo and
// zero accounting, but keeps the storage of its scratch and memo buffers,
// so a recycled scheduler's first solves allocate nothing.
func (s *Scheduler) Rearm(cfg Config) {
	if cfg.Cores <= 0 || cfg.FreqHz <= 0 {
		panic(fmt.Sprintf("cpu: nonpositive config %+v", cfg))
	}
	*s = Scheduler{
		cfg:        cfg,
		clamped:    s.clamped[:0],
		fair:       s.fair.rearm(),
		memoReqs:   s.memoReqs[:0],
		memoGrants: s.memoGrants[:0],
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
	if s.memoValid && tickSec == s.memoTick && slices.Equal(reqs, s.memoReqs) {
		// Steady state: identical inputs produce identical grants, and the
		// scheduler has no per-tick internal state to advance.
		s.ReplaySteady()
		return append(dst, s.memoGrants...)
	}
	s.memoMisses++
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
	base := len(dst)
	if !anyDemand {
		// Quiescent fast path: all grants are zero; skip the fair share.
		for _, r := range reqs {
			dst = append(dst, Grant{ClientID: r.ClientID})
		}
		s.saveMemo(tickSec, reqs, dst[base:])
		return dst
	}
	shares := s.fair.fill(s.clamped, s.cfg.Cores*tickSec)
	for i, r := range reqs {
		dst = append(dst, Grant{ClientID: r.ClientID, Seconds: shares[i]})
	}
	s.saveMemo(tickSec, reqs, dst[base:])
	return dst
}

// ReplaySteady serves one memo hit: the scheduler is deterministic in its
// inputs and has no per-tick state, so grants copied from the memo are
// already exact and only the accounting advances. AllocateInto calls it
// on a value-compared hit; the cluster calls it on a tick whose unchanged
// request vector it proved by demand epochs, with the grant buffer still
// holding the memo's grants from the last tick.
func (s *Scheduler) ReplaySteady() { s.memoHits++ }

// saveMemo snapshots the inputs and grants of a fully solved tick so an
// identical next tick can skip the solve.
func (s *Scheduler) saveMemo(tickSec float64, reqs []Request, grants []Grant) {
	s.memoTick = tickSec
	s.memoReqs = append(s.memoReqs[:0], reqs...)
	s.memoGrants = append(s.memoGrants[:0], grants...)
	s.memoValid = true
}

// fairScratch holds the reusable buffers of one max-min fair computation.
type fairScratch struct {
	out []float64
	idx []int
}

// rearm returns empty scratch over f's storage.
func (f *fairScratch) rearm() fairScratch { return fairScratch{out: f.out[:0], idx: f.idx[:0]} }

// fill water-fills capacity across demands max-min fairly, returning a
// slice owned by the scratch (valid until the next fill call).
func (f *fairScratch) fill(demands []float64, capacity float64) []float64 {
	n := len(demands)
	if cap(f.out) < n {
		f.out = make([]float64, n)
	}
	f.out = f.out[:n]
	out := f.out
	for i := range out {
		out[i] = 0
	}
	if n == 0 {
		return out
	}
	var total float64
	for _, d := range demands {
		total += d
	}
	if total <= capacity {
		copy(out, demands)
		return out
	}
	f.idx = f.idx[:0]
	for i := 0; i < n; i++ {
		f.idx = append(f.idx, i)
	}
	idx := f.idx
	// Tied demands get the same share whichever order they sort in, so an
	// unstable sort is exact; SortFunc over the indexes allocates nothing.
	slices.SortFunc(idx, func(a, b int) int { return cmp.Compare(demands[a], demands[b]) })
	left := capacity
	for k, i := range idx {
		share := left / float64(n-k)
		if demands[i] <= share {
			out[i] = demands[i]
			left -= demands[i]
		} else {
			for _, j := range idx[k:] {
				out[j] = share
			}
			break
		}
	}
	return out
}
