// Package memsys models the shared processor resources of a physical
// server that the paper's second detection channel targets: the last
// level cache (LLC) and memory bandwidth (§II-C, §III-A2).
//
// Each tick, every VM's memory behaviour is summarised by its granted CPU
// time, its core CPI (cycles per instruction absent memory stalls), its
// LLC access intensity, and its working-set size. The model then:
//
//   - partitions LLC capacity between VMs in proportion to their access
//     rates (an occupancy model of a shared, non-partitioned cache), which
//     yields each VM's LLC miss *rate*;
//   - compares aggregate memory-bandwidth demand against the machine's
//     capacity; oversubscription inflates the per-miss stall penalty, with
//     a slowly varying per-VM luck factor (AR(1)) so that contention also
//     raises the *spread* of CPI across the VMs of a scale-out application
//     — the signal behind the paper's CPI-deviation detector (Fig. 4);
//   - reports effective CPI, instructions retired, cycles, LLC references
//     and misses — the quantities perf_event exposes per cgroup.
//
// A VM like STREAM (huge working set, high access intensity) both suffers
// a high miss rate and, more importantly, saturates bandwidth, degrading
// colocated VMs. Hard-capping its CPU quota reduces its granted CPU time
// and hence its bandwidth demand — the mechanism PerfCloud exploits.
package memsys

import (
	"fmt"
	"math"
	"slices"

	"perfcloud/internal/sim"
)

// Config describes the shared memory system.
type Config struct {
	LLCBytes          float64 // shared last-level cache capacity
	BandwidthCapacity float64 // memory bandwidth, bytes/second
	FreqHz            float64 // core frequency, cycles/second

	// MissPenaltyCPI is the CPI added per (LLC miss per instruction) on an
	// uncontended machine — i.e. effective stall cycles per miss.
	MissPenaltyCPI float64
	// CongestionScale controls how much bandwidth oversubscription
	// (demand/capacity - 1) inflates the miss penalty.
	CongestionScale float64
	// JitterStdDev / JitterCorr parameterise the per-VM AR(1) luck factor
	// applied to the congestion part of the penalty.
	JitterStdDev float64
	JitterCorr   float64
}

// DefaultConfig mirrors a two-socket Xeon host: 30 MiB LLC, ~60 GB/s of
// memory bandwidth, 2.3 GHz cores, and a 40-cycle effective miss penalty.
func DefaultConfig() Config {
	return Config{
		LLCBytes:          30 << 20,
		BandwidthCapacity: 60e9,
		FreqHz:            2.3e9,
		MissPenaltyCPI:    40,
		CongestionScale:   3.0,
		JitterStdDev:      0.7,
		// A ~40 s correlation time: which VM wins the memory-controller
		// arbitration is sticky, so the cross-VM CPI spread the detector
		// needs persists through 5 s sampling windows while each VM's own
		// time series stays stable within an identification window.
		JitterCorr: 0.9975,
	}
}

// Request is one VM's memory behaviour for a tick.
type Request struct {
	ClientID string
	// CPUSeconds is the CPU time granted to the VM this tick.
	CPUSeconds float64
	// CoreCPI is the VM's CPI with an infinite cache (no memory stalls).
	CoreCPI float64
	// LLCRefsPerInstr is the fraction of instructions referencing the LLC.
	LLCRefsPerInstr float64
	// BytesPerInstr is memory traffic intensity (bytes moved per instr).
	BytesPerInstr float64
	// WorkingSetBytes is the VM's active working set.
	WorkingSetBytes float64
}

// Result is the memory system's answer for one VM for one tick.
type Result struct {
	ClientID     string
	CPI          float64 // effective cycles per instruction
	Instructions float64 // instructions retired this tick
	Cycles       float64 // cycles consumed this tick
	LLCRefs      float64
	LLCMisses    float64
	MissRate     float64 // misses / references
	MemBytes     float64 // memory traffic generated this tick
}

// System is the shared LLC + bandwidth model. Not safe for concurrent
// use; the cluster steps it once per tick.
type System struct {
	cfg    Config
	jitter *sim.AR1

	lastPressure float64

	// Reused per-Compute scratch (one system serves one server, ticked by
	// a single goroutine, so plain fields suffice).
	nominalInstr []float64
	shares       []float64
	weights      []float64
	wants        []float64

	// The jitter slots of the last solved request vector's clients, in
	// request order, each resolved when the client is first stepped: a
	// client that never runs gets no jitter state. A solve with the same
	// clients steps by slot and skips the keep-set GC, and a memo hit
	// replays through them.
	clients sim.SlotCache

	// Input memo: everything upstream of the per-VM AR(1) luck draw —
	// nominal instruction rates, bandwidth pressure, LLC shares and miss
	// rates — is a pure function of (tickSec, reqs), so a tick repeating
	// last tick's inputs skips the solve. With pressure at or below
	// capacity the luck factors multiply a zero congestion term and the
	// cached results are returned wholesale (replaying the draws to keep
	// the seeded stream position identical). Under congestion the luck
	// factors feed the results, so the hit replays, per active client,
	// only the short draw-dependent tail of the arithmetic from the
	// cached draw-independent inputs in memoActive.
	memoValid   bool
	memoTick    float64
	memoOver    float64 // clipped congestion term of the memoized tick
	memoReqs    []Request
	memoResults []Result
	memoActive  []memoReplay // per stepped client, in draw order

	// Memo accounting (plain fields: one system serves one server's
	// ticking goroutine; read between ticks via MemoStats).
	memoHits   uint64
	memoMisses uint64
}

// memoReplay caches one active client's draw-independent inputs so a
// congested memo hit can recompute the client's results from this tick's
// luck draw alone, with the exact operand order of the full solve.
type memoReplay struct {
	resIdx   int32 // index into memoResults, the returned slice and the bound clients
	coreCPI  float64
	refs     float64 // LLCRefsPerInstr
	bytesPI  float64 // BytesPerInstr
	missRate float64
	cycles   float64
}

// MemoStats returns how many ComputeInto calls were served from the
// input memo (hits) versus fully solved (misses) over the system's
// lifetime. Read it between ticks — the counters are owned by the
// goroutine ticking the server.
func (s *System) MemoStats() (hits, misses uint64) { return s.memoHits, s.memoMisses }

// InvalidateMemo drops the input memo and the resolved client slots, so
// the next ComputeInto solves its tick in full and looks every client up
// by id. The reference cluster calls it before every tick; the memoized
// path yields the same results and leaves the seeded jitter stream in the
// same position, so dropping it cannot change a result.
func (s *System) InvalidateMemo() {
	s.memoValid = false
	s.clients.Reset()
}

// New creates a memory system with the given config, drawing its jitter
// from src.
func New(cfg Config, src *sim.Source) *System {
	s := new(System)
	s.Rearm(cfg, src)
	return s
}

// Rearm makes s the system New(cfg, src) would return, with no memo,
// client state or accounting, but keeps the storage of its scratch, memo
// buffers, client slots and jitter state, so a recycled system's first
// solves allocate nothing.
func (s *System) Rearm(cfg Config, src *sim.Source) {
	if cfg.LLCBytes <= 0 || cfg.BandwidthCapacity <= 0 || cfg.FreqHz <= 0 {
		panic(fmt.Sprintf("memsys: nonpositive config %+v", cfg))
	}
	jitter := s.jitter
	if jitter == nil {
		jitter = new(sim.AR1)
	}
	jitter.Rearm(cfg.JitterCorr, cfg.JitterStdDev, src)
	s.clients.Rearm()
	*s = System{
		cfg:          cfg,
		jitter:       jitter,
		nominalInstr: s.nominalInstr[:0],
		shares:       s.shares[:0],
		weights:      s.weights[:0],
		wants:        s.wants[:0],
		clients:      s.clients,
		memoReqs:     s.memoReqs[:0],
		memoResults:  s.memoResults[:0],
		memoActive:   s.memoActive[:0],
	}
}

// Config returns the memory system configuration.
func (s *System) Config() Config { return s.cfg }

// Pressure returns the bandwidth demand-to-capacity ratio observed on the
// most recent Compute call (may exceed 1 under oversubscription).
func (s *System) Pressure() float64 { return s.lastPressure }

// SettleIdle records an all-idle tick for n distinct clients without
// building a request vector: it leaves the system as a quiescent Compute
// would — zero pressure — except that the input memo is dropped rather
// than primed (a memo only saves work, so dropping it cannot change a
// result). Like a quiescent Compute it draws nothing: a quiescent
// computation steps no AR(1) jitter and consumes no randomness, which is
// what lets the cluster skip idle servers' grant phases outright.
// What a quiescent Compute also does is collect the jitter state of
// departed clients; SettleIdle reports whether there are enough of them
// for that to happen, and the caller then passes the present client ids
// to Retain. Otherwise the ids are not needed at all.
func (s *System) SettleIdle(n int) (collect bool) {
	s.lastPressure = 0
	s.memoValid = false
	return s.jitter.WouldCompact(n)
}

// Retain collects the jitter state of every client not among the k
// distinct ids id(0) … id(k-1); see SettleIdle.
func (s *System) Retain(k int, id func(i int) string) { s.jitter.Retain(k, id) }

// Compute resolves one tick of shared-cache and bandwidth behaviour.
// Results are returned in request order.
func (s *System) Compute(tickSec float64, reqs []Request) []Result {
	return s.ComputeInto(nil, tickSec, reqs)
}

// ComputeInto is Compute appending into dst (usually dst[:0] of a
// caller-owned buffer), so the per-tick hot path allocates nothing once
// the buffers reach steady-state size. The requests' client ids must be
// distinct.
func (s *System) ComputeInto(dst []Result, tickSec float64, reqs []Request) []Result {
	if tickSec <= 0 {
		panic("memsys: nonpositive tick")
	}
	if s.memoValid && tickSec == s.memoTick && slices.Equal(reqs, s.memoReqs) {
		base := len(dst)
		dst = append(dst, s.memoResults...)
		s.ReplaySteadyInPlace(dst[base:])
		return dst
	}
	s.memoMisses++

	// Nominal instruction rate (at core CPI) determines both LLC occupancy
	// weight and bandwidth demand. Using the stall-free rate here keeps the
	// computation a single pass; the resulting demand overestimate under
	// heavy contention is absorbed by the clip in the congestion term.
	dst = slices.Grow(dst, len(reqs))
	s.nominalInstr = slices.Grow(s.nominalInstr[:0], len(reqs))
	var totalDemand float64
	for _, r := range reqs {
		if r.CPUSeconds < 0 || r.CoreCPI <= 0 && r.CPUSeconds > 0 {
			panic(fmt.Sprintf("memsys: bad request %+v", r))
		}
		var nominal float64
		if r.CPUSeconds > 0 {
			nominal = r.CPUSeconds * s.cfg.FreqHz / r.CoreCPI
			totalDemand += nominal * r.BytesPerInstr
		}
		s.nominalInstr = append(s.nominalInstr, nominal)
	}
	nominalInstr := s.nominalInstr
	s.clients.Bind(s.jitter, len(reqs), func(i int) string { return reqs[i].ClientID })

	// Quiescent fast path: no VM ran, so every result is zero and the
	// cache/bandwidth model has nothing to resolve. Like the disk's idle
	// path, this consumes no randomness, keeping an all-idle tick a strict
	// no-op that the cluster's quiescence optimization may skip.
	var anyActive bool
	for _, nominal := range nominalInstr {
		if nominal > 0 {
			anyActive = true
			break
		}
	}
	base := len(dst)
	if !anyActive {
		s.lastPressure = 0
		for _, r := range reqs {
			dst = append(dst, Result{ClientID: r.ClientID})
		}
		s.clients.Settle(s.jitter)
		s.memoActive = s.memoActive[:0]
		s.memoOver = 0
		s.saveMemo(tickSec, reqs, dst[base:])
		return dst
	}

	// Bandwidth pressure and congestion-driven penalty inflation.
	pressure := totalDemand / (s.cfg.BandwidthCapacity * tickSec)
	s.lastPressure = pressure
	over := math.Max(0, pressure-1)
	if over > 3 {
		over = 3 // saturate: queues cannot grow without bound in a tick
	}

	shares := s.llcShares(s.cfg.LLCBytes, reqs, nominalInstr)

	// Only the clients that ran draw, in request order: the others get no
	// jitter state.
	var buf [sim.StackBatch]int32
	active := buf[:0]
	if len(reqs) > sim.StackBatch {
		active = make([]int32, 0, len(reqs))
	}
	for i, r := range reqs {
		if r.CPUSeconds != 0 && nominalInstr[i] != 0 {
			active = append(active, int32(i))
		}
	}
	s.clients.StepAt(s.jitter, active)

	s.memoActive = slices.Grow(s.memoActive[:0], len(reqs))
	s.memoOver = over
	slots, lucks := s.clients.Values(s.jitter)
	for i, r := range reqs {
		res := Result{ClientID: r.ClientID}
		if r.CPUSeconds == 0 || nominalInstr[i] == 0 {
			dst = append(dst, res)
			continue
		}
		res.MissRate = missRate(r.WorkingSetBytes, shares[i])

		luck := 1 + lucks[slots[i]]
		if luck < 0 {
			luck = 0
		}
		penalty := s.cfg.MissPenaltyCPI * (1 + s.cfg.CongestionScale*over*luck)
		res.CPI = r.CoreCPI + r.LLCRefsPerInstr*res.MissRate*penalty

		res.Cycles = r.CPUSeconds * s.cfg.FreqHz
		res.Instructions = res.Cycles / res.CPI
		res.LLCRefs = res.Instructions * r.LLCRefsPerInstr
		res.LLCMisses = res.LLCRefs * res.MissRate
		res.MemBytes = res.Instructions * r.BytesPerInstr
		s.memoActive = append(s.memoActive, memoReplay{
			resIdx:  int32(i),
			coreCPI: r.CoreCPI, refs: r.LLCRefsPerInstr, bytesPI: r.BytesPerInstr,
			missRate: res.MissRate, cycles: res.Cycles,
		})
		dst = append(dst, res)
	}
	s.clients.Settle(s.jitter)
	s.saveMemo(tickSec, reqs, dst[base:])
	return dst
}

// saveMemo snapshots the inputs and results of a fully computed tick
// (the caller has already recorded the per-client replay inputs in
// memoActive) so an identical next tick can skip the solve.
func (s *System) saveMemo(tickSec float64, reqs []Request, results []Result) {
	s.memoTick = tickSec
	s.memoReqs = append(s.memoReqs[:0], reqs...)
	s.memoResults = append(s.memoResults[:0], results...)
	s.memoValid = true
}

// ReplaySteadyInPlace serves one memo hit in results, which must hold the
// memo's results (len(results) == len(memoResults)). Everything upstream
// of the luck draws is cached; the draws the full solve would consume are
// still taken — the stream position is part of the model's observable
// state — and, under congestion, the short draw-dependent tail of the
// arithmetic is re-evaluated operand for operand as the full solve does.
// The keep-set GC is skipped, a no-op after an unchanged tick.
// ComputeInto calls it on a value-compared hit; the cluster calls it on a
// tick whose unchanged request vector it proved by demand epochs, with
// the result buffer still holding the memo's results from the last tick.
func (s *System) ReplaySteadyInPlace(results []Result) {
	s.memoHits++
	s.clients.Revalidate(s.jitter)
	var buf [sim.StackBatch]int32
	active := buf[:0]
	if len(s.memoActive) > sim.StackBatch {
		active = make([]int32, 0, len(s.memoActive))
	}
	for i := range s.memoActive {
		active = append(active, s.memoActive[i].resIdx)
	}
	s.clients.StepAt(s.jitter, active)
	if s.memoOver == 0 {
		// Uncongested: the luck factors multiply a zero congestion term,
		// so the buffered results are already exact; only the seeded
		// stream position advances.
		return
	}
	slots, lucks := s.clients.Values(s.jitter)
	for i := range s.memoActive {
		m := &s.memoActive[i]
		luck := 1 + lucks[slots[m.resIdx]]
		if luck < 0 {
			luck = 0
		}
		penalty := s.cfg.MissPenaltyCPI * (1 + s.cfg.CongestionScale*s.memoOver*luck)
		r := &results[m.resIdx]
		r.CPI = m.coreCPI + m.refs*m.missRate*penalty
		r.Instructions = m.cycles / r.CPI
		r.LLCRefs = r.Instructions * m.refs
		r.LLCMisses = r.LLCRefs * m.missRate
		r.MemBytes = r.Instructions * m.bytesPI
	}
}

// llcShares partitions the cache between clients by water-filling on
// occupancy weight (reference rate): a client whose entire working set
// fits within its proportional share occupies only the working set, and
// the freed capacity is redistributed among the cache-hungry clients.
// This keeps a small-footprint VM (e.g. sysbench cpu) effectively fully
// cached even next to a streaming antagonist, as real LRU-like shared
// caches do for hot small sets. The returned slice is scratch owned by the
// system, valid until the next call.
func (s *System) llcShares(llc float64, reqs []Request, nominalInstr []float64) []float64 {
	n := len(reqs)
	shares, weights, wants := growZeroed(&s.shares, n), growZeroed(&s.weights, n), growZeroed(&s.wants, n)
	// wants[i] tracks how much more cache the client could still use.
	nActive := 0
	for i, r := range reqs {
		weights[i] = nominalInstr[i] * r.LLCRefsPerInstr
		if weights[i] > 0 {
			nActive++
			wants[i] = r.WorkingSetBytes
		}
	}
	if nActive == 0 {
		return shares
	}
	// Protected floor: a re-referenced hot set survives streaming pressure
	// (real replacement policies approximate this), so every active client
	// keeps up to half an equal split, capped at its working set.
	remaining := llc
	floor := 0.5 * llc / float64(nActive)
	for i := range reqs {
		if weights[i] == 0 {
			continue
		}
		shares[i] = math.Min(wants[i], floor)
		wants[i] -= shares[i]
		remaining -= shares[i]
	}
	// Water-fill the rest by occupancy weight, capping at the working set.
	for iter := 0; iter <= n && remaining > 1e-9; iter++ {
		var wsum float64
		for i := range reqs {
			if wants[i] > 0 {
				wsum += weights[i]
			}
		}
		if wsum == 0 {
			break
		}
		settled := false
		for i := range reqs {
			if wants[i] <= 0 || weights[i] == 0 {
				continue
			}
			prop := remaining * weights[i] / wsum
			if wants[i] <= prop {
				shares[i] += wants[i]
				remaining -= wants[i]
				wants[i] = 0
				settled = true
			}
		}
		if !settled {
			for i := range reqs {
				if wants[i] > 0 {
					grant := remaining * weights[i] / wsum
					shares[i] += grant
					wants[i] -= grant
				}
			}
			break
		}
	}
	return shares
}

// growZeroed resizes *buf to n elements, reusing capacity, and returns it
// zeroed.
func growZeroed(buf *[]float64, n int) []float64 {
	if cap(*buf) < n {
		*buf = make([]float64, n)
	}
	*buf = (*buf)[:n]
	out := *buf
	for i := range out {
		out[i] = 0
	}
	return out
}

// missRate maps a working set against a cache share: a working set that
// fits in its share barely misses; beyond that, misses approach the
// streaming limit as share/ws shrinks.
func missRate(workingSet, share float64) float64 {
	const coldMiss = 0.02
	if workingSet <= 0 {
		return coldMiss
	}
	if share >= workingSet {
		return coldMiss
	}
	return coldMiss + (1-coldMiss)*(1-share/workingSet)
}
