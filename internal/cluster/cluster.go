// Package cluster assembles the simulated testbed: physical servers
// (each owning a shared disk, CPU scheduler and memory system), the VMs
// placed on them (each owning a cgroup), and the per-tick resource
// pipeline that turns workload demand into granted resources and
// cumulative cgroup/perf counters.
//
// The pipeline per server per tick is:
//
//  1. every VM's workload declares Demand;
//  2. the CPU scheduler grants core-seconds (honouring CFS quota caps
//     from the cgroup — PerfCloud's CPU hard-capping knob);
//  3. the memory system converts granted CPU into instructions retired,
//     effective CPI and LLC traffic under shared-cache and bandwidth
//     contention;
//  4. the disk grants IOPS/bytes (honouring blkio throttle caps) and
//     charges queueing delay;
//  5. cgroup counters accumulate; the workload consumes the Grant.
//
// Everything above the pipeline (frameworks, antagonist benchmarks,
// PerfCloud itself) interacts only through Workload, the cgroup counters
// and the hypervisor facade, mirroring the black-box VM boundary the
// paper works within.
package cluster

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"perfcloud/internal/cgroup"
	"perfcloud/internal/cpu"
	"perfcloud/internal/disk"
	"perfcloud/internal/memsys"
	"perfcloud/internal/obs"
	"perfcloud/internal/sim"
)

// Priority mirrors the paper's two-level VM priority assigned by the
// cloud administrator (§I): PerfCloud protects high-priority applications
// by throttling low-priority antagonists.
type Priority int

const (
	// LowPriority VMs may be throttled to protect high-priority ones.
	LowPriority Priority = iota
	// HighPriority VMs host the data-intensive scale-out applications.
	HighPriority
)

// String returns "high" or "low".
func (p Priority) String() string {
	if p == HighPriority {
		return "high"
	}
	return "low"
}

// Demand is a workload's resource request for one tick.
type Demand struct {
	CPUSeconds float64 // core-seconds wanted
	IOOps      float64 // block I/O operations wanted
	IOBytes    float64 // block I/O bytes wanted

	// Memory behaviour while executing (see memsys.Request).
	CoreCPI         float64
	LLCRefsPerInstr float64
	BytesPerInstr   float64
	WorkingSetBytes float64
}

// Grant is what the pipeline actually delivered for one tick.
type Grant struct {
	CPUSeconds   float64
	Instructions float64
	CPI          float64
	IOOps        float64
	IOBytes      float64
	IOWaitMs     float64
	MemBytes     float64
}

// Workload is implemented by everything that runs inside a VM: antagonist
// benchmarks and framework task executors. Demand is called once per tick
// followed by Advance with the granted resources.
//
// Demand changes are pushed, not polled. Demand is piecewise constant
// between discrete events — the fluid-model norm — so while nothing has
// reported a change, a server replays its last tick's allocation instead
// of calling Demand again (DESIGN.md §5.1): Demand must be free of side
// effects, since replayed ticks skip the call entirely. A change arises
// in one of two places. Inside Advance, the workload reports it through
// Advance's result; anywhere else (a launch, a kill, a re-armed
// workload), whatever changes the workload calls Server.MarkDirty.
type Workload interface {
	// Name identifies the workload for logs and traces.
	Name() string
	// Demand returns the workload's resource request for a tick of the
	// given length in seconds.
	Demand(tickSec float64) Demand
	// Advance consumes the grant of the tick that starts at simulated
	// time nowSec and lasts tickSec seconds. It reports whether the next
	// Demand or Done result may differ from this tick's (for the same
	// tick length); a workload that cannot bound its changes returns
	// true, which makes its server rebuild every tick.
	Advance(nowSec, tickSec float64, g Grant) bool
	// Done reports whether the workload demands nothing until it is
	// re-armed, and re-arming dirties the server: an idle executor, a
	// finished benchmark.
	//
	// While every VM on a server reports true, the server parks and is
	// not visited at all (DESIGN.md §5.1), so a transition back to false
	// is only observed after something calls Server.MarkDirty (as the cap
	// setters, placement changes and SetWorkload do). A workload that can
	// re-arm itself — an executor taking a launch — must dirty its server
	// when it does.
	Done() bool
}

// VM is one virtual machine: a cgroup, a placement, and (optionally) a
// running workload. VMs appear as black boxes to PerfCloud, which sees
// only the cgroup counters and throttle knobs.
//
// The cgroup is embedded by value and named by the VM id, which it also
// stores for the VM: a boot allocates one object, not two. VMs are only
// ever handled by pointer, so the cgroup's lock is never copied. What only
// the tick needs — the last grant, the idle flag — lives in vectors of the
// hosting server instead, so the million idle VMs of a planet-scale fleet
// do not carry it.
type VM struct {
	vcpus    float64
	priority Priority
	appID    string
	cg       cgroup.Cgroup
	server   *Server
	workload Workload
}

// ID returns the VM's unique identifier.
func (v *VM) ID() string { return v.cg.Name() }

// VCPUs returns the VM's virtual CPU count.
func (v *VM) VCPUs() float64 { return v.vcpus }

// Priority returns the VM's administrator-assigned priority.
func (v *VM) Priority() Priority { return v.priority }

// AppID returns the identifier of the application this VM belongs to
// ("" when the VM is standalone). All VMs of one scale-out application
// share an AppID; the node manager groups them by it.
func (v *VM) AppID() string { return v.appID }

// Cgroup returns the VM's control group (counters + throttle knobs).
func (v *VM) Cgroup() *cgroup.Cgroup { return &v.cg }

// Server returns the physical server hosting the VM.
func (v *VM) Server() *Server { return v.server }

// SetWorkload attaches (or, with nil, detaches) the VM's workload.
func (v *VM) SetWorkload(w Workload) {
	v.workload = w
	v.server.MarkDirty()
}

// Idle reports whether the VM has no runnable workload this tick.
func (v *VM) Idle() bool { return v.workload == nil || v.workload.Done() }

// LastGrant returns the resources delivered on the most recent tick (zero
// once the VM is removed). Only tests read it — PerfCloud observes cgroup
// counters only — so it looks the VM up in its server's grant vector
// rather than keeping a copy per VM.
func (v *VM) LastGrant() Grant {
	i := slices.Index(v.server.vms, v)
	if i < 0 {
		return Grant{}
	}
	return v.server.grant(i)
}

// ServerConfig bundles the per-server resource model configurations.
type ServerConfig struct {
	Disk disk.Config
	CPU  cpu.Config
	Mem  memsys.Config
}

// DefaultServerConfig mirrors the paper's Dell PowerEdge R630 hosts.
func DefaultServerConfig() ServerConfig {
	return ServerConfig{
		Disk: disk.DefaultConfig(),
		CPU:  cpu.DefaultConfig(),
		Mem:  memsys.DefaultConfig(),
	}
}

// Server is one physical machine.
type Server struct {
	id  string
	cfg ServerConfig
	kit

	// clus and index tie the server back to its cluster and its stable
	// position in the creation-order server slice; the tick keys its
	// active bitset and shard ranges on index.
	clus  *Cluster
	index int

	// active records membership in the cluster's active set. Inactive
	// servers are provably quiescent and are not visited at all by the
	// tick — the O(active) contract of DESIGN.md §5.1.
	active bool

	// skipFrom is the cluster tick count at deactivation; the wake path
	// derives the number of elided grant-phase ticks from it instead of
	// counting them one by one.
	skipFrom uint64

	// epoch counts placement changes (VM add/remove/migrate). Samplers key
	// slice-indexed per-domain state on it: while the epoch is unchanged,
	// EachVM reports the same domains in the same order, so a cached index
	// stays valid and per-id lookups can be skipped entirely.
	epoch uint64

	// quiescent records that the last tick found every VM idle and settled
	// it (settleIdle), so the grant phase granted nothing and left no
	// trace beyond the disk's idle jitter draws (see DESIGN.md §5.1). The
	// server then leaves the active set and its grant phase is skipped
	// outright until a dirtying event wakes it; catchUp replays the elided
	// jitter draws before the next full tick, keeping results bit-for-bit
	// identical. Any mutation that could change a tick's outcome (workload
	// attach, placement change, cap change) clears it via MarkDirty.
	quiescent bool

	// skipped counts grant-phase ticks elided while quiescent; catchUp
	// replays them over the VMs present through the stretch. Placement
	// changes dirty the server and end the stretch, so that is the live VM
	// list — unless a change lands before the replay, in which case
	// freezeSkipSet first snapshots the stretch's VM ids into skipIDs and
	// sets skipFrozen. Parking a server thus copies no ids at all.
	skipped    int
	skipFrozen bool

	// Steady-tick replay (DESIGN.md §5.1). Every rebuilt tick arms the
	// replay: steadyValid is set, and throttleMark records the throttle
	// counter as it stood before the tick read the caps. While nothing
	// disarms it, the counter still reads throttleMark and the tick
	// length is unchanged, the request vectors below still describe the
	// current tick. Demand changes disarm it as they happen: an Advance
	// that reports one, and MarkDirty, which the workloads' other changes,
	// placement changes and SetWorkload call. steadyValid holds an
	// invariant the replay relies on: while it is set, each resource
	// model's last solve was the full solve of those vectors at
	// lastTickSec that the arming rebuild ran, and the grant and result
	// buffers still hold its output. The CPU grants are exact as they
	// stand; disk and memsys keep the state of that solve their replays
	// read (wait coefficient, congestion term and active clients, client
	// slots). Only the pipeline solves, and the models' other calls —
	// settleIdle's, catchUp's idle replay — run with the server disarmed
	// or before the rebuild that arms it.
	steadyValid  bool
	lastTickSec  float64
	throttleMark uint64

	// throttles counts cap changes on the server's VMs: attach binds each
	// VM's cgroup to it, and every SetThrottle bumps it. Caps set through
	// a cgroup alone, with no MarkDirty, thus still disarm the replay,
	// at the cost of one atomic load per server tick.
	throttles atomic.Uint64

	// Cumulative fast-path accounting: grant-phase ticks elided by
	// quiescence, grant phases served by the steady replay, and grant phases
	// that rebuilt the demand/request vectors. Owned by the goroutine
	// ticking the server (plain fields, no hot-path atomics); read
	// between ticks via FastPathStats.
	statSkipped  uint64
	statSteady   uint64
	statRebuilds uint64
}

// kit is a server's working storage: its resource models, with their
// scratch, replay state and jitter state, its page cache, its VM list and
// the vectors its tick fills. A released cluster hands its servers' kits
// to the free list, and AddServer re-arms a spare one rather than build
// its own (DESIGN.md §5.10), so a recycled server's first rebuild
// allocates nothing. Servers never share a kit.
type kit struct {
	disk  *disk.Disk
	cpu   *cpu.Scheduler
	mem   *memsys.System
	cache *ContentCache
	vms   []*VM

	// skipIDs holds the VM ids of a skipped stretch that freezeSkipSet
	// snapshots (see Server.skipped).
	skipIDs []string

	// grants holds each VM's last grant, index-aligned with vms. It is
	// sized at the server's first pipeline; while empty every grant is
	// zero, so a server idle from birth never sizes it. Placement changes
	// keep it aligned only once it is non-empty.
	grants []Grant

	// idleFlags caches each VM's idleness as observed by the most recent
	// grant-phase idle scan, index-aligned with vms. advancePhase reads it
	// instead of re-asking every workload: on replayed ticks the scan is
	// skipped precisely because idleness provably cannot have changed
	// (a change to Done is pushed like any demand change), and on every
	// other tick the scan has just refreshed the flags.
	idleFlags []bool

	// Per-tick scratch buffers, reused across ticks so the steady-state
	// resource pipeline allocates nothing.
	demands    []Demand
	cpuReqs    []cpu.Request
	cpuGrants  []cpu.Grant
	memReqs    []memsys.Request
	memResults []memsys.Result
	diskReqs   []disk.Request
	diskGrants []disk.Grant
}

// rearm makes k the kit of a new server with the given id and
// configuration: models as New builds them, seeded from rng as the
// server's streams, and empty vectors. A spare kit keeps its storage; a
// zero kit gets models of its own.
func (k *kit) rearm(id string, cfg ServerConfig, rng *sim.RNG) {
	if k.disk == nil {
		k.disk, k.cpu, k.mem, k.cache = new(disk.Disk), new(cpu.Scheduler), new(memsys.System), new(ContentCache)
	}
	k.disk.Rearm(cfg.Disk, rng.Sourcef("disk/%s", id))
	k.cpu.Rearm(cfg.CPU)
	k.mem.Rearm(cfg.Mem, rng.Sourcef("memsys/%s", id))
	k.cache.rearm(serverCacheBytes, serverCacheTTL)
	clear(k.vms[:cap(k.vms)])
	clear(k.skipIDs)
	*k = kit{
		disk:       k.disk,
		cpu:        k.cpu,
		mem:        k.mem,
		cache:      k.cache,
		vms:        k.vms[:0],
		skipIDs:    k.skipIDs[:0],
		grants:     k.grants[:0],
		idleFlags:  k.idleFlags[:0],
		demands:    k.demands[:0],
		cpuReqs:    k.cpuReqs[:0],
		cpuGrants:  k.cpuGrants[:0],
		memReqs:    k.memReqs[:0],
		memResults: k.memResults[:0],
		diskReqs:   k.diskReqs[:0],
		diskGrants: k.diskGrants[:0],
	}
}

// The page cache of every server: 16 GiB, entries expiring after 120 s.
const (
	serverCacheBytes = 16 << 30
	serverCacheTTL   = 120
)

// spareKits is the process's free list of released servers' kits, shared
// by every non-reference cluster. It keeps kits of at most sim.StackBatch
// VMs, up to spareKitSlots VM slots in all; releases past that are left to
// the collector.
var spareKits kitList

// spareKitSlots bounds the free list: at about 1.3 KB of storage per slot
// (TestKitFootprint), about 4 MB.
const spareKitSlots = 3072

// kitList is a free list of kits, safe for concurrent use.
type kitList struct {
	mu     sync.Mutex
	kits   []kit
	slots  int    // the sum of the kits' slots
	misses uint64 // takes that found the list empty
}

// slots is what a kit counts against spareKitSlots: its VM capacity, and
// one slot for its models.
func (k *kit) slots() int { return 1 + cap(k.vms) }

// take pops a spare kit, or returns a zero kit when there is none.
func (l *kitList) take() kit {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := len(l.kits)
	if n == 0 {
		l.misses++
		return kit{}
	}
	k := l.kits[n-1]
	l.kits[n-1] = kit{}
	l.kits = l.kits[:n-1]
	l.slots -= k.slots()
	return k
}

// put keeps k as a spare if the bounds allow.
func (l *kitList) put(k kit) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if n := k.slots(); cap(k.vms) <= sim.StackBatch && l.slots+n <= spareKitSlots {
		l.kits = append(l.kits, k)
		l.slots += n
	}
}

// KitMisses returns how many servers of non-reference clusters the
// process has built on storage of their own because no released kit was
// spare.
func KitMisses() uint64 {
	spareKits.mu.Lock()
	defer spareKits.mu.Unlock()
	return spareKits.misses
}

// Cache returns the server's page-cache model.
func (s *Server) Cache() *ContentCache { return s.cache }

// PlacementEpoch returns a counter that increments whenever the server's
// VM list changes (add, remove, migrate in or out). Samplers cache
// placement-ordered per-domain state and revalidate it only when the
// epoch moves.
func (s *Server) PlacementEpoch() uint64 { return s.epoch }

// Quiescent reports whether the server's last processed tick was a
// no-op (every VM idle) and no dirtying event has occurred since — i.e.
// whether the grant phase is currently being skipped.
func (s *Server) Quiescent() bool { return s.quiescent }

// MarkDirty clears the server's quiescent and steady-reuse state, forcing
// the next tick to run the full grant phase with freshly built request
// vectors. A workload calls it when its demand or doneness changes outside
// Advance (an executor's launch or kill, see Workload); actuators outside
// the cluster package (the hypervisor's cap setters) call it when they
// change state that the pipeline consumes; placement and workload changes
// call it internally.
func (s *Server) MarkDirty() {
	s.quiescent = false
	s.steadyValid = false
	s.activate()
}

// FastPathStats returns the server's cumulative fast-path accounting:
// how many grant-phase ticks quiescence elided, how many grant phases
// the steady replay served without rebuilding the request vectors, and
// how many rebuilt. The steady replay is each resource model's only
// reuse of a solve, so every model's memo hits are the steady reuses and
// its misses the rebuilds. The counters are owned by the goroutine
// ticking the server, so read them between ticks (the
// monitoring/exposition cadence, not the tick hot path).
func (s *Server) FastPathStats() obs.FastPathSnapshot {
	skips := s.statSkipped
	// An inactive server has pending elided ticks that its own counters
	// will only record on wake; fold them in so between-tick observers see
	// one skip per elided tick.
	if !s.active && s.clus != nil {
		skips += s.clus.ticks - s.skipFrom
	}
	return obs.FastPathSnapshot{
		QuiescentSkips: skips,
		SteadyReuses:   s.statSteady,
		Rebuilds:       s.statRebuilds,
		CPUMemoHits:    s.statSteady,
		CPUMemoMisses:  s.statRebuilds,
		MemMemoHits:    s.statSteady,
		MemMemoMisses:  s.statRebuilds,
		DiskMemoHits:   s.statSteady,
		DiskMemoMisses: s.statRebuilds,
	}
}

// bumpEpoch records a placement change and re-dirties the pipeline.
func (s *Server) bumpEpoch() {
	s.epoch++
	s.quiescent = false
	s.steadyValid = false
	s.activate()
}

// activate queues an inactive server for reactivation at the start of
// the next tick by setting its bit in the wake bitset; a burst of
// dirtying events sets it once. Dirtying events arrive from the engine's
// goroutine (framework ticks, workload Advance, controller actuation,
// test setup), so the queue needs no synchronization. Draining at the
// tick boundary keeps mid-sweep wakes from mutating the active bitset
// while it is being iterated. Only a server the shard partition covers
// can be inactive, so its bit exists.
func (s *Server) activate() {
	c := s.clus
	if c == nil || s.active {
		return
	}
	c.wakeBits[s.index>>6] |= 1 << uint(s.index&63)
	c.wakesQueued = true
}

// ID returns the server's identifier.
func (s *Server) ID() string { return s.id }

// Index returns the server's position in the cluster's creation order:
// 0 for the first server added, and so on. Servers are never removed, so
// an index is stable for the cluster's lifetime.
func (s *Server) Index() int { return s.index }

// EachVM calls fn for every VM on the server in placement order without
// copying the VM slice. fn must not add or remove VMs on this server.
func (s *Server) EachVM(fn func(*VM)) {
	for _, v := range s.vms {
		fn(v)
	}
}

// NumVMs returns the number of VMs placed on the server.
func (s *Server) NumVMs() int { return len(s.vms) }

// CPUConfig returns the server's CPU configuration.
func (s *Server) CPUConfig() cpu.Config { return s.cfg.CPU }

// FindVM returns the VM with the given id hosted on this server, or nil.
func (s *Server) FindVM(id string) *VM {
	for _, v := range s.vms {
		if v.ID() == id {
			return v
		}
	}
	return nil
}

// grantPhase runs the server-local half of the resource pipeline for one
// tick: collect demands, grant CPU/memory/disk, accumulate cgroup counters
// and stamp each VM's last grant. It touches only state owned by this
// server (its resource models, their per-server RNG streams, its VMs'
// cgroups) plus each workload's Demand method. Workload.Advance — which
// may mutate state shared across servers, such as a framework's task set —
// is deferred to advancePhase, so every grant phase of a tick sees the
// state the tick started from.
//
// Only active servers are ticked, and a server leaves the active set at
// the end of the tick that found it quiescent, so grantPhase never starts
// on a quiescent server.
func (s *Server) grantPhase(tickSec float64) {
	n := len(s.vms)
	if n == 0 {
		// A server with no VMs is trivially quiescent: the pipeline has
		// nothing to do and no draws to replay.
		s.catchUp()
		s.quiescent = true
		return
	}
	// Steady replay: no change pushed since the last rebuilt tick, the
	// throttle counter and the tick length prove the request vectors
	// unchanged, so the grant/result buffers already carry the models'
	// answer to them, but for the draw-dependent fields (see steadyValid).
	// The tick reduces to the per-client draws, the handful of
	// draw-dependent fields, and the cgroup accumulation, bit-for-bit
	// what a rebuild would produce. Idle states cannot have changed
	// either (a change to Done is pushed like a demand change), so the
	// idle scan is skipped: the server was non-idle when the replay was
	// armed and still is, and the VMs that idleFlags marks idle then were
	// granted zero and still are, so they cost nothing here.
	if s.steadyUsable(tickSec) {
		s.statSteady++
		s.mem.ReplaySteadyInPlace(s.memResults)
		s.disk.ReplaySteadyInPlace(s.diskGrants)
		for i, v := range s.vms {
			if s.idleFlags[i] {
				continue
			}
			mr := &s.memResults[i]
			dg := &s.diskGrants[i]
			g := &s.grants[i]
			g.Instructions = mr.Instructions
			g.CPI = mr.CPI
			g.IOWaitMs = dg.WaitMs
			g.MemBytes = mr.MemBytes
			v.cg.AddTick(dg.Ops, dg.Bytes, dg.WaitMs, s.cpuGrants[i].Seconds,
				mr.Cycles, mr.Instructions, mr.LLCRefs, mr.LLCMisses)
		}
		return
	}
	// Quiescence: when every VM is idle the full pipeline grants nothing —
	// zero demands produce zero grants and cgroup counters accumulate
	// zeros. Its only lasting effect is the disk's per-client idle jitter
	// draws, which catchUp replays later. The tick settles what the
	// pipeline would have left behind (settleIdle) without building a
	// single vector and counts as the first skipped tick; the server then
	// leaves the active set until something dirties it.
	if s.scanIdle() {
		s.catchUp()
		s.settleIdle()
		s.skipped++
		s.statSkipped++
		return
	}
	// Rebuild: fresh vectors through full solves, then arm the replay for
	// the next tick, against the throttle counter as it stood before the
	// pipeline read the caps.
	s.catchUp()
	s.statRebuilds++
	mark := s.throttles.Load()
	s.pipeline(tickSec)
	s.steadyValid, s.lastTickSec, s.throttleMark = true, tickSec, mark
}

// referenceGrant is the reference cluster's grant phase: the full
// pipeline with freshly built request vectors, on every tick, idle or
// not, with the disk's and memory system's client slots reset so every
// solve resolves its clients by id. The optimised grantPhase must match
// it bit for bit.
func (s *Server) referenceGrant(tickSec float64) {
	if len(s.vms) == 0 {
		return
	}
	s.scanIdle()
	s.mem.ResetSlots()
	s.disk.ResetSlots()
	s.statRebuilds++
	s.pipeline(tickSec)
}

// scanIdle records each VM's idleness in idleFlags and reports whether
// every VM is idle.
func (s *Server) scanIdle() bool {
	n := len(s.vms)
	if cap(s.idleFlags) < n {
		s.idleFlags = make([]bool, n)
	}
	s.idleFlags = s.idleFlags[:n]
	idle := true
	for i, v := range s.vms {
		vi := v.Idle()
		s.idleFlags[i] = vi
		if !vi {
			idle = false
		}
	}
	return idle
}

// pipeline builds the demand and request vectors from the workloads and
// cgroup caps, runs the allocators and accounts their grants.
func (s *Server) pipeline(tickSec float64) {
	// Size the vectors for the VM count up front, one allocation each,
	// rather than growing them append by append.
	n := len(s.vms)
	s.demands = slices.Grow(s.demands[:0], n)
	s.cpuReqs = slices.Grow(s.cpuReqs[:0], n)
	s.memReqs = slices.Grow(s.memReqs[:0], n)
	s.diskReqs = slices.Grow(s.diskReqs[:0], n)
	for _, v := range s.vms {
		var d Demand
		if !v.Idle() {
			d = v.workload.Demand(tickSec)
		}
		s.demands = append(s.demands, d)
	}

	// CPU.
	for i, v := range s.vms {
		s.cpuReqs = append(s.cpuReqs, cpu.Request{
			ClientID: v.ID(),
			Seconds:  s.demands[i].CPUSeconds,
			VCPUs:    v.vcpus,
			CapCores: v.cg.Throttle().CPUCores,
		})
	}
	s.cpuGrants = s.cpu.AllocateInto(s.cpuGrants[:0], tickSec, s.cpuReqs)

	// Memory system.
	for i, v := range s.vms {
		s.memReqs = append(s.memReqs, memsys.Request{
			ClientID:        v.ID(),
			CPUSeconds:      s.cpuGrants[i].Seconds,
			CoreCPI:         s.demands[i].CoreCPI,
			LLCRefsPerInstr: s.demands[i].LLCRefsPerInstr,
			BytesPerInstr:   s.demands[i].BytesPerInstr,
			WorkingSetBytes: s.demands[i].WorkingSetBytes,
		})
	}
	s.memResults = s.mem.ComputeInto(s.memResults[:0], tickSec, s.memReqs)

	// Disk.
	for i, v := range s.vms {
		th := v.cg.Throttle()
		s.diskReqs = append(s.diskReqs, disk.Request{
			ClientID: v.ID(),
			Ops:      s.demands[i].IOOps,
			Bytes:    s.demands[i].IOBytes,
			CapIOPS:  th.ReadIOPS,
			CapBPS:   th.ReadBPS,
		})
	}
	s.diskGrants = s.disk.AllocateInto(s.diskGrants[:0], tickSec, s.diskReqs)

	// Account. The first pipeline on the server sizes its grant vector;
	// the loop sets every grant. An idle VM demanded nothing, so its grant
	// is zero: it is stored, but adds nothing to the cgroup counters.
	if len(s.grants) != n {
		s.grants = slices.Grow(s.grants[:0], n)[:n]
	}
	for i, v := range s.vms {
		g := Grant{
			CPUSeconds:   s.cpuGrants[i].Seconds,
			Instructions: s.memResults[i].Instructions,
			CPI:          s.memResults[i].CPI,
			IOOps:        s.diskGrants[i].Ops,
			IOBytes:      s.diskGrants[i].Bytes,
			IOWaitMs:     s.diskGrants[i].WaitMs,
			MemBytes:     s.memResults[i].MemBytes,
		}
		s.grants[i] = g
		if s.idleFlags[i] {
			continue
		}
		v.cg.AddTick(g.IOOps, g.IOBytes, g.IOWaitMs, g.CPUSeconds,
			s.memResults[i].Cycles, s.memResults[i].Instructions,
			s.memResults[i].LLCRefs, s.memResults[i].LLCMisses)
	}
}

// steadyUsable reports whether the request vectors cached from the last
// rebuilt tick still describe a tick of length tickSec: the replay is
// armed (no demand change was pushed since) and no VM's caps changed —
// the caps baked into the cached requests are still in force.
func (s *Server) steadyUsable(tickSec float64) bool {
	return s.steadyValid && tickSec == s.lastTickSec && s.throttles.Load() == s.throttleMark
}

// settleIdle leaves the server as a fully processed all-idle tick would,
// without running the pipeline: every VM's last grant is zero, the disk
// and memory system report zero load (memsys also collects the jitter
// state of VMs that left), and the server is quiescent. What it does not
// do is build the request vectors, solve the models, or take the
// disk's jitter draws — the caller counts the tick as the first skipped
// one, so catchUp replays its draws, and the disk's keep-set GC with
// them, when the server next runs the pipeline. A server idle from birth thus never
// seeds its RNG streams or sizes its scratch buffers, and settling copies
// no VM ids. Call it with no skipped ticks pending.
func (s *Server) settleIdle() {
	clear(s.grants)
	if s.mem.SettleIdle(len(s.vms)) {
		s.mem.Retain(len(s.vms), s.vmID)
	}
	s.disk.SettleIdle()
	s.quiescent = true
	s.steadyValid = false
}

// vmID returns the id of the i-th VM on the server. With the VM count it
// names the server's clients to the resource models without copying ids.
func (s *Server) vmID(i int) string { return s.vms[i].ID() }

// freezeSkipSet is called before every change to the server's VM list. If
// skipped ticks may be pending — counted already, or accruing while the
// server is parked — and no earlier change froze their VM set, it
// snapshots that set for catchUp. It keys on skipped and active, not on
// quiescent: MarkDirty clears quiescent without ending the stretch.
func (s *Server) freezeSkipSet() {
	if s.skipFrozen || (s.skipped == 0 && s.active) {
		return
	}
	s.skipIDs = s.skipIDs[:0]
	for _, v := range s.vms {
		s.skipIDs = append(s.skipIDs, v.ID())
	}
	s.skipFrozen = true
}

// catchUp replays the random draws of any skipped idle ticks before a
// full grant phase runs, so the disk's seeded stream sits exactly where
// a non-skipping run would have left it. It replays them over the VM set
// frozen by a placement change during the stretch, or else over the live
// VM list, which then is the set present throughout it and is read in
// place, so a wake allocates nothing.
func (s *Server) catchUp() {
	if s.skipped > 0 {
		if s.skipFrozen {
			s.disk.AdvanceIdle(s.skipped, len(s.skipIDs), func(i int) string { return s.skipIDs[i] })
		} else {
			s.disk.AdvanceIdle(s.skipped, len(s.vms), s.vmID)
		}
		s.skipped = 0
	}
	s.skipFrozen = false
}

// advancePhase hands every VM its granted resources for the tick that
// starts at nowSec. Run sequentially in placement order across all
// servers after every grant phase finished, so Advance implementations
// may mutate cross-server state (a task shared between executors, a
// framework's bookkeeping) without synchronization and with a
// deterministic ordering. It reports whether some workload reported a
// change, which also disarms the server's steady replay.
func (s *Server) advancePhase(nowSec, tickSec float64) bool {
	changed := false
	if len(s.idleFlags) != len(s.vms) {
		// No grant phase has classified this VM set yet (placement changed
		// with ticks suppressed); fall back to asking each workload.
		for i, v := range s.vms {
			if !v.Idle() && v.workload.Advance(nowSec, tickSec, s.grant(i)) {
				changed = true
			}
		}
	} else {
		for i, v := range s.vms {
			if !s.idleFlags[i] && v.workload.Advance(nowSec, tickSec, s.grant(i)) {
				changed = true
			}
		}
	}
	if changed {
		s.steadyValid = false
	}
	return changed
}

// grant returns the last grant of the i-th VM on the server.
func (s *Server) grant(i int) Grant {
	if len(s.grants) == 0 {
		return Grant{}
	}
	return s.grants[i]
}

// attach appends v, with last grant g, to the server's VM list and binds
// its cgroup's cap changes to the server's throttle counter. The grant
// vector is kept aligned once sized, and sized early only for a nonzero
// grant a migrating VM brings along.
func (s *Server) attach(v *VM, g Grant) {
	s.freezeSkipSet()
	v.cg.BindThrottleCounter(&s.throttles)
	if len(s.grants) == 0 && g != (Grant{}) {
		s.grants = make([]Grant, len(s.vms), len(s.vms)+1)
	}
	s.vms = append(s.vms, v)
	if len(s.grants) > 0 {
		s.grants = append(s.grants, g)
	}
	s.bumpEpoch()
}

// detach removes v from the server's VM list and returns its last grant.
func (s *Server) detach(v *VM) Grant {
	s.freezeSkipSet()
	i := slices.Index(s.vms, v)
	g := s.grant(i)
	s.vms = slices.Delete(s.vms, i, i+1)
	if len(s.grants) > 0 {
		s.grants = slices.Delete(s.grants, i, i+1)
	}
	s.bumpEpoch()
	return g
}

// Cluster is the set of servers plus a VM registry. It implements
// sim.Tickable; register it with the engine at the resource-pipeline
// priority (after frameworks schedule, before controllers observe).
type Cluster struct {
	servers []*Server
	srvByID map[string]*Server
	vmsByID vmRegistry

	// placeSeq counts placement mutations (server add, VM add/remove/
	// migrate). External indexes over the cluster (the cloud manager's
	// load heap) revalidate against it instead of rescanning.
	placeSeq uint64

	// reference selects the reference tick (see NewReference), fixed at
	// construction.
	reference bool

	// spares is the free list AddServer takes kits from and Release gives
	// them to: spareKits, or nil for a reference cluster, which builds
	// every server on storage of its own.
	spares *kitList

	// released is set by Release, which freezes the fast-path accounting
	// in frozen.
	released bool
	frozen   obs.FastPathSnapshot

	// ticks counts Tick invocations. It is the time base for O(1)
	// elided-tick accounting: a server deactivated at tick k and woken
	// while the counter reads w missed exactly w-1-k grant phases. Stride
	// replays ticks without advancing the engine clock, so this
	// cluster-owned counter — not sim.Clock — is the only correct base.
	ticks uint64

	// Sharded-tick state (DESIGN.md §5.1): the shard partition over the
	// server slice, the active bitset it indexes, the wake queue drained
	// at each tick boundary (a bitset over the same indexes, allocated
	// with the active one; wakesQueued is set while any bit is), and the
	// cluster-wide inactive count.
	shards      []shard
	activeBits  []uint64
	wakeBits    []uint64
	wakesQueued bool
	busyShards  int // shards holding at least one active server
	inactive    int
	live        []*Server // per-tick scratch: the active servers, in index order
	partServers int       // len(servers) at the last partition build
	shardBase   int       // partition arithmetic: base shard size ...
	shardRem    int       // ... and how many leading shards hold one extra

	// Cumulative stride accounting: engine ticks elided by Stride and how
	// many times a stride horizon was computed (i.e. Stride invocations).
	// Read between ticks via FastPathStats.
	statStrideSkips       uint64
	statHorizonRecomputes uint64

	// statShardSkips counts shards skipped wholesale — per tick, per
	// shard whose every server was inactive.
	statShardSkips uint64

	// Engine self-profiling (wall-clock, non-deterministic, never in sim
	// outputs): sampled phase timers for the grant sweep, the advance
	// sweep and stride replay. Nil — one branch per phase — until
	// SetHealth attaches a health layer.
	health   *obs.Health
	tGrant   *obs.PhaseTimer
	tAdvance *obs.PhaseTimer
	tStride  *obs.PhaseTimer
}

// New creates an empty cluster.
func New() *Cluster {
	return &Cluster{
		srvByID: make(map[string]*Server),
		spares:  &spareKits,
	}
}

// NewReference creates an empty reference cluster: the naive oracle the
// optimised tick is checked against. Every tick it runs every server's
// full pipeline, with freshly built request vectors and every client
// looked up by id; it never parks a quiescent server, replays a steady
// tick or strides, and it neither takes nor gives recycled server kits.
// Both kinds of cluster produce bit-for-bit identical simulations.
func NewReference() *Cluster {
	c := New()
	c.reference, c.spares = true, nil
	return c
}

// ReleasedCluster is the panic message of a tick, a stride, a server or a
// VM added on a released cluster.
const ReleasedCluster = "cluster: use of a released cluster"

// Release ends the cluster's life once its simulation is over. It
// freezes FastPathStats at its current value, unbinds every VM's
// throttle counter, and hands each server's kit to the free list, where
// the next cluster's AddServer re-arms it (DESIGN.md §5.10); a reference
// cluster's kits are left to the collector. Its servers then hold no VMs
// and no resource models, and a later Tick, Stride, AddServer or AddVM
// panics with ReleasedCluster. Release may be called more than once.
func (c *Cluster) Release() {
	if c.released {
		return
	}
	c.frozen = c.FastPathStats()
	c.released = true
	for _, s := range c.servers {
		for _, v := range s.vms {
			v.cg.BindThrottleCounter(nil)
		}
		if c.spares != nil {
			c.spares.put(s.kit)
		}
		s.kit = kit{}
	}
}

// checkLive panics if the cluster has been released.
func (c *Cluster) checkLive() {
	if c.released {
		panic(ReleasedCluster)
	}
}

// Reference reports whether the cluster was built by NewReference.
func (c *Cluster) Reference() bool { return c.reference }

// SetHealth attaches an engine self-profiling layer: sampled wall-clock
// timers around the grant sweep, the advance sweep and stride replay.
// The timers measure the simulator's own execution — they never touch
// simulation state or outputs — and nil detaches them, restoring the
// single-branch no-op fast path.
func (c *Cluster) SetHealth(h *obs.Health) {
	c.health = h
	c.tGrant = h.Timer("cluster.grant")
	c.tAdvance = h.Timer("cluster.advance")
	c.tStride = h.Timer("cluster.stride")
}

// AddServer creates a server with the given id and configuration.
// The rng factory seeds the server's stochastic resource models.
func (c *Cluster) AddServer(id string, cfg ServerConfig, rng *sim.RNG) *Server {
	c.checkLive()
	if c.FindServer(id) != nil {
		panic(fmt.Sprintf("cluster: duplicate server %q", id))
	}
	// The per-server RNG streams are named by server id alone, so they
	// depend only on (master seed, id) — never on which shard the server
	// lands in or how many shards exist. Any repartition of the cluster
	// therefore sees bit-identical random sequences.
	s := &Server{
		id:     id,
		cfg:    cfg,
		clus:   c,
		index:  len(c.servers),
		active: true,
	}
	if c.spares != nil {
		s.kit = c.spares.take()
	}
	s.kit.rearm(id, cfg, rng)
	c.servers = append(c.servers, s)
	c.srvByID[id] = s
	c.placeSeq++
	return s
}

// AddVM creates a VM on the given server. It panics if the id is taken.
func (c *Cluster) AddVM(server *Server, id string, vcpus float64, prio Priority, appID string) *VM {
	v, err := c.TryAddVM(server, id, vcpus, prio, appID)
	if err != nil {
		panic(err.Error())
	}
	return v
}

// TryAddVM creates a VM on the given server, or returns an error and
// changes nothing if the id is taken. The registry insert is the
// duplicate check, so a boot probes the registry once.
func (c *Cluster) TryAddVM(server *Server, id string, vcpus float64, prio Priority, appID string) (*VM, error) {
	c.checkLive()
	v := &VM{
		vcpus:    vcpus,
		priority: prio,
		appID:    appID,
		server:   server,
	}
	v.cg.Init(id)
	if !c.vmsByID.insert(v) {
		return nil, fmt.Errorf("cluster: duplicate VM %q", id)
	}
	server.attach(v, Grant{})
	c.placeSeq++
	return v, nil
}

// MoveVM live-migrates a VM to another server, preserving the VM object
// (and thus its cgroup, workload and any references frameworks hold to
// it). Returns an error for unknown ids; moving to the current server is
// a no-op.
func (c *Cluster) MoveVM(vmID, serverID string) error {
	v := c.vmsByID.find(vmID)
	if v == nil {
		return fmt.Errorf("cluster: no VM %q", vmID)
	}
	dst := c.FindServer(serverID)
	if dst == nil {
		return fmt.Errorf("cluster: no server %q", serverID)
	}
	if v.server == dst {
		return nil
	}
	// The VM carries its last grant along: with ticks suppressed, the
	// advance phase's fallback hands it to the workload again.
	dst.attach(v, v.server.detach(v))
	v.server = dst
	c.placeSeq++
	return nil
}

// RemoveVM detaches a VM from its server and the registry (used by the
// cloud manager for termination/migration). Removing an unknown VM is a
// no-op.
func (c *Cluster) RemoveVM(id string) {
	v := c.vmsByID.remove(id)
	if v == nil {
		return
	}
	v.server.detach(v)
	c.placeSeq++
}

// PlacementSeq returns a counter that increments on every placement
// mutation: server provisioning and VM add, remove or migrate. External
// indexes built over the cluster (the cloud manager's load heap) compare
// it against the value at their last sync to detect out-of-band changes.
func (c *Cluster) PlacementSeq() uint64 { return c.placeSeq }

// FastPathStats sums the fast-path accounting of every server in the
// cluster and adds the cluster-level stride and shard counters. Call it
// between ticks (see Server.FastPathStats): it visits every server, which
// suits its readers, who call it once per testbed or control interval,
// not once per tick. A released cluster returns the sum as it stood at
// Release.
func (c *Cluster) FastPathStats() obs.FastPathSnapshot {
	if c.released {
		return c.frozen
	}
	fp := obs.FastPathSnapshot{
		StrideSkips:       c.statStrideSkips,
		HorizonRecomputes: c.statHorizonRecomputes,
		ShardSkips:        c.statShardSkips,
	}
	for _, s := range c.servers {
		fp.Add(s.FastPathStats())
	}
	return fp
}

// EachServer calls fn for every server in creation order without copying
// the server slice. fn must not add servers.
func (c *Cluster) EachServer(fn func(*Server)) {
	for _, s := range c.servers {
		fn(s)
	}
}

// NumServers returns the number of servers in the cluster.
func (c *Cluster) NumServers() int { return len(c.servers) }

// NumVMs returns the number of VMs across all servers.
func (c *Cluster) NumVMs() int { return c.vmsByID.n }

// ActiveServers returns how many servers are currently in the active set
// (visited by the tick). A reference cluster keeps every server active.
func (c *Cluster) ActiveServers() int { return len(c.servers) - c.inactive }

// FindServer returns the server with the given id, or nil.
func (c *Cluster) FindServer(id string) *Server { return c.srvByID[id] }

// FindVM returns the VM with the given id, or nil.
func (c *Cluster) FindVM(id string) *VM { return c.vmsByID.find(id) }

// EachVM calls fn for every VM across all servers in placement order.
// fn must not add, remove or migrate VMs.
func (c *Cluster) EachVM(fn func(*VM)) {
	for _, s := range c.servers {
		for _, v := range s.vms {
			fn(v)
		}
	}
}

// Tick advances every server's resource pipeline by one tick in two
// phases: the grant phases of the active servers, then the advance phase
// that hands grants to workloads in placement order, because framework
// executors may mutate task state shared across servers (speculative and
// cloned attempts of one task run on several machines).
func (c *Cluster) Tick(clk *sim.Clock) {
	c.checkLive()
	tickSec := clk.TickSeconds()
	if c.reference {
		for _, s := range c.servers {
			s.referenceGrant(tickSec)
		}
		nowSec := clk.Seconds()
		for _, s := range c.servers {
			s.advancePhase(nowSec, tickSec)
		}
		return
	}
	c.shardedTick(clk, 0, tickSec)
}

// Stride fast-forwards the cluster through up to max upcoming ticks whose
// engine dispatch the caller has proven redundant — every framework's tick
// would be a no-op and no controller interval is due — replaying each
// elided tick's full resource pipeline so results stay bit-for-bit
// identical to per-tick stepping (the AdvanceTo path of DESIGN.md §5.6).
// Each replayed tick hands its workloads the exact simulated time the
// engine would have, so completion timestamps come out identical. The
// caller owns all cluster-external event sources; Stride itself only has
// to stop when the pipeline produces an event the frameworks must see
// (in practice: a task attempt retiring, observable as a freed executor
// slot). Such an event is a change some Advance reports, so the stop
// callback is consulted only after a tick on which one did. Returns the
// number of ticks elided, 0 <= n <= max; a reference cluster never
// strides and returns 0.
//
// The other changes a stride meets — a workload finishing, a burst
// antagonist flipping phase, a task attempt tapering off — do not stop
// it unless stop says so: grantPhase rebuilds on them, exactly as it
// does under per-tick stepping.
func (c *Cluster) Stride(clk *sim.Clock, max int64, stop func() bool) int64 {
	c.checkLive()
	if max <= 0 || c.reference {
		return 0
	}
	c.statHorizonRecomputes++
	ts := c.tStride.Begin()
	tickSec := clk.TickSeconds()
	var n int64
	for n < max {
		changed := c.shardedTick(clk, n, tickSec)
		n++
		c.statStrideSkips++
		if changed && stop() {
			break
		}
	}
	c.tStride.End(ts)
	return n
}
