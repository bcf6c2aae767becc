// Package disk models a physical server's shared block device. It is the
// substrate behind the paper's I/O-contention experiments: a device with
// finite seek and transfer capacity, per-VM throttle caps (the blkio
// throttling policy PerfCloud actuates), and a queueing-delay model in
// which *random-I/O interference* — not mere utilization — drives both
// the mean queueing delay and how unevenly that delay lands across VMs.
//
// # Device-time cost model
//
// Every operation costs device time: a fixed (seek/rotate) component plus
// a transfer component proportional to the op's size. Small ops pay the
// full seek cost; large sequential ops pay only a fraction of it (the
// elevator merges them). Device time is shared max-min fairly across
// clients, as CFQ's per-cgroup time slices do.
//
// A client issuing a stream of small random ops (fio randread) poisons
// the device for everyone: the interleaved seeks degrade the effective
// transfer bandwidth of sequential streams. The degradation scales with
// the *random load* — the fraction of device time demanded by small-op
// clients.
//
// # Why deviation, not utilization, is the signal
//
// A scale-out application's own VMs place symmetric sequential load, so
// even when they saturate the device each VM sees nearly the same
// queueing per op: the std-dev of the iowait ratio across the app's VMs
// stays low. Random interference instead lands unevenly — whichever VM's
// requests coincide with the antagonist's bursts stays unlucky for
// seconds (modelled as a per-client AR(1) luck factor whose effect scales
// with the random load). This reproduces the paper's §III-A1 observation:
// alone, peak deviation stays under H_io = 10 ms/op; with fio colocated
// it rises roughly an order of magnitude (Fig. 3).
package disk

import (
	"fmt"
	"math"
	"slices"

	"perfcloud/internal/sim"
	"perfcloud/internal/stats"
)

// Config describes the device.
type Config struct {
	IOPSCapacity      float64 // small random ops per second at saturation
	BandwidthCapacity float64 // streaming bytes per second at saturation
	BaseLatencyMs     float64 // per-op service latency on an idle device

	// SmallOpBytes is the op-size boundary: ops at or below it pay the
	// full seek cost and count toward the random load.
	SmallOpBytes float64
	// SeqFixedFactor is the fraction of the seek cost paid by large
	// (merged, sequential) ops.
	SeqFixedFactor float64
	// DegradeScale controls how much random load degrades the effective
	// streaming bandwidth: effBW = BW / (1 + DegradeScale*randomLoad).
	DegradeScale float64

	// CongestionScale multiplies the queueing-delay term.
	CongestionScale float64
	// MaxQueueFactor clips the queueing intensity under overload.
	MaxQueueFactor float64
	// RandomWaitScale converts random load into the wait/jitter factor.
	RandomWaitScale float64
	// BaselineWaitFactor is the floor of that factor: even symmetric
	// self-contention produces a little queueing noise.
	BaselineWaitFactor float64

	// JitterStdDev / JitterCorr parameterise the per-client AR(1) luck
	// factor (0.98 at a 100 ms tick is a ~5 s correlation time).
	JitterStdDev float64
	JitterCorr   float64
}

// DefaultConfig returns the device parameters used by the testbed
// reproduction, calibrated so a 6-VM Hadoop cluster alone keeps the
// iowait-ratio deviation under the paper's H_io = 10 ms/op threshold
// while a colocated fio random-read antagonist raises it roughly 8x.
func DefaultConfig() Config {
	return Config{
		IOPSCapacity:       10000,
		BandwidthCapacity:  400 << 20, // 400 MiB/s streaming
		BaseLatencyMs:      2,
		SmallOpBytes:       64 << 10,
		SeqFixedFactor:     0.1,
		DegradeScale:       1.5,
		CongestionScale:    2.0,
		MaxQueueFactor:     25,
		RandomWaitScale:    1.5,
		BaselineWaitFactor: 0.05,
		JitterStdDev:       0.6,
		JitterCorr:         0.98,
	}
}

// Request is one client's I/O demand for a tick, plus its throttle caps.
type Request struct {
	ClientID string
	Ops      float64 // operations wanted this tick
	Bytes    float64 // bytes wanted this tick
	CapIOPS  float64 // throttle cap, ops/sec; 0 = unlimited
	CapBPS   float64 // throttle cap, bytes/sec; 0 = unlimited
}

// Grant is the device's answer for one client for one tick.
type Grant struct {
	ClientID string
	Ops      float64 // operations served
	Bytes    float64 // bytes served
	WaitMs   float64 // total queueing delay accrued by the served ops, ms
}

// Disk is the shared device. It is not safe for concurrent use; the
// cluster steps it once per tick from the simulation loop.
type Disk struct {
	cfg    Config
	jitter *sim.AR1

	lastUtilization float64
	lastRandomLoad  float64

	// Reused per-Allocate scratch (one disk serves one server, ticked by a
	// single goroutine, so plain fields suffice).
	capped     []Request
	opSize     []float64
	cost       []float64
	timeDemand []float64
	fair       stats.WaterFill

	// The jitter slots of the last solved request vector's clients, in
	// request order. A solve with the same clients steps by slot and
	// skips the keep-set GC, and a steady replay steps through them.
	clients sim.SlotCache

	// waitCoef is the queueing-delay coefficient of the last solve,
	// CongestionScale*q*rlFactor (zero after a quiescent one). Everything
	// upstream of the per-client AR(1) luck draw — throttle capping,
	// random load, degraded bandwidth, per-op cost and the max-min fair
	// shares — is a pure function of (tickSec, reqs), so a tick the
	// cluster proves repeats the last solve's request vector keeps its
	// Ops/Bytes grants and recomputes only WaitMs from this coefficient
	// and the tick's fresh draws (ReplaySteadyInPlace).
	waitCoef float64
}

// ResetSlots drops the resolved client slots, so the next AllocateInto
// looks every client up by id and ends with the keep-set GC. The
// reference cluster calls it before every tick, which keeps its solves
// the oracle of the slot cache; the slots only save lookups, so dropping
// them cannot change a grant.
func (d *Disk) ResetSlots() { d.clients.Reset() }

// New creates a device with the given config, drawing its jitter from src.
func New(cfg Config, src *sim.Source) *Disk {
	d := new(Disk)
	d.Rearm(cfg, src)
	return d
}

// Rearm makes d the device New(cfg, src) would return, with no client
// state, but keeps the storage of its scratch, client slots and jitter
// state, so a recycled device's first solves allocate nothing.
func (d *Disk) Rearm(cfg Config, src *sim.Source) {
	if cfg.IOPSCapacity <= 0 || cfg.BandwidthCapacity <= 0 {
		panic(fmt.Sprintf("disk: nonpositive capacity in %+v", cfg))
	}
	if cfg.JitterCorr < 0 || cfg.JitterCorr >= 1 {
		panic("disk: JitterCorr must be in [0, 1)")
	}
	jitter := d.jitter
	if jitter == nil {
		jitter = new(sim.AR1)
	}
	jitter.Rearm(cfg.JitterCorr, cfg.JitterStdDev, src)
	d.clients.Rearm()
	*d = Disk{
		cfg:        cfg,
		jitter:     jitter,
		capped:     d.capped[:0],
		opSize:     d.opSize[:0],
		cost:       d.cost[:0],
		timeDemand: d.timeDemand[:0],
		fair:       d.fair.Rearm(),
		clients:    d.clients,
	}
}

// Utilization returns the device-time demand-to-capacity ratio observed
// on the most recent Allocate call (may exceed 1 under overload).
func (d *Disk) Utilization() float64 { return d.lastUtilization }

// RandomLoad returns the fraction of device time demanded by small-op
// (random) clients on the most recent Allocate call, clipped at 1.
func (d *Disk) RandomLoad() float64 { return d.lastRandomLoad }

// AdvanceIdle replays the random draws of n all-idle ticks for k clients,
// the i-th named id(i), in order, advancing the per-client AR(1) luck
// factors exactly as n quiescent Allocate calls would. A quiescent allocation grants
// nothing and leaves utilization and random load at zero; stepping the
// luck factors is its only side effect. The cluster calls it when a server
// wakes from a stretch of skipped idle ticks, so skipping and processing
// idle ticks leave the device's seeded random stream in the identical
// position (DESIGN.md §5.1). The replay is a single batched loop —
// per-client map state is touched once regardless of n — so fast-forwarding
// even planet-scale idle stretches stays O(n*clients) time, zero allocs;
// naming the clients through id lets the caller pass them without copying.
// It ends with the keep-set GC a quiescent Allocate runs, which only the
// first tick of a stretch can make compact; the ids must be distinct.
// A call with no ticks or no clients does nothing, as the cluster makes
// no disk call at all for a server without VMs.
func (d *Disk) AdvanceIdle(n, k int, id func(i int) string) {
	if n <= 0 || k <= 0 {
		return
	}
	d.jitter.StepBatch(n, k, id)
	d.jitter.Retain(k, id)
}

// SettleIdle records an all-idle tick without solving it: the device
// reports zero utilization and random load, as a quiescent Allocate
// leaves it. The tick's luck draws are not taken here: the caller
// replays them with AdvanceIdle before the device's next Allocate.
func (d *Disk) SettleIdle() {
	d.lastUtilization = 0
	d.lastRandomLoad = 0
}

// Allocate serves one tick of I/O. tickSec is the tick length in seconds.
// Grants are returned in the order of the requests.
func (d *Disk) Allocate(tickSec float64, reqs []Request) []Grant {
	return d.AllocateInto(nil, tickSec, reqs)
}

// AllocateInto is Allocate appending into dst (usually dst[:0] of a
// caller-owned buffer), so the per-tick hot path allocates nothing once
// the buffers reach steady-state size. The requests' client ids must be
// distinct.
func (d *Disk) AllocateInto(dst []Grant, tickSec float64, reqs []Request) []Grant {
	if tickSec <= 0 {
		panic("disk: nonpositive tick")
	}
	base := len(dst)
	seekCost := 1 / d.cfg.IOPSCapacity

	// Phase 1: apply throttle caps. A throttled client queues above its
	// cap inside its own cgroup, invisible to the shared device — this is
	// how blkio throttling shields victims from an antagonist's demand.
	dst = slices.Grow(dst, len(reqs))
	d.capped = slices.Grow(d.capped[:0], len(reqs))
	d.opSize = slices.Grow(d.opSize[:0], len(reqs))
	for _, r := range reqs {
		if r.Ops < 0 || r.Bytes < 0 {
			panic(fmt.Sprintf("disk: negative demand from %s", r.ClientID))
		}
		c := r
		var size float64
		if c.Ops == 0 && c.Bytes > 0 {
			c.Ops = c.Bytes / (256 << 10) // bytes-only demand: assume 256 KiB ops
		}
		if r.CapIOPS > 0 {
			c.Ops = math.Min(c.Ops, r.CapIOPS*tickSec)
		}
		if c.Ops > 0 {
			size = r.Bytes / math.Max(c.Ops, 1e-12)
			if r.Ops > 0 {
				size = r.Bytes / r.Ops
			}
		}
		if r.CapBPS > 0 && size > 0 {
			c.Ops = math.Min(c.Ops, r.CapBPS*tickSec/size)
		}
		c.Bytes = c.Ops * size
		d.capped = append(d.capped, c)
		d.opSize = append(d.opSize, size)
	}
	capped, opSize := d.capped, d.opSize
	d.clients.Bind(d.jitter, len(reqs), func(i int) string { return reqs[i].ClientID })

	// Quiescent fast path: nobody wants any ops, so the cost model, fair
	// share and queueing delay all reduce to zero grants. The per-client
	// AR(1) luck factors still step exactly as the full path would — the
	// draws are part of the device's seeded random stream, and a busy tick
	// after an idle stretch must observe the same stream whether or not
	// this branch ran. AdvanceIdle replays these draws for ticks the
	// cluster skipped outright (DESIGN.md §5.1).
	var anyOps bool
	for _, c := range capped {
		if c.Ops > 0 {
			anyOps = true
			break
		}
	}
	if !anyOps {
		d.lastRandomLoad = 0
		d.lastUtilization = 0
		d.clients.StepAll(d.jitter)
		for i := range reqs {
			dst = append(dst, Grant{ClientID: reqs[i].ClientID})
		}
		d.clients.Settle(d.jitter)
		d.waitCoef = 0
		return dst
	}

	// Phase 2: random load from small-op clients' demanded device time.
	var randomTime float64
	for i, c := range capped {
		if c.Ops > 0 && opSize[i] <= d.cfg.SmallOpBytes {
			randomTime += c.Ops * seekCost
		}
	}
	randomLoad := math.Min(1, randomTime/tickSec)
	d.lastRandomLoad = randomLoad

	// Phase 3: per-op device-time cost under the degraded bandwidth, and
	// total utilization.
	effBW := d.cfg.BandwidthCapacity / (1 + d.cfg.DegradeScale*randomLoad)
	d.cost = slices.Grow(d.cost[:0], len(reqs))
	d.timeDemand = slices.Grow(d.timeDemand[:0], len(reqs))
	var totalTime float64
	for i, c := range capped {
		var costI, demandI float64
		if c.Ops > 0 {
			fixed := seekCost
			if opSize[i] > d.cfg.SmallOpBytes {
				fixed = seekCost * d.cfg.SeqFixedFactor
			}
			costI = fixed + opSize[i]/effBW
			demandI = c.Ops * costI
			totalTime += demandI
		}
		d.cost = append(d.cost, costI)
		d.timeDemand = append(d.timeDemand, demandI)
	}
	util := totalTime / tickSec
	d.lastUtilization = util

	// Phase 4: max-min fair share of device time; convert back to ops.
	shares := d.fair.Fill(d.timeDemand, tickSec)
	for i := range reqs {
		g := Grant{ClientID: reqs[i].ClientID}
		if d.cost[i] > 0 {
			g.Ops = shares[i] / d.cost[i]
			g.Bytes = g.Ops * opSize[i]
		}
		dst = append(dst, g)
	}

	// Phase 5: queueing delay. The blow-up tracks utilization but is
	// scaled by the random-interference factor, so symmetric sequential
	// self-contention stays quiet while a random antagonist makes delays
	// both large and uneven (per-client AR(1) luck).
	q := queueIntensity(util, d.cfg.MaxQueueFactor)
	rlFactor := d.cfg.BaselineWaitFactor + math.Min(1, d.cfg.RandomWaitScale*randomLoad)
	d.waitCoef = d.cfg.CongestionScale * q * rlFactor
	d.clients.StepAll(d.jitter)
	d.chargeWaits(dst[base:])
	d.clients.Settle(d.jitter)
	return dst
}

// ReplaySteadyInPlace replays one tick that repeats the last solve's
// request vector at its tick length in grants, which must hold that
// solve's grants: only the per-client luck draws and the WaitMs they
// scale are evaluated, in request order as the solve draws and through
// the client slots it resolved, so the seeded stream position is
// identical; the keep-set GC is skipped, a no-op after an unchanged
// tick. The cluster calls it on a tick whose unchanged request vector it
// proved by demand epochs, with its grant buffer still holding the last
// solve's grants.
func (d *Disk) ReplaySteadyInPlace(grants []Grant) {
	d.clients.Revalidate(d.jitter)
	d.clients.StepAll(d.jitter)
	d.chargeWaits(grants)
}

// chargeWaits sets each grant's queueing delay from the wait coefficient
// and its client's freshly stepped AR(1) luck factor.
func (d *Disk) chargeWaits(grants []Grant) {
	slots, lucks := d.clients.Values(d.jitter)
	base := d.cfg.BaseLatencyMs
	for i := range grants {
		luck := 1 + lucks[slots[i]]
		if luck < 0 {
			luck = 0
		}
		waitPerOp := base * (1 + d.waitCoef*luck)
		grants[i].WaitMs = grants[i].Ops * waitPerOp
	}
}

// queueIntensity maps utilization to a queueing factor: ~u^2/(1-u) below
// saturation (M/M/1 mean queue length shape), clipped at maxFactor.
func queueIntensity(util, maxFactor float64) float64 {
	if util <= 0 {
		return 0
	}
	denom := 1 - util
	if denom < 0.04 {
		denom = 0.04
	}
	q := util * util / denom
	if q > maxFactor {
		q = maxFactor
	}
	return q
}
