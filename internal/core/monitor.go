package core

import (
	"math"
	"slices"
	"sort"

	"perfcloud/internal/cgroup"
	"perfcloud/internal/hypervisor"
	"perfcloud/internal/stats"
)

// VMSample is the per-VM measurement for one 5-second interval, computed
// from cumulative counter deltas as the paper's performance monitor does
// (§III-D1).
type VMSample struct {
	// IowaitRatio is blkio.io_wait_time / blkio.io_serviced over the
	// interval (ms per op), EWMA-smoothed; 0 when the VM did no I/O.
	IowaitRatio float64
	// IOActive reports whether the VM completed any I/O this interval.
	IOActive bool
	// CPI is delta cycles / delta instructions, EWMA-smoothed; NaN when
	// the VM retired no instructions (a missing measurement).
	CPI float64
	// IOPS and IOThroughputBps are the VM's observed I/O rates — the
	// suspect signal for I/O antagonist identification and the Cubic
	// controllers' initial caps.
	IOPS            float64
	IOThroughputBps float64
	// LLCMissRate is LLC misses per second — the suspect signal for
	// processor-resource antagonist identification. NaN when the VM ran
	// no instructions (the paper's "not counted when not running").
	LLCMissRate float64
	// CPUUsageCores is the VM's observed CPU usage in cores.
	CPUUsageCores float64
}

// Sample is one monitoring interval across all domains of a server. The
// backing storage belongs to the Monitor that produced it and is reused:
// a Sample is valid until the Monitor's next Sample call. Consumers that
// need to keep per-VM measurements across intervals copy the VMSample
// values they care about (they are small value types).
type Sample struct {
	TimeSec float64

	ids  []string
	vms  []VMSample
	byID map[string]int
}

// MakeSample builds a Sample from a map of per-VM measurements, with
// domains in sorted-id order — for tests, examples and offline tooling.
// The Monitor's hot path builds samples directly in placement order.
func MakeSample(nowSec float64, vms map[string]VMSample) Sample {
	s := Sample{TimeSec: nowSec, byID: make(map[string]int, len(vms))}
	for id := range vms {
		s.ids = append(s.ids, id)
	}
	sort.Strings(s.ids)
	s.vms = make([]VMSample, len(s.ids))
	for i, id := range s.ids {
		s.vms[i] = vms[id]
		s.byID[id] = i
	}
	return s
}

// Len returns the number of domains measured this interval.
func (s Sample) Len() int { return len(s.ids) }

// Get returns the measurement for one domain, reporting whether the
// domain was measured this interval.
func (s Sample) Get(id string) (VMSample, bool) {
	i, ok := s.byID[id]
	if !ok {
		return VMSample{}, false
	}
	return s.vms[i], true
}

// Each calls fn for every measured domain in placement order.
func (s Sample) Each(fn func(id string, vs VMSample)) {
	for i, id := range s.ids {
		fn(id, s.vms[i])
	}
}

// domainState is the Monitor's per-domain accumulator: the previous
// counter snapshot, the previous emitted sample, and the five EWMA
// filters — held by value in a placement-ordered slice so the per-
// interval pass is a linear walk with no map lookups or per-filter heap
// objects.
type domainState struct {
	id      string
	prev    cgroup.Counters
	hasPrev bool
	last    VMSample
	hasLast bool

	ewmaIowait stats.EWMA
	ewmaCPI    stats.EWMA
	ewmaLLC    stats.EWMA
	ewmaIOBps  stats.EWMA
	ewmaIOPS   stats.EWMA
}

// Monitor periodically reads every domain's cumulative counters through
// the hypervisor, computes interval deltas and applies EWMA smoothing.
// Per-domain state is kept in placement order and revalidated only when
// the server's placement epoch moves, so a steady-state interval is one
// linear pass over the domains with no allocation.
type Monitor struct {
	hv    *hypervisor.Hypervisor
	alpha float64

	epoch    uint64
	epochOK  bool
	domains  []domainState
	index    map[string]int // id -> slot in domains
	realigns uint64         // placement-epoch rebuilds, for observability

	// Reused output buffers backing the returned Sample.
	outIDs  []string
	outVMs  []VMSample
	outByID map[string]int
	scratch []domainState
}

// NewMonitor creates a monitor over one server's hypervisor. alpha is
// the EWMA smoothing factor for the detection signals.
func NewMonitor(hv *hypervisor.Hypervisor, alpha float64) *Monitor {
	return &Monitor{
		hv:      hv,
		alpha:   alpha,
		index:   make(map[string]int),
		outByID: make(map[string]int),
	}
}

// realign rebuilds the placement-ordered domain slice when the server's
// placement epoch has moved (VM added, removed or migrated), carrying
// over state for surviving domains and dropping state for departed ones.
// While the epoch is unchanged this is a single comparison.
func (m *Monitor) realign() {
	epoch := m.hv.PlacementEpoch()
	if m.epochOK && epoch == m.epoch {
		return
	}
	m.realigns++
	// Size the rebuilt state, and the output buffers Sample fills, for
	// the domain count up front rather than append by append.
	n := m.hv.NumDomains()
	next := slices.Grow(m.scratch[:0], n)
	m.outIDs = slices.Grow(m.outIDs[:0], n)
	m.outVMs = slices.Grow(m.outVMs[:0], n)
	m.hv.EachDomainStats(func(id string, _ cgroup.Counters) {
		if j, ok := m.index[id]; ok {
			next = append(next, m.domains[j])
		} else {
			next = append(next, domainState{
				id:         id,
				ewmaIowait: stats.MakeEWMA(m.alpha),
				ewmaCPI:    stats.MakeEWMA(m.alpha),
				ewmaLLC:    stats.MakeEWMA(m.alpha),
				ewmaIOBps:  stats.MakeEWMA(m.alpha),
				ewmaIOPS:   stats.MakeEWMA(m.alpha),
			})
		}
	})
	m.scratch = m.domains[:0]
	m.domains = next
	clear(m.index)
	for i := range m.domains {
		m.index[m.domains[i].id] = i
	}
	m.epoch, m.epochOK = epoch, true
}

// Realigns returns how many times the monitor rebuilt its per-domain
// state because the server's placement epoch moved — the coverage
// signal for the slice-indexed fast path (a steadily climbing value
// means placement churn is defeating it).
func (m *Monitor) Realigns() uint64 { return m.realigns }

// Sample reads all domains, returning per-VM interval measurements.
// intervalSec is the elapsed time since the previous call. A call with
// intervalSec <= 0 carries no new information (no time has passed), so
// it replays each domain's previous measurements without disturbing the
// counter baselines or EWMA filters — the next positive interval still
// computes its delta over the full elapsed time.
func (m *Monitor) Sample(nowSec, intervalSec float64) Sample {
	m.realign()
	m.outIDs = m.outIDs[:0]
	m.outVMs = m.outVMs[:0]
	clear(m.outByID)
	if intervalSec <= 0 {
		for i := range m.domains {
			d := &m.domains[i]
			if d.hasLast {
				m.emit(d.id, d.last)
			}
		}
		return m.sample(nowSec)
	}
	i := 0
	m.hv.EachDomainStats(func(id string, now cgroup.Counters) {
		// realign just ran under the same epoch, so the i'th domain
		// reported here is the i'th entry of m.domains.
		d := &m.domains[i]
		i++
		prevCounters, had := d.prev, d.hasPrev
		d.prev, d.hasPrev = now, true
		if !had {
			// First observation of this domain: no delta yet.
			return
		}
		delta := cgroup.Delta(now, prevCounters)
		vs := VMSample{
			IOActive:        delta.Blkio.IoServiced > 0,
			IOPS:            d.ewmaIOPS.Update(delta.Blkio.IoServiced / intervalSec),
			IOThroughputBps: d.ewmaIOBps.Update(delta.Blkio.IoServiceBytes / intervalSec),
			CPUUsageCores:   delta.CPU.UsageSeconds / intervalSec,
		}
		vs.IowaitRatio = d.ewmaIowait.Update(delta.IowaitRatio())
		if delta.Perf.Instructions > 0 {
			vs.CPI = d.ewmaCPI.Update(delta.Perf.Cycles / delta.Perf.Instructions)
			vs.LLCMissRate = d.ewmaLLC.Update(delta.Perf.LLCMisses / intervalSec)
		} else {
			// No instructions retired: CPI does not exist for this
			// interval. The LLC-miss signal instead decays through the
			// same filter as the victim signals (so the correlator
			// compares like-filtered series) — but it stays a missing
			// measurement (NaN) until the VM has ever run, which is what
			// the paper's missing-as-zero Pearson rule handles.
			vs.CPI = math.NaN()
			if d.ewmaLLC.Primed() {
				vs.LLCMissRate = d.ewmaLLC.Update(0)
			} else {
				vs.LLCMissRate = math.NaN()
			}
		}
		d.last, d.hasLast = vs, true
		m.emit(id, vs)
	})
	return m.sample(nowSec)
}

// emit appends one domain's measurement to the reused output buffers.
func (m *Monitor) emit(id string, vs VMSample) {
	m.outByID[id] = len(m.outIDs)
	m.outIDs = append(m.outIDs, id)
	m.outVMs = append(m.outVMs, vs)
}

// sample wraps the output buffers as this interval's Sample.
func (m *Monitor) sample(nowSec float64) Sample {
	return Sample{TimeSec: nowSec, ids: m.outIDs, vms: m.outVMs, byID: m.outByID}
}
