package core

import (
	"math"
	"sort"

	"perfcloud/internal/cloud"
	"perfcloud/internal/cluster"
	"perfcloud/internal/hypervisor"
	"perfcloud/internal/obs"
	"perfcloud/internal/sim"
)

// Config parameterises a node manager. Defaults mirror §III-C/D.
type Config struct {
	// IntervalSec is the monitoring/control period (the paper's 5 s).
	IntervalSec float64
	// EWMAAlpha smooths the per-VM detection signals.
	EWMAAlpha float64
	// Thresholds are the contention thresholds H.
	Thresholds Thresholds
	// CorrWindow / CorrThreshold configure antagonist identification.
	CorrWindow    int
	CorrThreshold float64
	// Cubic configures the cap controllers.
	Cubic CubicConfig
	// MinCapFraction floors a controller's cap at this fraction of the
	// antagonist's initially observed usage, so persistent contention
	// penalises but never fully starves a low-priority VM.
	MinCapFraction float64
	// ReleaseFactor removes the throttle (and forgets the controller)
	// once the probing cap exceeds this multiple of the initial usage.
	ReleaseFactor float64
	// ObserveOnly makes the agent monitor, detect and identify without
	// ever applying caps — the "default system" arm of the paper's
	// evaluation, instrumented with the same signals.
	ObserveOnly bool
	// NewPolicy overrides the cap-control policy factory (the D3
	// ablation); nil selects the paper's CUBIC controller. Policies
	// operate in normalized units with the cap starting at 1.
	NewPolicy func() CapPolicy
	// EnableMigration lets the node manager escalate to the cloud manager
	// when multiple high-priority applications collide on its server and
	// throttling low-priority VMs cannot help — the complementary
	// VM-migration path of §III-D2 / §IV-D2. migrationAfterIntervals
	// consecutive unresolvable contended intervals trigger it.
	EnableMigration bool
	// Metrics, when non-nil, receives the agent's counters, gauges and
	// deviation histograms (one series per server). Events, when non-nil,
	// receives the typed decision audit log: one event per sample,
	// detection, identification, cap change, release and migration, in
	// simulation-time order. Both default to off; the control loop spends
	// only nil checks when they are.
	Metrics *obs.Registry
	Events  obs.Sink
	// Alerts, when non-nil, is the deterministic rule engine Attach wires
	// in: it consumes the same audit-event stream the Events sink sees and
	// is evaluated on sim time by a dedicated ticker registered after the
	// managers, so same-seed runs emit byte-identical alert streams. Nil —
	// the default — costs nothing.
	Alerts *obs.AlertEngine
	// Health, when non-nil, attaches the wall-clock self-profiling layer
	// (sampled phase timers; explicitly non-deterministic and kept out of
	// sim outputs). Nil costs one branch per control interval.
	Health *obs.Health
}

// migrationAfterIntervals is how many consecutive contended intervals with
// no low-priority VM to throttle escalate to a migration.
const migrationAfterIntervals = 3

// DefaultConfig returns the paper's settings.
func DefaultConfig() Config {
	return Config{
		IntervalSec:    5,
		EWMAAlpha:      0.7,
		Thresholds:     DefaultThresholds(),
		CorrWindow:     4,
		CorrThreshold:  0.8,
		Cubic:          DefaultCubicConfig(),
		MinCapFraction: 0.02,
		ReleaseFactor:  4,
	}
}

// TraceEntry records one control interval for analysis and the paper's
// timeline figures (Figs. 9 and 10).
type TraceEntry struct {
	TimeSec        float64
	IowaitDev      float64
	CPIDev         float64
	MeanIowait     float64
	MeanCPI        float64
	IOContention   bool
	CPUContention  bool
	IOAntagonists  []string
	CPUAntagonists []string
	// IOCaps are the IOPS caps in force after this interval, per VM;
	// nil when none is.
	IOCaps map[string]float64
	// CPUCaps are the core caps in force after this interval, per VM;
	// nil when none is.
	CPUCaps map[string]float64
}

// capController pairs a Cubic with the context needed to apply its cap.
// The Cubic operates in normalized units — the cap as a fraction of the
// antagonist's initially observed usage (so C = 1 at t = 1, as Eq. 1
// initialises it). Normalization keeps K = cbrt(Cmax*beta/gamma) in the
// few-interval range of the paper's Fig. 10 timeline regardless of the
// resource's absolute magnitude.
type capController struct {
	policy  CapPolicy
	initial float64 // observed usage at initialization (IOPS or cores)
	opSize  float64 // bytes per op at initialization (I/O controllers)
}

// NodeManager is PerfCloud's per-server agent (Algorithm 1): each
// interval it fetches VM metadata from the cloud manager, samples the
// performance monitor, computes the deviation signals for the server's
// high-priority applications, identifies antagonists by correlation, and
// drives the Cubic controllers that cap antagonist CPU and I/O through
// the hypervisor.
type NodeManager struct {
	cfg  Config
	cm   *cloud.Manager
	hv   *hypervisor.Hypervisor
	mon  *Monitor
	corr *Correlator

	// Per-channel state, indexed by resIO/resCPU. ctls holds the cap
	// controllers in force.
	ctls [2]map[string]*capController

	// Repeat-offender memory: VMs once identified as antagonists on a
	// channel. When contention reappears with no controller in force,
	// active prior offenders are re-engaged immediately instead of
	// waiting out a fresh correlation window — identification is
	// periodic, its conclusions persist (Algorithm 1).
	offenders [2]map[string]bool

	// prevAnt holds the previous interval's identification results: a
	// *new* antagonist is engaged only when identified in two consecutive
	// intervals, filtering one-off correlation flukes without
	// meaningfully delaying real antagonists (whose correlation persists).
	prevAnt [2]map[string]bool

	interval   int64
	nextSample float64
	trace      []TraceEntry

	// Per-interval scratch for the placement query, reused across
	// intervals so the steady state allocates nothing: apps maps app id →
	// high-priority VM ids (values truncated, not deleted, each interval;
	// a key whose app left the server keeps an empty slice), lowPri and
	// appIDs are the low-priority VM ids and the sorted non-empty app ids.
	apps   map[string][]string
	lowPri []string
	appIDs []string

	// unresolvable counts consecutive contended intervals with no
	// low-priority antagonist to throttle; migrations records escalations.
	unresolvable int
	migrations   []string

	// Observability: the decision audit log sink (nil = off), the
	// registered instruments (nil instruments no-op when metrics are off),
	// and a reused scratch slice that keeps controller application in
	// sorted VM order so the event stream is deterministic.
	events obs.Sink
	inst   nmInstruments
	capIDs []string

	// tMonitor is the control interval's wall-clock phase timer (nil — a
	// single branch per interval — without a health layer).
	tMonitor *obs.PhaseTimer
}

// nmInstruments holds one node manager's registered metrics. The zero
// value (all nil) is fully usable: every instrument method no-ops on a
// nil receiver, so an uninstrumented agent pays one branch per update.
type nmInstruments struct {
	intervals  *obs.Counter
	detects    [2]*obs.Counter // indexed by resIO/resCPU
	identified [2]*obs.Counter
	capUpdates [2]*obs.Counter
	released   [2]*obs.Counter
	migrations *obs.Counter
	domains    *obs.Gauge
	realigns   *obs.Gauge
	ctls       [2]*obs.Gauge
	iowaitDev  *obs.Histogram
	cpiDev     *obs.Histogram
}

// Resource-channel indices and their wire names ("io", "cpu") for
// instrument labels and event Res fields.
const (
	resIO = iota
	resCPU
)

var resNames = [2]string{"io", "cpu"}

// register creates the agent's instruments on reg (nil reg → all-nil
// instruments), labelled by server so a multi-server system exposes one
// series per agent.
func (ni *nmInstruments) register(reg *obs.Registry, server string) {
	srv := obs.Label{Key: "server", Value: server}
	ni.intervals = reg.Counter("perfcloud_intervals_total",
		"Control intervals executed by the node manager.", srv)
	ni.migrations = reg.Counter("perfcloud_migrations_total",
		"Escalations to the cloud manager that moved a VM.", srv)
	ni.domains = reg.Gauge("perfcloud_monitor_domains",
		"Domains measured in the last monitoring interval.", srv)
	ni.realigns = reg.Gauge("perfcloud_monitor_realigns",
		"Cumulative placement-epoch rebuilds of the monitor state.", srv)
	ni.iowaitDev = reg.Histogram("perfcloud_iowait_dev",
		"Victim iowait-ratio deviation signal per interval.",
		[]float64{1, 2, 5, 10, 20, 50, 100, 200}, srv)
	ni.cpiDev = reg.Histogram("perfcloud_cpi_dev",
		"Victim CPI deviation signal per interval.",
		[]float64{0.1, 0.2, 0.5, 1, 2, 5, 10}, srv)
	for r, name := range resNames {
		res := obs.Label{Key: "res", Value: name}
		ni.detects[r] = reg.Counter("perfcloud_detections_total",
			"Intervals whose deviation signal crossed its threshold.", srv, res)
		ni.identified[r] = reg.Counter("perfcloud_identified_total",
			"Antagonist identifications confirmed by the correlator.", srv, res)
		ni.capUpdates[r] = reg.Counter("perfcloud_cap_updates_total",
			"Cap controller decisions that changed the applied cap.", srv, res)
		ni.released[r] = reg.Counter("perfcloud_cap_releases_total",
			"Controllers released after probing past the release factor.", srv, res)
		ni.ctls[r] = reg.Gauge("perfcloud_controllers",
			"Cap controllers currently in force.", srv, res)
	}
}

// NewNodeManager creates the agent for one server.
func NewNodeManager(cfg Config, cm *cloud.Manager, hv *hypervisor.Hypervisor) *NodeManager {
	if cfg.IntervalSec <= 0 {
		panic("core: nonpositive control interval")
	}
	nm := &NodeManager{
		cfg:    cfg,
		cm:     cm,
		hv:     hv,
		mon:    NewMonitor(hv, cfg.EWMAAlpha),
		corr:   NewCorrelator(cfg.CorrWindow, cfg.CorrThreshold),
		apps:   make(map[string][]string),
		events: cfg.Events,
	}
	for r := range resNames {
		nm.ctls[r] = make(map[string]*capController)
		nm.offenders[r] = make(map[string]bool)
		nm.prevAnt[r] = make(map[string]bool)
	}
	nm.inst.register(cfg.Metrics, hv.ServerID())
	nm.tMonitor = cfg.Health.Timer("core.monitor")
	return nm
}

// ServerID returns the id of the managed server.
func (nm *NodeManager) ServerID() string { return nm.hv.ServerID() }

// Trace returns the recorded control history as a read-only view of the
// append-only log, not a copy: its capacity is capped at its length, so
// appending to it reallocates and never touches the log, and later
// intervals are recorded past its end.
func (nm *NodeManager) Trace() []TraceEntry { return nm.trace[:len(nm.trace):len(nm.trace)] }

// Correlator exposes the identification state (for tests and traces).
func (nm *NodeManager) Correlator() *Correlator { return nm.corr }

// Migrations returns the VM ids this agent asked the cloud manager to
// move off its server (empty unless EnableMigration).
func (nm *NodeManager) Migrations() []string { return append([]string(nil), nm.migrations...) }

// NextSampleSec returns the simulated time at which the agent next acts;
// a Tick whose time is strictly below it is a no-op. The event-driven
// stepper bounds strides by it so no control interval is ever elided
// (DESIGN.md §5.6).
func (nm *NodeManager) NextSampleSec() float64 { return nm.nextSample }

// Tick implements sim.Tickable; the agent acts every IntervalSec of
// simulated time. Register it after the cluster (priority +1) so it
// observes completed intervals.
func (nm *NodeManager) Tick(c *sim.Clock) {
	now := c.Seconds()
	if now < nm.nextSample {
		return
	}
	nm.nextSample = now + nm.cfg.IntervalSec
	tm := nm.tMonitor.Begin()
	nm.runInterval(now)
	nm.tMonitor.End(tm)
}

// runInterval executes one round of Algorithm 1.
func (nm *NodeManager) runInterval(now float64) {
	nm.interval++
	// Step 1: fetch VM roles from the cloud manager (placement may have
	// changed through arrivals, terminations or migration). A single
	// streaming pass over the placement fills the reused scratch maps and
	// slices — the grouping HighPriorityApps produces plus the sorted
	// low-priority VMs, without rebuilding slices every interval.
	for id, vms := range nm.apps {
		nm.apps[id] = vms[:0]
	}
	nm.lowPri = nm.lowPri[:0]
	err := nm.cm.EachVMOnServer(nm.ServerID(), func(in cloud.VMInfo) {
		switch {
		case in.Priority == cluster.HighPriority && in.AppID != "":
			nm.apps[in.AppID] = append(nm.apps[in.AppID], in.ID)
		case in.Priority == cluster.LowPriority:
			nm.lowPri = append(nm.lowPri, in.ID)
		}
	})
	if err != nil {
		return
	}
	nm.appIDs = nm.appIDs[:0]
	for id, vms := range nm.apps {
		if len(vms) > 0 {
			sort.Strings(vms)
			nm.appIDs = append(nm.appIDs, id)
		}
	}
	sort.Strings(nm.appIDs)
	sort.Strings(nm.lowPri)
	apps, lowPri := nm.apps, nm.lowPri

	// Step 2: sample the performance monitor.
	s := nm.mon.Sample(now, nm.cfg.IntervalSec)

	// Step 3: deviation signals — the maximum across the server's
	// high-priority applications (usually there is exactly one).
	var det Detection
	for _, id := range nm.appIDs {
		d := Detect(s, apps[id], nm.cfg.Thresholds)
		det.IowaitDev = math.Max(det.IowaitDev, d.IowaitDev)
		det.CPIDev = math.Max(det.CPIDev, d.CPIDev)
		det.MeanIowait = math.Max(det.MeanIowait, d.MeanIowait)
		det.MeanCPI = math.Max(det.MeanCPI, d.MeanCPI)
		det.IOContention = det.IOContention || d.IOContention
		det.CPUContention = det.CPUContention || d.CPUContention
	}

	nm.inst.intervals.Inc()
	nm.inst.domains.Set(float64(s.Len()))
	nm.inst.realigns.Set(float64(nm.mon.Realigns()))
	nm.inst.iowaitDev.Observe(det.IowaitDev)
	nm.inst.cpiDev.Observe(det.CPIDev)
	if det.IOContention {
		nm.inst.detects[resIO].Inc()
	}
	if det.CPUContention {
		nm.inst.detects[resCPU].Inc()
	}
	if nm.events != nil {
		nm.events.Emit(obs.Event{
			T: now, Type: obs.EventSample, Server: nm.ServerID(),
			Domains: s.Len(), IowaitDev: det.IowaitDev, CPIDev: det.CPIDev,
			MeanIowait: det.MeanIowait, MeanCPI: det.MeanCPI,
		})
		if det.Contention() {
			nm.events.Emit(obs.Event{
				T: now, Type: obs.EventDetect, Server: nm.ServerID(),
				IowaitDev: det.IowaitDev, CPIDev: det.CPIDev,
				IOContention: det.IOContention, CPUContention: det.CPUContention,
			})
		}
	}

	// Step 4: update correlation state and identify antagonists. A VM is
	// engaged once it is identified (or is a known offender) in two
	// consecutive contended intervals.
	nm.corr.Record(now, det, s, lowPri)
	contention := [2]bool{det.IOContention, det.CPUContention}
	var ant [2][]string
	for r := range resNames {
		switch {
		case !contention[r]:
			clear(nm.prevAnt[r])
		case r == resIO:
			ant[r] = nm.confirm(nm.corr.IOAntagonists(), nm.prevAnt[r], nm.offenders[r])
		default:
			ant[r] = nm.confirm(nm.corr.CPUAntagonists(), nm.prevAnt[r], nm.offenders[r])
		}
		nm.inst.identified[r].Add(uint64(len(ant[r])))
	}
	ioAnt, cpuAnt := ant[resIO], ant[resCPU]
	if nm.events != nil && det.Contention() {
		// Correlations() is cached for this interval (Record just ran), so
		// copying it into the audit record costs one slice allocation.
		corrs := nm.corr.Correlations()
		ev := obs.Event{
			T: now, Type: obs.EventIdentify, Server: nm.ServerID(),
			IOAntagonists: ioAnt, CPUAntagonists: cpuAnt,
		}
		for _, r := range corrs {
			ev.Corr = append(ev.Corr, obs.SuspectCorr{VM: r.VMID, IO: r.IO, CPU: r.CPU})
		}
		nm.events.Emit(ev)
	}

	// Step 5: drive the controllers and apply caps, I/O first.
	for r := range resNames {
		if !nm.cfg.ObserveOnly {
			nm.control(now, r, contention[r], ant[r], s)
		}
		nm.inst.ctls[r].Set(float64(len(nm.ctls[r])))
	}

	// Step 6 (extension, §IV-D2): when contention persists with no
	// low-priority VM to throttle — i.e. high-priority applications are
	// interfering with each other — escalate to the cloud manager, which
	// may migrate one of the colliding apps' VMs off this server.
	if nm.cfg.EnableMigration {
		if det.Contention() && len(nm.ctls[resIO]) == 0 && len(nm.ctls[resCPU]) == 0 && len(nm.appIDs) >= 2 {
			nm.unresolvable++
			if nm.unresolvable >= migrationAfterIntervals {
				if moved, err := nm.cm.RebalanceHighPriority(nm.ServerID()); err == nil && moved != "" {
					nm.migrations = append(nm.migrations, moved)
					nm.inst.migrations.Inc()
					if nm.events != nil {
						nm.events.Emit(obs.Event{
							T: now, Type: obs.EventMigrate,
							Server: nm.ServerID(), VM: moved,
						})
					}
				}
				nm.unresolvable = 0
			}
		} else {
			nm.unresolvable = 0
		}
	}

	entry := TraceEntry{
		TimeSec:        now,
		IowaitDev:      det.IowaitDev,
		CPIDev:         det.CPIDev,
		MeanIowait:     det.MeanIowait,
		MeanCPI:        det.MeanCPI,
		IOContention:   det.IOContention,
		CPUContention:  det.CPUContention,
		IOAntagonists:  ioAnt,
		CPUAntagonists: cpuAnt,
		IOCaps:         capsInForce(nm.ctls[resIO]),
		CPUCaps:        capsInForce(nm.ctls[resCPU]),
	}
	nm.trace = append(nm.trace, entry)
}

// capsInForce snapshots each controller's absolute cap, or returns nil
// when none is engaged — most intervals on most servers.
func capsInForce(ctls map[string]*capController) map[string]float64 {
	if len(ctls) == 0 {
		return nil
	}
	caps := make(map[string]float64, len(ctls))
	for id, ctl := range ctls {
		caps[id] = ctl.policy.Cap() * ctl.initial
	}
	return caps
}

// confirm filters an identification list: identified VMs that were also
// identified last interval (or are known offenders) pass; the rest are
// remembered for next interval. The map is updated to this interval's
// raw identifications.
func (nm *NodeManager) confirm(identified []string, prev map[string]bool, offenders map[string]bool) []string {
	var out []string
	next := make(map[string]bool, len(identified))
	for _, id := range identified {
		next[id] = true
		if prev[id] || offenders[id] {
			out = append(out, id)
		}
	}
	// Replace the channel's previous-identification set in place.
	for id := range prev {
		delete(prev, id)
	}
	for id := range next {
		prev[id] = true
	}
	return out
}

// control updates one channel's cap controllers (resIO: blkio IOPS and
// BPS throttles; resCPU: the vcpu-quota hard cap). Per Equation 1, the
// antagonist set is sticky: newly identified antagonists get
// controllers, and while the channel's contention persists (I(t) > H)
// *every* controlled VM keeps decreasing — identification is periodic,
// not per-interval, so a constant-rate antagonist that throttling has
// rendered uncorrelatable stays managed. Controllers release once
// contention is gone and the probing cap exceeds ReleaseFactor times the
// VM's original usage.
func (nm *NodeManager) control(now float64, res int, contention bool, antagonists []string, s Sample) {
	ctls, offenders := nm.ctls[res], nm.offenders[res]
	for _, id := range antagonists {
		offenders[id] = true
	}
	// Re-engage active prior offenders during contention: identification
	// conclusions persist, so a known antagonist that wakes up again is
	// throttled immediately instead of waiting out a fresh correlation
	// window.
	if contention {
		for id := range offenders {
			if vs, ok := s.Get(id); ok && usage(res, vs) > 0 {
				antagonists = append(antagonists, id)
			}
		}
	}
	for _, id := range antagonists {
		if _, ok := ctls[id]; !ok {
			vs, _ := s.Get(id)
			init := usage(res, vs)
			if init <= 0 {
				continue // nothing observed to base a cap on yet
			}
			ctl := &capController{policy: nm.newPolicy(), initial: init}
			if res == resIO {
				ctl.opSize = 4096.0
				if vs.IOThroughputBps > 0 {
					ctl.opSize = vs.IOThroughputBps / vs.IOPS
				}
			}
			ctls[id] = ctl
		}
	}
	for _, id := range nm.sortedCtlIDs(ctls) {
		ctl := ctls[id]
		old := ctl.policy.Cap()
		frac := ctl.policy.Update(nm.interval, contention)
		if !contention && frac >= nm.cfg.ReleaseFactor {
			nm.setCap(res, id, ctl, 0)
			delete(ctls, id)
			nm.inst.released[res].Inc()
			nm.emitRelease(now, res, id, ctl, old)
			continue
		}
		if err := nm.setCap(res, id, ctl, frac*ctl.initial); err != nil {
			delete(ctls, id) // domain gone (terminated or migrated)
			continue
		}
		if frac != old {
			nm.inst.capUpdates[res].Inc()
			nm.emitCap(now, res, id, ctl, old, frac)
		}
	}
}

// usage is a VM's observed usage on a channel: IOPS or cores.
func usage(res int, vs VMSample) float64 {
	if res == resIO {
		return vs.IOPS
	}
	return vs.CPUUsageCores
}

// setCap applies a channel's cap through the hypervisor (0 lifts it). An
// I/O cap throttles IOPS and, at the op size observed when the
// controller started, bytes per second. The error is the first call's:
// it fails only when the domain is gone.
func (nm *NodeManager) setCap(res int, id string, ctl *capController, limit float64) error {
	if res == resCPU {
		return nm.hv.SetVCPUQuota(id, limit)
	}
	if err := nm.hv.SetBlkioThrottleIOPS(id, limit); err != nil {
		return err
	}
	nm.hv.SetBlkioThrottleBPS(id, limit*ctl.opSize)
	return nil
}

// sortedCtlIDs fills the reused capIDs scratch with a controller map's
// keys in sorted order. Map iteration order is random per run; applying
// caps in sorted VM order keeps hypervisor calls and the audit log
// deterministic across same-seed runs.
func (nm *NodeManager) sortedCtlIDs(ctls map[string]*capController) []string {
	nm.capIDs = nm.capIDs[:0]
	for id := range ctls {
		nm.capIDs = append(nm.capIDs, id)
	}
	sort.Strings(nm.capIDs)
	return nm.capIDs
}

// emitCap records one applied cap change on the audit log: the absolute
// old and new caps plus, when the policy is the paper's CUBIC, the
// growth-curve region and intervals since the last decrease.
func (nm *NodeManager) emitCap(now float64, res int, id string, ctl *capController, oldFrac, newFrac float64) {
	if nm.events == nil {
		return
	}
	ev := obs.Event{
		T: now, Type: obs.EventCap, Server: nm.ServerID(), VM: id,
		Res:    resNames[res],
		OldCap: oldFrac * ctl.initial, NewCap: newFrac * ctl.initial,
	}
	if cb, ok := ctl.policy.(*Cubic); ok {
		ev.Region = cb.Region(nm.interval)
		ev.SinceDecrease = nm.interval - cb.LastDecrease()
	}
	nm.events.Emit(ev)
}

// emitRelease records a controller removal (cap lifted entirely).
func (nm *NodeManager) emitRelease(now float64, res int, id string, ctl *capController, oldFrac float64) {
	if nm.events == nil {
		return
	}
	nm.events.Emit(obs.Event{
		T: now, Type: obs.EventRelease, Server: nm.ServerID(), VM: id,
		Res: resNames[res], OldCap: oldFrac * ctl.initial,
	})
}

// newPolicy builds a normalized cap controller: C starts at 1 (the VM's
// observed usage), floored at MinCapFraction and with probing bounded at
// ReleaseFactor so a re-throttle bites immediately. The default is the
// paper's CUBIC (Eq. 1); Config.NewPolicy substitutes an alternative for
// the control-policy ablation.
func (nm *NodeManager) newPolicy() CapPolicy {
	if nm.cfg.NewPolicy != nil {
		return nm.cfg.NewPolicy()
	}
	cfg := nm.cfg.Cubic
	cfg.MinCap = nm.cfg.MinCapFraction
	cfg.MaxCap = nm.cfg.ReleaseFactor
	return NewCubic(cfg, 1)
}
