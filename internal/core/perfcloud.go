package core

import (
	"perfcloud/internal/cloud"
	"perfcloud/internal/cluster"
	"perfcloud/internal/hypervisor"
	"perfcloud/internal/obs"
	"perfcloud/internal/sim"
)

// System is PerfCloud deployed across a cluster: one decentralized node
// manager per physical server, each acting only on its own machine
// (§III-D, Fig. 8). There is no central controller — the managers share
// nothing but the cloud manager's read-only VM metadata.
type System struct {
	managers []*NodeManager

	// alerts is the rule-engine ticker (nil without cfg.Alerts). It acts
	// on the same sim-time cadence discipline as the managers, so its
	// next-eval time folds into the stride bound below.
	alerts *alertTicker

	// Cached minimum of the managers' NextSampleSec, for StrideBound.
	// A manager's next-interval time only moves when its Tick fires, and
	// that only happens on a tick at or past the minimum — so the cached
	// value stays exact for every tick strictly before it.
	boundValid bool
	nextAct    float64
}

// alertTicker evaluates the alert engine every IntervalSec of simulated
// time, registered at priority +2 so every manager's control interval —
// and the events it emits — lands before the rules are checked.
type alertTicker struct {
	eng      *obs.AlertEngine
	interval float64
	next     float64
}

// Tick implements sim.Tickable.
func (a *alertTicker) Tick(c *sim.Clock) {
	now := c.Seconds()
	if now < a.next {
		return
	}
	a.next = now + a.interval
	a.eng.Eval(now)
}

// NextEvalSec returns the simulated time of the next rule evaluation,
// for stride bounding.
func (a *alertTicker) NextEvalSec() float64 { return a.next }

// Attach deploys PerfCloud on every server of the cluster and registers
// the agents with the engine at priority +1, after the resource pipeline,
// so each control interval observes completed measurements.
func Attach(eng *sim.Engine, cl *cluster.Cluster, cm *cloud.Manager, cfg Config) *System {
	sys := &System{}
	if cfg.Alerts != nil {
		// The rule engine consumes the same audit stream the Events sink
		// sees; fan the managers' emissions out to both. The engine's own
		// alert events go to whatever output sink it was constructed with
		// (and it ignores EventAlert on input, so sharing a sink is safe).
		if cfg.Events != nil {
			cfg.Events = obs.MultiSink{cfg.Events, cfg.Alerts}
		} else {
			cfg.Events = cfg.Alerts
		}
	}
	if cfg.Health != nil {
		cl.SetHealth(cfg.Health)
	}
	cl.EachServer(func(srv *cluster.Server) {
		nm := NewNodeManager(cfg, cm, hypervisor.New(srv))
		sys.managers = append(sys.managers, nm)
		eng.RegisterPriority(nm, 1)
	})
	if cfg.Alerts != nil {
		sys.alerts = &alertTicker{eng: cfg.Alerts, interval: cfg.IntervalSec}
		eng.RegisterPriority(sys.alerts, 2)
	}
	return sys
}

// Managers returns a copy of the per-server agents in server order.
func (s *System) Managers() []*NodeManager { return append([]*NodeManager(nil), s.managers...) }

// EachManager calls fn for every agent in server order without copying
// the manager slice — the per-interval alternative to Managers() for
// exposition and status paths (matching the EachDomain/EachVMOnServer
// convention). fn must not attach or detach managers.
func (s *System) EachManager(fn func(*NodeManager)) {
	for _, nm := range s.managers {
		fn(nm)
	}
}

// StrideBound caps max to the number of upcoming ticks — starting with
// the next tick to execute on clk — that fall strictly before every
// agent's next control interval, so event-driven strides never elide a
// tick on which some node manager would act. TicksBefore is monotone in
// its target, so the per-manager minimum equals TicksBefore of the
// earliest next interval — which is cached across calls and recomputed
// only once the clock reaches it, making the per-stride cost O(1)
// instead of O(managers) on a planet-scale fleet.
func (s *System) StrideBound(clk *sim.Clock, max int64) int64 {
	if len(s.managers) == 0 && s.alerts == nil {
		return max
	}
	if max <= 0 {
		return 0
	}
	if len(s.managers) == 0 {
		return clk.TicksBefore(s.alerts.NextEvalSec(), max)
	}
	if !s.boundValid || !(clk.PeekSeconds(0) < s.nextAct) {
		s.nextAct = s.managers[0].NextSampleSec()
		for _, nm := range s.managers[1:] {
			if t := nm.NextSampleSec(); t < s.nextAct {
				s.nextAct = t
			}
		}
		if s.alerts != nil && s.alerts.NextEvalSec() < s.nextAct {
			s.nextAct = s.alerts.NextEvalSec()
		}
		s.boundValid = true
	}
	return clk.TicksBefore(s.nextAct, max)
}
