package main

import (
	"io"

	"perfcloud/internal/obs"
	"perfcloud/internal/sim"
	"perfcloud/internal/trace"
)

// observerOpts selects the observers main attaches from its flags.
type observerOpts struct {
	// Events, when non-nil, receives the audit log as JSONL (-events).
	Events io.Writer
	// Trace records spans and the audit events a Perfetto export
	// renders (-trace).
	Trace bool
	// Alerts deploys the default alert rule pack (-alerts).
	Alerts bool
	// HTTP builds the state the HTTP endpoints serve (-http); the caller
	// owns the listener.
	HTTP bool
}

// observers is what wireObservers attached, for the caller to export
// once the run ends. Fields of observers not selected are nil.
type observers struct {
	jsonl *obs.JSONLSink
	col   *obs.Collector // the audit events the Perfetto export renders
	srv   *daemonServer
}

// wireObservers attaches the selected observers to cfg: the tracer and
// its collector, the JSONL sink, the alert rules, and the HTTP state
// with its wall-clock health layer.
func wireObservers(cfg *runConfig, o observerOpts) *observers {
	var out observers
	var sinks obs.MultiSink
	if o.Alerts {
		cfg.AlertRules = obs.DefaultRules(obs.DefaultRulesConfig{})
	}
	if o.Trace {
		cfg.Tracer = trace.NewTracer()
		out.col = obs.NewCollector()
		sinks = append(sinks, out.col)
	}
	if o.Events != nil {
		out.jsonl = obs.NewJSONLSink(o.Events)
		sinks = append(sinks, out.jsonl)
	}
	if o.HTTP {
		cfg.Metrics = obs.NewRegistry()
		cfg.Series = obs.NewSeriesRegistry(0)
		out.srv = newDaemonServer(cfg.Metrics, obs.NewRing(4096), cfg.Series)
		sinks = append(sinks, out.srv.ring)
		cfg.OnInterval = out.srv.setFastPaths
		cfg.OnScore = out.srv.setScore
		cfg.OnAlerts = out.srv.setAlerts
		// Wall-clock self-profiling rides along with the HTTP surface:
		// phase timers, tick-pool contention and the runtime bridge, all
		// kept out of the deterministic sim outputs.
		cfg.Health = obs.NewHealth(cfg.Metrics)
		cfg.Health.SetPoolStats(func() obs.PoolHealth {
			st := sim.SharedPool().Stats()
			return obs.PoolHealth{
				Capacity: st.Capacity, InUse: st.InUse, Peak: st.Peak,
				TryAcquires: st.TryAcquires, Denied: st.Denied, GrantedSlots: st.GrantedSlots,
			}
		})
		out.srv.health = cfg.Health
	}
	if len(sinks) > 0 {
		cfg.Events = sinks
	}
	return &out
}
