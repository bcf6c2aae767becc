// Command perfcloudd demonstrates the PerfCloud node-manager agent the
// way it would run as a daemon on a physical server (§III-D): it builds
// one simulated server hosting a high-priority Hadoop cluster plus
// antagonist VMs, runs the agent, and logs every 5-second control
// interval — detections, identified antagonists and the caps applied.
//
// With -http the daemon also exposes its control-plane observability:
// an index of every endpoint on /, a Prometheus /metrics endpoint, the
// typed decision audit log on /debug/events, the simulation's fast-path
// accounting on /debug/fastpaths, the daemon's time series on
// /debug/series (?since=<simSeconds> for delta scrapes, ?max=N to
// downsample), the wall-clock engine self-profiling snapshot on
// /debug/health, Go runtime profiles under /debug/pprof/ and, once the
// run finishes, the detection scorecard — cap decisions graded against
// the testbed's ground-truth antagonist registry — on /debug/score.
// -events appends the full audit log as JSONL.
// -alerts deploys the default deterministic alert rule pack: rules are
// evaluated on sim time, their lifecycle transitions land in the audit
// stream as alert events, and live statuses serve on /debug/alerts.
// -trace records every task attempt with phase attribution and writes a
// Perfetto/chrome-trace JSON timeline, with the agent's cap/release
// decisions as instant markers. experiments.Observe builds these
// observers, as it does for psim and the experiments. With -http the
// endpoints stay up after the run until SIGINT or SIGTERM.
//
// Usage:
//
//	perfcloudd [-duration 3m] [-seed N] [-http :8080] [-events out.jsonl]
//	           [-alerts] [-trace out.json]
//
// A -duration that is not positive is a usage error (exit status 2).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"perfcloud/internal/obs"
	"perfcloud/internal/sim"
)

// options are perfcloudd's flag settings.
type options struct {
	duration                        time.Duration
	seed                            int64
	httpAddr, eventsPath, tracePath string
	alerts                          bool
}

// validate returns a usage error for settings perfcloudd cannot run.
func (o options) validate() error {
	if o.duration <= 0 {
		return fmt.Errorf("-duration must be positive, got %v", o.duration)
	}
	return nil
}

func main() {
	var o options
	flag.DurationVar(&o.duration, "duration", 3*time.Minute, "simulated runtime")
	flag.Int64Var(&o.seed, "seed", 42, "random seed")
	flag.StringVar(&o.httpAddr, "http", "", "serve /metrics, /debug/events and /debug/fastpaths on this address (e.g. :8080)")
	flag.StringVar(&o.eventsPath, "events", "", "write the decision audit log as JSONL to this file")
	flag.StringVar(&o.tracePath, "trace", "", "write a Perfetto/chrome-trace JSON timeline to this file")
	flag.BoolVar(&o.alerts, "alerts", false, "evaluate the default alert rules on sim time (statuses on /debug/alerts)")
	flag.Parse()
	if err := o.validate(); err != nil {
		fmt.Fprintln(os.Stderr, "perfcloudd:", err)
		flag.Usage()
		os.Exit(2)
	}
	if err := daemon(o, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfcloudd:", err)
		os.Exit(1)
	}
}

// daemon runs the scenario with the observers o selects, writes the
// audit log and the trace, and with -http serves the endpoints until
// SIGINT or SIGTERM.
func daemon(o options, stdout io.Writer) error {
	cfg := runConfig{Duration: o.duration, Seed: o.seed, Log: stdout}
	var events io.Writer
	var eventsFile *os.File
	if o.eventsPath != "" {
		f, err := os.Create(o.eventsPath)
		if err != nil {
			return err
		}
		defer f.Close() // for error returns; closeEvents checks Close
		events, eventsFile = f, f
	}
	jsonl, srv := wireObservers(&cfg, o, events)
	var served chan error
	if srv != nil {
		ln, err := net.Listen("tcp", o.httpAddr)
		if err != nil {
			return err
		}
		ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
		defer stop()
		served = make(chan error, 1)
		go func() { served <- serve(ctx, ln, srv.handler()) }()
		fmt.Fprintf(stdout, "perfcloudd: serving /metrics, /debug/{events,fastpaths,series,score,alerts,health,pprof} on http://%s\n", ln.Addr())
	}

	ob, err := run(cfg)
	if err != nil {
		return err
	}
	if jsonl != nil {
		if err := closeEvents(jsonl, eventsFile); err != nil {
			return fmt.Errorf("writing events: %w", err)
		}
		fmt.Fprintf(stdout, "perfcloudd: audit log written to %s\n", o.eventsPath)
	}
	if o.tracePath != "" {
		if err := ob.ExportTrace(o.tracePath); err != nil {
			return fmt.Errorf("writing trace: %w", err)
		}
		fmt.Fprintf(stdout, "perfcloudd: %d spans written to %s (open at https://ui.perfetto.dev)\n",
			ob.Tracer.Len(), o.tracePath)
	}
	if served != nil {
		fmt.Fprintln(stdout, "perfcloudd: run complete; endpoints stay up, ctrl-c to exit")
		return <-served
	}
	return nil
}

// wireObservers selects on cfg the observers o's -trace, -alerts and
// -http flags ask for, and the JSONL audit log into events when it is
// non-nil (-events). run attaches them through cfg.Observe. It returns
// the JSONL sink and the HTTP state with its wall-clock health layer,
// each nil when not selected, for the caller to flush and serve.
func wireObservers(cfg *runConfig, o options, events io.Writer) (jsonl *obs.JSONLSink, srv *daemonServer) {
	var sinks obs.MultiSink
	cfg.Observe.Trace = o.tracePath != ""
	if o.alerts {
		cfg.Observe.Rules = obs.DefaultRules(obs.DefaultRulesConfig{})
	}
	if events != nil {
		jsonl = obs.NewJSONLSink(events)
		sinks = append(sinks, jsonl)
	}
	if o.httpAddr != "" {
		cfg.Metrics = obs.NewRegistry()
		cfg.Series = obs.NewSeriesRegistry(0)
		srv = newDaemonServer(cfg.Metrics, obs.NewRing(4096), cfg.Series)
		sinks = append(sinks, srv.ring)
		cfg.OnInterval = srv.setFastPaths
		cfg.OnScore = srv.setScore
		cfg.OnAlerts = srv.setAlerts
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
		srv.health = cfg.Health
	}
	if len(sinks) > 0 {
		cfg.Observe.Out = sinks
	}
	return jsonl, srv
}

// serve answers HTTP on ln with h until ctx is done, then shuts the
// server down, letting in-flight requests finish for a few seconds. It
// returns nil after a shutdown, or the error that stopped Serve. There is
// no write timeout: /debug/pprof/profile?seconds=N streams for N seconds.
func serve(ctx context.Context, ln net.Listener, h http.Handler) error {
	srv := &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second, MaxHeaderBytes: 64 << 10}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	sctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	err := srv.Shutdown(sctx)
	if serr := <-errc; !errors.Is(serr, http.ErrServerClosed) {
		return serr
	}
	return err
}

// closeEvents flushes the audit log and closes the file under it,
// returning the first error of the two: a failed close can lose data
// the flush handed to the file.
func closeEvents(s *obs.JSONLSink, f io.Closer) error {
	err := s.Flush()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
