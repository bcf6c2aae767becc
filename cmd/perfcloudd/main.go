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
// decisions as instant markers.
//
// Usage:
//
//	perfcloudd [-duration 3m] [-seed N] [-http :8080] [-events out.jsonl]
//	           [-alerts] [-trace out.json]
package main

import (
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"time"

	"perfcloud/internal/obs"
)

func main() {
	duration := flag.Duration("duration", 3*time.Minute, "simulated runtime")
	seed := flag.Int64("seed", 42, "random seed")
	httpAddr := flag.String("http", "", "serve /metrics, /debug/events and /debug/fastpaths on this address (e.g. :8080)")
	eventsPath := flag.String("events", "", "write the decision audit log as JSONL to this file")
	tracePath := flag.String("trace", "", "write a Perfetto/chrome-trace JSON timeline to this file")
	alerts := flag.Bool("alerts", false, "evaluate the default alert rules on sim time (statuses on /debug/alerts)")
	flag.Parse()

	cfg := runConfig{Duration: *duration, Seed: *seed, Log: os.Stdout}
	opts := observerOpts{Trace: *tracePath != "", Alerts: *alerts, HTTP: *httpAddr != ""}
	var eventsFile *os.File
	if *eventsPath != "" {
		f, err := os.Create(*eventsPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfcloudd:", err)
			os.Exit(1)
		}
		eventsFile = f
		opts.Events = f
	}
	o := wireObservers(&cfg, opts)
	if o.srv != nil {
		ln, err := net.Listen("tcp", *httpAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfcloudd:", err)
			os.Exit(1)
		}
		go http.Serve(ln, o.srv.handler())
		fmt.Printf("perfcloudd: serving /metrics, /debug/{events,fastpaths,series,score,alerts,health,pprof} on http://%s\n", ln.Addr())
	}

	if err := run(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "perfcloudd:", err)
		os.Exit(1)
	}

	if o.jsonl != nil {
		if err := closeEvents(o.jsonl, eventsFile); err != nil {
			fmt.Fprintln(os.Stderr, "perfcloudd: writing events:", err)
			os.Exit(1)
		}
		fmt.Printf("perfcloudd: audit log written to %s\n", *eventsPath)
	}
	if *tracePath != "" {
		f, err := os.Create(*tracePath)
		if err == nil {
			err = cfg.Tracer.WritePerfetto(f, o.col.Events())
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfcloudd: writing trace:", err)
			os.Exit(1)
		}
		fmt.Printf("perfcloudd: %d spans written to %s (open at https://ui.perfetto.dev)\n",
			cfg.Tracer.Len(), *tracePath)
	}
	if o.srv != nil {
		fmt.Println("perfcloudd: run complete; endpoints stay up, ctrl-c to exit")
		select {}
	}
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
