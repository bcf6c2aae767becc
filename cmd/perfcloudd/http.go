package main

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/pprof"
	"strconv"
	"sync"

	"perfcloud/internal/obs"
)

// daemonServer exposes a running (or finished) daemon's observability
// state over HTTP: Prometheus text on /metrics, the decision audit
// log's retained tail on /debug/events, the simulation's fast-path
// accounting on /debug/fastpaths, the daemon's time series on
// /debug/series, the latest detection scorecard on /debug/score, the
// alert engine's rule statuses on /debug/alerts and the wall-clock
// self-profiling snapshot on /debug/health. All endpoints are safe to
// serve while the simulation is stepping: the registries and ring are
// internally synchronized, and the fast-path snapshot, scorecard and
// alert statuses are replaced under mu by the run loop's hooks rather
// than read live from the cluster.
type daemonServer struct {
	reg    *obs.Registry
	ring   *obs.Ring
	series *obs.SeriesRegistry
	health *obs.Health

	mu     sync.Mutex
	fast   obs.FastPathSnapshot
	score  *obs.Scorecard
	alerts *alertState
}

// alertState is the /debug/alerts payload, swapped whole by setAlerts.
type alertState struct {
	Summary  obs.AlertSummary  `json:"summary"`
	Statuses []obs.AlertStatus `json:"statuses"`
}

func newDaemonServer(reg *obs.Registry, ring *obs.Ring, series *obs.SeriesRegistry) *daemonServer {
	return &daemonServer{reg: reg, ring: ring, series: series}
}

// setFastPaths is the runConfig.OnInterval hook.
func (s *daemonServer) setFastPaths(fp obs.FastPathSnapshot) {
	s.mu.Lock()
	s.fast = fp
	s.mu.Unlock()
}

// setScore is the runConfig.OnScore hook.
func (s *daemonServer) setScore(sc obs.Scorecard) {
	s.mu.Lock()
	s.score = &sc
	s.mu.Unlock()
}

// setAlerts is the runConfig.OnAlerts hook.
func (s *daemonServer) setAlerts(sts []obs.AlertStatus, sum obs.AlertSummary) {
	s.mu.Lock()
	s.alerts = &alertState{Summary: sum, Statuses: sts}
	s.mu.Unlock()
}

// endpoints lists every registered path, in registration order; the
// index handler renders it so the daemon is explorable from "/".
var endpoints = []struct{ path, doc string }{
	{"/metrics", "Prometheus text exposition of all registered instruments"},
	{"/debug/events", "retained tail of the decision audit log (JSON)"},
	{"/debug/fastpaths", "cumulative simulation fast-path counters (JSON)"},
	{"/debug/series", "daemon time series; ?since=<simSec> delta scrape, ?max=N downsample"},
	{"/debug/score", "detection scorecard vs ground truth (404 until the run ends)"},
	{"/debug/alerts", "alert rule statuses and summary (404 until rules evaluate)"},
	{"/debug/health", "wall-clock engine self-profiling snapshot (JSON)"},
	{"/debug/pprof/", "Go runtime profiles (heap, goroutine, CPU via ?seconds=N)"},
}

func (s *daemonServer) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/", s.serveIndex)
	mux.HandleFunc("/metrics", s.serveMetrics)
	mux.HandleFunc("/debug/events", s.serveEvents)
	mux.HandleFunc("/debug/fastpaths", s.serveFastPaths)
	mux.HandleFunc("/debug/series", s.serveSeries)
	mux.HandleFunc("/debug/score", s.serveScore)
	mux.HandleFunc("/debug/alerts", s.serveAlerts)
	mux.HandleFunc("/debug/health", s.serveHealth)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// serveIndex lists the registered endpoints. The "/" pattern matches
// every otherwise-unhandled path, so anything but the root itself is an
// explicit 404 rather than a silent index.
func (s *daemonServer) serveIndex(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "perfcloudd endpoints:")
	for _, e := range endpoints {
		fmt.Fprintf(w, "  %-18s %s\n", e.path, e.doc)
	}
}

func (s *daemonServer) serveMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", obs.ContentType)
	if err := s.reg.WritePrometheus(w); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// serveEvents writes {"total":…,"retained":…,"events":[…]} byte for byte
// as json.Encoder would, appending the events straight from the ring.
func (s *daemonServer) serveEvents(w http.ResponseWriter, _ *http.Request) {
	events, total, n, ok := s.ring.AppendJSON(make([]byte, 0, 4096))
	if !ok {
		http.Error(w, "events: a retained event holds a NaN or infinite value", http.StatusInternalServerError)
		return
	}
	head := append(make([]byte, 0, 64), `{"total":`...)
	head = strconv.AppendUint(head, total, 10)
	head = append(head, `,"retained":`...)
	head = strconv.AppendInt(head, int64(n), 10)
	head = append(head, `,"events":`...)
	w.Header().Set("Content-Type", "application/json")
	w.Write(head)
	w.Write(append(events, "}\n"...))
}

func (s *daemonServer) serveFastPaths(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	fp := s.fast
	s.mu.Unlock()
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(fp)
}

// serveSeries renders the daemon's time series. ?since=<simSeconds>
// returns only points strictly after that simulation time (delta
// scrape); ?max=N downsamples each series to at most N points (0, like
// no max, keeps every point). A since that is not a finite number or a
// negative max is rejected with 400.
func (s *daemonServer) serveSeries(w http.ResponseWriter, r *http.Request) {
	var since float64
	var max int
	if v := r.URL.Query().Get("since"); v != "" {
		f, err := strconv.ParseFloat(v, 64)
		if err == nil && (math.IsNaN(f) || math.IsInf(f, 0)) {
			err = fmt.Errorf("%q is not a finite time", v)
		}
		if err != nil {
			http.Error(w, "bad since: "+err.Error(), http.StatusBadRequest)
			return
		}
		since = f
	}
	if v := r.URL.Query().Get("max"); v != "" {
		n, err := strconv.Atoi(v)
		if err == nil && n < 0 {
			err = fmt.Errorf("%d is negative", n)
		}
		if err != nil {
			http.Error(w, "bad max: "+err.Error(), http.StatusBadRequest)
			return
		}
		max = n
	}
	w.Header().Set("Content-Type", "application/json")
	if err := s.series.WriteJSON(w, since, max); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// serveScore returns the latest detection scorecard, or 404 until the
// run has finished and graded itself.
func (s *daemonServer) serveScore(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	sc := s.score
	s.mu.Unlock()
	if sc == nil {
		http.Error(w, "no scorecard yet: run still in progress", http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(sc)
}

// serveAlerts returns the alert engine's latest rule statuses and
// summary, or 404 until the first evaluation (or when -alerts is off).
func (s *daemonServer) serveAlerts(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	a := s.alerts
	s.mu.Unlock()
	if a == nil {
		http.Error(w, "no alerts yet: rules not evaluated (is -alerts on?)", http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(a)
}

// serveHealth returns the wall-clock self-profiling snapshot: phase
// timers, pool contention, shard imbalance and the runtime bridge.
func (s *daemonServer) serveHealth(w http.ResponseWriter, _ *http.Request) {
	if s.health == nil {
		http.Error(w, "health layer not attached", http.StatusNotFound)
		return
	}
	s.health.SampleRuntime()
	w.Header().Set("Content-Type", "application/json")
	if err := s.health.WriteJSON(w); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}
