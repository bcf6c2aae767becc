package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"perfcloud/internal/experiments"
	"perfcloud/internal/obs"
)

// runStream runs the daemon scenario with a JSONL sink and returns the
// raw audit log.
func runStream(t *testing.T, seed int64) []byte {
	t.Helper()
	var buf bytes.Buffer
	sink := obs.NewJSONLSink(&buf)
	cfg := runConfig{Duration: 3 * time.Minute, Seed: seed, Log: io.Discard}
	cfg.Observe.Out = sink
	if _, err := run(cfg); err != nil {
		t.Fatal(err)
	}
	if err := sink.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestSameSeedRunsProduceIdenticalEventStreams(t *testing.T) {
	a := runStream(t, 42)
	b := runStream(t, 42)
	if len(a) == 0 {
		t.Fatal("empty event stream")
	}
	if !bytes.Equal(a, b) {
		// Find the first differing line for a useful failure message.
		la := strings.Split(string(a), "\n")
		lb := strings.Split(string(b), "\n")
		for i := range la {
			if i >= len(lb) || la[i] != lb[i] {
				t.Fatalf("streams diverge at line %d:\n  a: %s\n  b: %s", i+1, la[i], lb[i])
			}
		}
		t.Fatalf("streams differ in length: %d vs %d lines", len(la), len(lb))
	}
}

func TestAuditLogCoversTheDecisionPipeline(t *testing.T) {
	stream := runStream(t, 42)
	types := map[obs.EventType]int{}
	sc := bufio.NewScanner(bytes.NewReader(stream))
	for sc.Scan() {
		var e obs.Event
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			t.Fatalf("invalid JSONL line %q: %v", sc.Text(), err)
		}
		types[e.Type]++
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	for _, want := range []obs.EventType{
		obs.EventSample, obs.EventDetect, obs.EventIdentify,
		obs.EventCap, obs.EventFastPaths,
	} {
		if types[want] == 0 {
			t.Errorf("no %q events in audit log (got %v)", want, types)
		}
	}
}

// daemonFixture runs the full daemon scenario once with every
// observability hook wired and hands each HTTP test the populated
// server — the run is the expensive part, the handlers are cheap.
var daemonFixture struct {
	once sync.Once
	srv  *daemonServer
	err  error
}

func fixtureServer(t *testing.T) *daemonServer {
	t.Helper()
	daemonFixture.once.Do(func() {
		reg := obs.NewRegistry()
		sr := obs.NewSeriesRegistry(0)
		srv := newDaemonServer(reg, obs.NewRing(4096), sr)
		srv.health = obs.NewHealth(reg)
		_, daemonFixture.err = run(runConfig{
			Duration: 3 * time.Minute, Seed: 42,
			Metrics: reg, Series: sr,
			Observe: experiments.Observe{
				Rules: obs.DefaultRules(obs.DefaultRulesConfig{}),
				Out:   srv.ring,
			},
			OnInterval: srv.setFastPaths,
			OnScore:    srv.setScore,
			OnAlerts:   srv.setAlerts,
			Health:     srv.health,
		})
		daemonFixture.srv = srv
	})
	if daemonFixture.err != nil {
		t.Fatal(daemonFixture.err)
	}
	return daemonFixture.srv
}

// get fetches a path from the fixture server and returns status, body
// and the Content-Type header.
func get(t *testing.T, path string) (int, []byte, string) {
	t.Helper()
	ts := httptest.NewServer(fixtureServer(t).handler())
	defer ts.Close()
	resp, err := ts.Client().Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body, resp.Header.Get("Content-Type")
}

func mustGet(t *testing.T, path string) []byte {
	t.Helper()
	status, body, _ := get(t, path)
	if status != 200 {
		t.Fatalf("GET %s: status %d", path, status)
	}
	return body
}

func TestHTTPEndpoints(t *testing.T) {

	metrics := string(mustGet(t, "/metrics"))
	for _, want := range []string{
		"# TYPE perfcloud_intervals_total counter",
		`perfcloud_intervals_total{server="server-0"}`,
		"# TYPE perfcloud_iowait_dev histogram",
		`perfcloud_cap_updates_total{res="io",server="server-0"}`,
		"perfcloud_fastpath_steady_reuses",
		"perfcloud_fastpath_shard_skips",
		"perfcloud_capped_vms",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	var events struct {
		Total    uint64      `json:"total"`
		Retained int         `json:"retained"`
		Events   []obs.Event `json:"events"`
	}
	if err := json.Unmarshal(mustGet(t, "/debug/events"), &events); err != nil {
		t.Fatal(err)
	}
	if events.Total == 0 || events.Retained == 0 {
		t.Fatalf("no events retained: %+v", events)
	}
	types := map[obs.EventType]bool{}
	for _, e := range events.Events {
		types[e.Type] = true
	}
	if !types[obs.EventDetect] || !types[obs.EventIdentify] || !types[obs.EventCap] {
		t.Errorf("/debug/events missing decision types, got %v", types)
	}

	var fp obs.FastPathSnapshot
	if err := json.Unmarshal(mustGet(t, "/debug/fastpaths"), &fp); err != nil {
		t.Fatal(err)
	}
	if fp.SteadyReuses == 0 || fp.CPUMemoHits == 0 {
		t.Errorf("fast-path snapshot looks empty: %+v", fp)
	}
}

// TestMetricsContentType pins the Prometheus exposition contract:
// the documented text-format Content-Type and a body every line of
// which is a comment or a parseable `name{labels} value` sample.
func TestMetricsContentType(t *testing.T) {
	status, body, ct := get(t, "/metrics")
	if status != 200 {
		t.Fatalf("GET /metrics: status %d", status)
	}
	if ct != obs.ContentType {
		t.Fatalf("Content-Type = %q, want %q", ct, obs.ContentType)
	}
	lines := strings.Split(strings.TrimRight(string(body), "\n"), "\n")
	if len(lines) == 0 {
		t.Fatal("empty /metrics body")
	}
	for _, line := range lines {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			t.Fatalf("unparseable sample line %q", line)
		}
		if _, err := strconv.ParseFloat(line[i+1:], 64); err != nil {
			t.Fatalf("sample %q has non-numeric value: %v", line, err)
		}
	}
}

// TestFastPathFieldNamesPinned pins the /debug/fastpaths JSON field
// names external dashboards key on — renaming a struct tag must fail
// here, not in a consumer.
func TestFastPathFieldNamesPinned(t *testing.T) {
	var raw map[string]any
	if err := json.Unmarshal(mustGet(t, "/debug/fastpaths"), &raw); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{
		"quiescent_skips", "steady_reuses", "rebuilds",
		"stride_skips", "horizon_recomputes", "shard_skips",
	} {
		if _, ok := raw[key]; !ok {
			t.Errorf("/debug/fastpaths missing pinned field %q (got %v)", key, raw)
		}
	}
}

// TestScoreEndpoint checks the run graded itself against ground truth
// and the endpoint serves the scorecard as JSON.
func TestScoreEndpoint(t *testing.T) {
	var sc obs.Scorecard
	if err := json.Unmarshal(mustGet(t, "/debug/score"), &sc); err != nil {
		t.Fatal(err)
	}
	if sc.Scheme != "perfcloud" {
		t.Fatalf("scorecard scheme = %q", sc.Scheme)
	}
	// The canonical scenario has one real antagonist (fio) plus two
	// decoys; the agent detects and caps it within the 3 minutes.
	if sc.TotalAntagonists != 1 {
		t.Fatalf("TotalAntagonists = %d, want 1", sc.TotalAntagonists)
	}
	if sc.DetectedAntagonists == 0 || sc.CappedVMs == 0 {
		t.Fatalf("daemon scorecard shows no detections: %+v", sc)
	}

	// Before any run completes, the endpoint 404s instead of serving a
	// zero-valued card.
	empty := httptest.NewServer(newDaemonServer(obs.NewRegistry(), obs.NewRing(8), nil).handler())
	defer empty.Close()
	resp, err := empty.Client().Get(empty.URL + "/debug/score")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 404 {
		t.Fatalf("fresh daemon /debug/score status = %d, want 404", resp.StatusCode)
	}
}

// TestIndexEndpoint checks the root index lists every registered
// endpoint and that unknown paths 404 instead of silently serving the
// index (the "/" pattern matches everything on a ServeMux).
func TestIndexEndpoint(t *testing.T) {
	status, body, ct := get(t, "/")
	if status != 200 {
		t.Fatalf("GET /: status %d", status)
	}
	if !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("index Content-Type = %q", ct)
	}
	for _, e := range endpoints {
		if !strings.Contains(string(body), e.path) {
			t.Errorf("index missing endpoint %q:\n%s", e.path, body)
		}
	}
	// Every path the index advertises must actually serve: anything but
	// 404-with-the-not-found-body proves a handler is registered.
	for _, e := range endpoints {
		st, b, _ := get(t, e.path)
		if st == 404 && strings.HasPrefix(string(b), "404 page not found") {
			t.Errorf("advertised endpoint %q is not registered", e.path)
		}
	}
	if st, _, _ := get(t, "/no-such-endpoint"); st != 404 {
		t.Fatalf("GET /no-such-endpoint: status %d, want 404", st)
	}
}

// TestAlertsEndpoint checks /debug/alerts serves the engine's live rule
// statuses once the run has evaluated, and 404s on a fresh daemon.
func TestAlertsEndpoint(t *testing.T) {
	var a alertState
	if err := json.Unmarshal(mustGet(t, "/debug/alerts"), &a); err != nil {
		t.Fatal(err)
	}
	if len(a.Statuses) == 0 || len(a.Summary.Rules) == 0 {
		t.Fatalf("empty alert state: %+v", a)
	}
	byName := map[string]obs.AlertStatus{}
	for _, st := range a.Statuses {
		byName[st.Rule] = st
	}
	// The canonical scenario's fio antagonist drives iowait deviation:
	// the victim rule must at least have gone pending. (It rarely
	// sustains to firing — the agent caps the antagonist well inside the
	// rule's 15s hysteresis window, which is the system working.)
	if _, ok := byName["victim-iowait-deviation-sustained"]; !ok {
		t.Fatalf("victim-iowait rule missing from statuses: %v", a.Statuses)
	}
	sumByName := map[string]obs.RuleSummary{}
	for _, r := range a.Summary.Rules {
		sumByName[r.Rule] = r
	}
	if r := sumByName["victim-iowait-deviation-sustained"]; r.Pendings == 0 {
		t.Errorf("victim-iowait rule never went pending: %+v", r)
	}
	// The decoys must not trip the false-cap watchdog: the agent only
	// caps the true antagonist.
	if wd, ok := byName["false-cap-watchdog"]; ok && wd.Firings > 0 {
		t.Errorf("false-cap watchdog fired %d times: %+v", wd.Firings, wd)
	}

	fresh := httptest.NewServer(newDaemonServer(obs.NewRegistry(), obs.NewRing(8), nil).handler())
	defer fresh.Close()
	resp, err := fresh.Client().Get(fresh.URL + "/debug/alerts")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 404 {
		t.Fatalf("fresh daemon /debug/alerts status = %d, want 404", resp.StatusCode)
	}
}

// TestHealthEndpoint checks /debug/health serves the self-profiling
// snapshot with the cluster and monitor phase timers populated, and
// 404s when no health layer is attached.
func TestHealthEndpoint(t *testing.T) {
	var snap obs.HealthSnapshot
	if err := json.Unmarshal(mustGet(t, "/debug/health"), &snap); err != nil {
		t.Fatal(err)
	}
	phases := map[string]obs.PhaseStats{}
	for _, p := range snap.Phases {
		phases[p.Phase] = p
	}
	for _, want := range []string{"cluster.grant", "cluster.advance", "core.monitor"} {
		p, ok := phases[want]
		if !ok {
			t.Errorf("health snapshot missing phase %q (got %v)", want, snap.Phases)
			continue
		}
		if p.Calls == 0 {
			t.Errorf("phase %q has zero calls", want)
		}
	}
	if snap.ShardImbalance == nil {
		t.Error("health snapshot missing shard imbalance")
	}

	fresh := httptest.NewServer(newDaemonServer(obs.NewRegistry(), obs.NewRing(8), nil).handler())
	defer fresh.Close()
	resp, err := fresh.Client().Get(fresh.URL + "/debug/health")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 404 {
		t.Fatalf("no-health daemon /debug/health status = %d, want 404", resp.StatusCode)
	}
}

// TestSameSeedRunsProduceIdenticalAlertStreams pins the alert engine's
// determinism contract at the daemon level: two same-seed runs with the
// default rule pack emit byte-identical alert events inside otherwise
// byte-identical audit streams.
func TestSameSeedRunsProduceIdenticalAlertStreams(t *testing.T) {
	alertLines := func() []string {
		var buf bytes.Buffer
		sink := obs.NewJSONLSink(&buf)
		_, err := run(runConfig{
			Duration: 3 * time.Minute, Seed: 7, Log: io.Discard,
			Observe: experiments.Observe{Rules: obs.DefaultRules(obs.DefaultRulesConfig{}), Out: sink},
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := sink.Flush(); err != nil {
			t.Fatal(err)
		}
		var out []string
		sc := bufio.NewScanner(&buf)
		for sc.Scan() {
			var e obs.Event
			if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
				t.Fatalf("invalid JSONL line %q: %v", sc.Text(), err)
			}
			if e.Type == obs.EventAlert {
				out = append(out, sc.Text())
			}
		}
		if err := sc.Err(); err != nil {
			t.Fatal(err)
		}
		return out
	}
	a, b := alertLines(), alertLines()
	if len(a) == 0 {
		t.Fatal("no alert events in the audit stream")
	}
	if len(a) != len(b) {
		t.Fatalf("alert streams differ in length: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("alert streams diverge at event %d:\n  a: %s\n  b: %s", i+1, a[i], b[i])
		}
	}
}

// TestSeriesEndpoint checks the time-series scrape: full dump, delta
// scrape via ?since, and ?max downsampling.
func TestSeriesEndpoint(t *testing.T) {
	type series struct {
		Series string            `json:"series"`
		Total  uint64            `json:"total"`
		Points []obs.SeriesPoint `json:"points"`
	}
	decode := func(path string) map[string]series {
		t.Helper()
		var out struct {
			Series []series `json:"series"`
		}
		if err := json.Unmarshal(mustGet(t, path), &out); err != nil {
			t.Fatal(err)
		}
		m := make(map[string]series, len(out.Series))
		for _, s := range out.Series {
			m[s.Series] = s
		}
		return m
	}

	full := decode("/debug/series")
	for _, key := range []string{
		"capped_vms", `dev_iowait{server="server-0"}`, `dev_cpi{server="server-0"}`,
	} {
		s, ok := full[key]
		if !ok {
			t.Fatalf("/debug/series missing %q (got %v)", key, full)
		}
		if len(s.Points) == 0 || s.Total == 0 {
			t.Fatalf("series %q is empty", key)
		}
		for i := 1; i < len(s.Points); i++ {
			if s.Points[i].T < s.Points[i-1].T {
				t.Fatalf("series %q timestamps not monotone: %v", key, s.Points)
			}
		}
	}

	// Delta scrape: ask for everything after the midpoint timestamp of
	// capped_vms and expect exactly the strictly-newer points.
	pts := full["capped_vms"].Points
	mid := pts[len(pts)/2].T
	delta := decode(fmt.Sprintf("/debug/series?since=%g", mid))
	want := 0
	for _, p := range pts {
		if p.T > mid {
			want++
		}
	}
	if got := len(delta["capped_vms"].Points); got != want {
		t.Fatalf("delta scrape returned %d points, want %d", got, want)
	}

	// Downsampling bounds every series' point count.
	capped := decode("/debug/series?max=5")
	for key, s := range capped {
		if len(s.Points) > 5 {
			t.Fatalf("series %q has %d points with max=5", key, len(s.Points))
		}
	}

	// Bad parameters are rejected.
	if status, _, _ := get(t, "/debug/series?since=nope"); status != 400 {
		t.Fatalf("bad since: status %d, want 400", status)
	}
}

// TestSeriesQueryValidation pins which /debug/series queries are served:
// a since that is not a finite number and a max that is not a
// non-negative integer get 400 instead of silently widening the scrape;
// max=0, like no max, keeps every point.
func TestSeriesQueryValidation(t *testing.T) {
	full := mustGet(t, "/debug/series")
	for _, tc := range []struct {
		query  string
		status int
	}{
		{"since=nope", 400},
		{"since=NaN", 400},
		{"since=Inf", 400},
		{"since=%2BInf", 400},
		{"since=-Inf", 400},
		{"max=-3", 400},
		{"max=2.5", 400},
		{"since=-1", 200},
		{"since=0", 200},
		{"since=1e9", 200},
		{"max=0", 200},
		{"max=5", 200},
		{"since=30&max=3", 200},
	} {
		status, body, _ := get(t, "/debug/series?"+tc.query)
		if status != tc.status {
			t.Errorf("?%s: status %d, want %d (%s)", tc.query, status, tc.status, body)
		}
		if tc.query == "max=0" && !bytes.Equal(body, full) {
			t.Errorf("?max=0 changed the scrape")
		}
	}
}
