package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"perfcloud/internal/experiments"
	"perfcloud/internal/obs"
)

// TestValidate checks that a -duration perfcloudd cannot run is rejected
// with a usage error naming the flag, and that runnable settings pass.
func TestValidate(t *testing.T) {
	cases := []struct {
		duration time.Duration
		wantErr  bool
	}{
		{3 * time.Minute, false},
		{time.Nanosecond, false},
		{0, true},
		{-5 * time.Second, true},
	}
	for _, tc := range cases {
		err := options{duration: tc.duration}.validate()
		if tc.wantErr != (err != nil) {
			t.Errorf("validate(-duration %v) = %v, want error %v", tc.duration, err, tc.wantErr)
		}
		if err != nil && !strings.Contains(err.Error(), "-duration") {
			t.Errorf("validate(-duration %v) = %v, want it to name -duration", tc.duration, err)
		}
	}
}

// TestServeShutsDownOnCancel serves the daemon's endpoints on a loopback
// port, checks /metrics answers, and requires serve to return nil
// promptly once its context is cancelled.
func TestServeShutsDownOnCancel(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- serve(ctx, ln, newDaemonServer(obs.NewRegistry(), obs.NewRing(8), nil).handler()) }()

	resp, err := http.Get("http://" + ln.Addr().String() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: status %d", resp.StatusCode)
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("serve after cancel = %v, want nil", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("serve did not return after its context was cancelled")
	}
}

// TestScoreReadsTheTraceEvents runs the daemon with the observers
// `-http -trace` attaches and checks that /debug/score serves the
// scorecard of exactly the events the Perfetto export renders: one
// collector feeds both.
func TestScoreReadsTheTraceEvents(t *testing.T) {
	cfg := runConfig{Duration: 3 * time.Minute, Seed: 42, Log: io.Discard}
	_, srv := wireObservers(&cfg, options{httpAddr: ":0", tracePath: "trace.json"}, nil)
	ob, err := run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var trace bytes.Buffer
	if err := ob.WriteTrace(&trace); err != nil {
		t.Fatal(err)
	}
	var exported struct {
		TraceEvents []struct {
			Ph string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(trace.Bytes(), &exported); err != nil {
		t.Fatal(err)
	}
	markers, decisions := 0, 0
	for _, e := range exported.TraceEvents {
		if e.Ph == "i" {
			markers++
		}
	}
	events := ob.Events()
	for _, e := range events {
		if e.Type == obs.EventCap || e.Type == obs.EventRelease || e.Type == obs.EventMigrate {
			decisions++
		}
	}
	if decisions == 0 || markers != decisions {
		t.Fatalf("trace has %d decision markers, the collector %d decisions", markers, decisions)
	}

	ts := httptest.NewServer(srv.handler())
	defer ts.Close()
	resp, err := ts.Client().Get(ts.URL + "/debug/score")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var served obs.Scorecard
	if err := json.NewDecoder(resp.Body).Decode(&served); err != nil {
		t.Fatal(err)
	}

	// The scenario's ground truth, rebuilt on an identical testbed.
	tb := scenario(experiments.TestbedConfig{Seed: 42, PerfCloud: experiments.ControllerConfig()})
	defer tb.Close()
	want := obs.Score(events, tb.Truth, cfg.Duration.Seconds())
	want.Scheme = "perfcloud"
	b, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	var wantJSON obs.Scorecard
	if err := json.Unmarshal(b, &wantJSON); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(served, wantJSON) {
		t.Fatalf("/debug/score = %+v\nwant obs.Score over the trace's events = %+v", served, wantJSON)
	}
}
