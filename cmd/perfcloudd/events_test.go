package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http/httptest"
	"testing"

	"perfcloud/internal/obs"
)

// oldEventsBody is what /debug/events wrote before it used the append
// encoder: json.Encoder over the total, the retained count and a copy of
// the ring's events.
func oldEventsBody(t *testing.T, ring *obs.Ring) []byte {
	t.Helper()
	events := ring.Events()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(struct {
		Total    uint64      `json:"total"`
		Retained int         `json:"retained"`
		Events   []obs.Event `json:"events"`
	}{Total: ring.Total(), Retained: len(events), Events: events}); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// getEvents serves /debug/events from a daemon server over ring.
func getEvents(t *testing.T, ring *obs.Ring) (int, []byte) {
	t.Helper()
	ts := httptest.NewServer(newDaemonServer(obs.NewRegistry(), ring, nil).handler())
	defer ts.Close()
	resp, err := ts.Client().Get(ts.URL + "/debug/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

// TestEventsEndpointMatchesJSONEncoder pins /debug/events to the bytes
// json.Encoder wrote for it: for an empty ring, for a wrapped ring of
// hand-made events that exercise escaping, omitempty and nested payloads,
// and for the full retained log of a seed-42 daemon run. An event
// encoding/json would refuse (NaN) turns into a 500, not a partial body.
func TestEventsEndpointMatchesJSONEncoder(t *testing.T) {
	check := func(name string, ring *obs.Ring) {
		t.Helper()
		want := oldEventsBody(t, ring)
		status, got := getEvents(t, ring)
		if status != 200 || !bytes.Equal(got, want) {
			t.Errorf("%s: status %d body\n%s\nwant\n%s", name, status, got, want)
		}
	}
	check("empty ring", obs.NewRing(4))

	wrapped := obs.NewRing(4)
	for i, e := range []obs.Event{
		{T: 0, Type: obs.EventSample, Server: "server-0", Domains: 7, IowaitDev: 1.5, MeanCPI: -0.25},
		{T: 5, Type: obs.EventDetect, Server: "<srv&\"0\">", IOContention: true, CPIDev: 1e-7},
		{T: 10, Type: obs.EventIdentify, Corr: []obs.SuspectCorr{{VM: "fio", IO: 0.9, CPU: -0.1}}, IOAntagonists: []string{"fio"}},
		{T: 15, Type: obs.EventCap, VM: "fio ", Res: "io", OldCap: 8000, NewCap: 1600, Region: "concave", SinceDecrease: 3},
		{T: 20, Type: obs.EventFastPaths, Fast: &obs.FastPathSnapshot{QuiescentSkips: 1, SteadyReuses: 2, Rebuilds: 3}},
		{T: 1e21, Type: obs.EventRelease, VM: "vm-\xff", Res: "cpu", NewCap: 2},
	} {
		wrapped.Emit(e)
		if i == 3 {
			check("partly filled ring", wrapped)
		}
	}
	check("wrapped ring", wrapped)

	check("seed-42 daemon run", fixtureServer(t).ring)

	bad := obs.NewRing(4)
	bad.Emit(obs.Event{T: 1, Type: obs.EventSample})
	bad.Emit(obs.Event{T: 2, Type: obs.EventSample, IowaitDev: math.NaN()})
	if status, body := getEvents(t, bad); status != 500 {
		t.Errorf("ring holding a NaN: status %d body %q, want 500", status, body)
	}
}
