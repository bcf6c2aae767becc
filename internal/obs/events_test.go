package obs

import (
	"bytes"
	"encoding/json"
	"errors"
	"reflect"
	"strings"
	"sync"
	"testing"
)

// sampleEvents is a stream exercising every event type and payload kind.
func sampleEvents() []Event {
	return []Event{
		{T: 5, Type: EventSample, Server: "s0", Domains: 9, IowaitDev: 0.3, CPIDev: 0.01},
		{T: 35, Type: EventDetect, Server: "s0", IowaitDev: 42.5, CPIDev: 0.2, IOContention: true},
		{T: 35, Type: EventIdentify, Server: "s0",
			Corr:          []SuspectCorr{{VM: "fio", IO: 0.97, CPU: 0.1}},
			IOAntagonists: []string{"fio"}},
		{T: 40, Type: EventCap, Server: "s0", VM: "fio", Res: "io",
			OldCap: 8000, NewCap: 1600, Region: "growth", SinceDecrease: 0},
		{T: 120, Type: EventRelease, Server: "s0", VM: "fio", Res: "io", OldCap: 32000},
		{T: 200, Type: EventFastPaths, Fast: &FastPathSnapshot{QuiescentSkips: 10, SteadyReuses: 5, Rebuilds: 2}},
	}
}

func TestJSONLSinkDeterministic(t *testing.T) {
	render := func() string {
		var b bytes.Buffer
		s := NewJSONLSink(&b)
		for _, e := range sampleEvents() {
			s.Emit(e)
		}
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	a, b := render(), render()
	if a != b {
		t.Fatalf("JSONL encoding not deterministic:\n%s\nvs\n%s", a, b)
	}
	lines := strings.Split(strings.TrimRight(a, "\n"), "\n")
	if len(lines) != len(sampleEvents()) {
		t.Fatalf("got %d lines, want %d", len(lines), len(sampleEvents()))
	}
	for _, line := range lines {
		var e Event
		if err := json.Unmarshal([]byte(line), &e); err != nil {
			t.Fatalf("line %q is not valid JSON: %v", line, err)
		}
	}
}

func TestEventZeroFieldsOmitted(t *testing.T) {
	var b bytes.Buffer
	s := NewJSONLSink(&b)
	s.Emit(Event{T: 5, Type: EventSample, Server: "s0", Domains: 3})
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	got := strings.TrimSpace(b.String())
	want := `{"t":5,"type":"sample","server":"s0","domains":3}`
	if got != want {
		t.Fatalf("encoding = %s, want %s", got, want)
	}
}

func TestRing(t *testing.T) {
	r := NewRing(3)
	if got := r.Events(); len(got) != 0 {
		t.Fatalf("empty ring returned %v", got)
	}
	for i := 1; i <= 5; i++ {
		r.Emit(Event{T: float64(i)})
	}
	got := r.Events()
	if len(got) != 3 {
		t.Fatalf("ring kept %d events, want 3", len(got))
	}
	for i, e := range got {
		if want := float64(i + 3); e.T != want {
			t.Fatalf("event %d has T=%v, want %v (oldest first)", i, e.T, want)
		}
	}
	if r.Total() != 5 {
		t.Fatalf("total = %d, want 5", r.Total())
	}
}

func TestMultiSink(t *testing.T) {
	a, b := NewRing(4), NewRing(4)
	m := MultiSink{a, b}
	m.Emit(Event{T: 1, Type: EventSample})
	if a.Total() != 1 || b.Total() != 1 {
		t.Fatalf("multisink did not fan out: %d, %d", a.Total(), b.Total())
	}
}

// failWriter errors on every write — used to wedge a JSONLSink mid-chain.
type failWriter struct{}

func (failWriter) Write([]byte) (int, error) {
	return 0, errors.New("disk full")
}

// TestMultiSinkPartialFailureOrdering checks that one failing sink in
// the middle of a MultiSink neither stops the fan-out nor reorders it:
// every later sink still receives the full stream in emission order,
// and the failing sink reports its sticky error without panicking.
func TestMultiSinkPartialFailureOrdering(t *testing.T) {
	before := NewCollector()
	// A JSONLSink over a tiny buffer so the first flushed write fails;
	// its error must stay contained to Flush.
	broken := NewJSONLSink(failWriter{})
	after := NewCollector()
	m := MultiSink{before, broken, after}

	events := sampleEvents()
	for _, e := range events {
		m.Emit(e)
	}
	for _, c := range []*Collector{before, after} {
		got := c.Events()
		if !reflect.DeepEqual(got, events) {
			t.Fatalf("sink around the failing one saw %v, want %v in order", got, events)
		}
	}
	if err := broken.Flush(); err == nil {
		t.Fatal("failing sink reported no error from Flush")
	}
	// The error is sticky: further emits are dropped silently, and the
	// sinks around it keep receiving.
	m.Emit(Event{T: 999, Type: EventSample})
	if got := len(after.Events()); got != len(events)+1 {
		t.Fatalf("later sink saw %d events after failure, want %d", got, len(events)+1)
	}
}

// TestRingWraparound pins the boundary behaviour the happy-path TestRing
// skips: capacity 1, exactly-full (no wrap yet), and multiple complete
// wraps all report the newest events oldest-first with exact totals.
func TestRingWraparound(t *testing.T) {
	emitN := func(r *Ring, n int) {
		for i := 1; i <= n; i++ {
			r.Emit(Event{T: float64(i)})
		}
	}
	check := func(t *testing.T, r *Ring, wantT []float64, wantTotal uint64) {
		t.Helper()
		got := r.Events()
		if len(got) != len(wantT) {
			t.Fatalf("retained %d events, want %d", len(got), len(wantT))
		}
		for i, e := range got {
			if e.T != wantT[i] {
				t.Fatalf("event %d has T=%v, want %v", i, e.T, wantT[i])
			}
		}
		if r.Total() != wantTotal {
			t.Fatalf("total = %d, want %d", r.Total(), wantTotal)
		}
	}

	t.Run("capacity one", func(t *testing.T) {
		r := NewRing(1)
		emitN(r, 7)
		check(t, r, []float64{7}, 7)
	})
	t.Run("exactly full", func(t *testing.T) {
		r := NewRing(4)
		emitN(r, 4)
		check(t, r, []float64{1, 2, 3, 4}, 4)
	})
	t.Run("one past full", func(t *testing.T) {
		r := NewRing(4)
		emitN(r, 5)
		check(t, r, []float64{2, 3, 4, 5}, 5)
	})
	t.Run("multiple wraps", func(t *testing.T) {
		r := NewRing(3)
		emitN(r, 11)
		check(t, r, []float64{9, 10, 11}, 11)
	})
	t.Run("invalid size", func(t *testing.T) {
		defer func() {
			if recover() == nil {
				t.Fatal("NewRing(0) did not panic")
			}
		}()
		NewRing(0)
	})
}

// TestFastPathSnapshotAdd checks Add sums every field, using reflection
// so a future counter missing from Add fails loudly.
func TestFastPathSnapshotAdd(t *testing.T) {
	var a, b FastPathSnapshot
	va := reflect.ValueOf(&a).Elem()
	vb := reflect.ValueOf(&b).Elem()
	for i := 0; i < va.NumField(); i++ {
		va.Field(i).SetUint(uint64(100 * (i + 1)))
		vb.Field(i).SetUint(uint64(i + 1))
	}
	a.Add(b)
	for i := 0; i < va.NumField(); i++ {
		if got, want := va.Field(i).Uint(), uint64(101*(i+1)); got != want {
			t.Fatalf("field %s sum = %d, want %d", va.Type().Field(i).Name, got, want)
		}
	}
}

// TestCollectorViewIsReadOnly checks that Events returns a view of the
// log that neither changes the log when appended to nor sees events
// emitted after it was taken.
func TestCollectorViewIsReadOnly(t *testing.T) {
	c := NewCollector()
	for i := 0; i < 5; i++ {
		c.Emit(Event{T: float64(i)})
	}
	view := c.Events()
	grown := append(view, Event{T: 99})
	grown[0].T = -1
	if got := c.Events(); len(got) != 5 || got[0].T != 0 {
		t.Fatalf("appending to a view changed the log: %v", got)
	}
	for i := 5; i < 100; i++ {
		c.Emit(Event{T: float64(i)})
	}
	if len(view) != 5 || cap(view) != 5 {
		t.Fatalf("earlier view changed shape: len %d cap %d", len(view), cap(view))
	}
	for i, e := range view {
		if e.T != float64(i) {
			t.Fatalf("earlier view event %d has T=%v, want %d", i, e.T, i)
		}
	}
	if got := c.Events(); len(got) != 100 || got[99].T != 99 {
		t.Fatalf("log has %d events, want 100 in order", len(got))
	}
}

// TestCollectorConcurrentViews reads views while another goroutine
// emits; run under -race it checks that a view shares no element with
// the writes that follow it.
func TestCollectorConcurrentViews(t *testing.T) {
	c := NewCollector()
	const n = 2000
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < n; i++ {
			c.Emit(Event{T: float64(i)})
		}
	}()
	for reading := true; reading; {
		select {
		case <-done:
			reading = false
		default:
		}
		view := c.Events()
		for i, e := range view {
			if e.T != float64(i) {
				t.Fatalf("view event %d has T=%v", i, e.T)
			}
		}
	}
	if got := len(c.Events()); got != n {
		t.Fatalf("collected %d events, want %d", got, n)
	}
}

// TestRingConcurrent emits from one goroutine while others read, across
// the ring's lazy growth (16, 32, then its size of 40) and many wraps.
// Every snapshot must be a run of consecutive events, oldest first,
// never longer than the ring. Run it under -race -count=10.
func TestRingConcurrent(t *testing.T) {
	const size, n = 40, 5000
	r := NewRing(size)
	var wg, ready sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 2; g++ {
		wg.Add(1)
		ready.Add(1)
		go func() {
			defer wg.Done()
			r.Events()
			ready.Done() // reading before the first Emit, so growth is covered
			for {
				select {
				case <-stop:
					return
				default:
				}
				evs := r.Events()
				if len(evs) > size {
					t.Errorf("snapshot holds %d events, ring size %d", len(evs), size)
					return
				}
				for i := 1; i < len(evs); i++ {
					if evs[i].T != evs[i-1].T+1 {
						t.Errorf("snapshot not consecutive at %d: %v after %v", i, evs[i].T, evs[i-1].T)
						return
					}
				}
			}
		}()
	}
	ready.Wait()
	for i := 0; i < n; i++ {
		r.Emit(Event{T: float64(i)})
	}
	close(stop)
	wg.Wait()
	evs := r.Events()
	if len(evs) != size || evs[0].T != n-size || evs[size-1].T != n-1 || r.Total() != n {
		t.Fatalf("final ring: %d events from T=%v, total %d", len(evs), evs[0].T, r.Total())
	}
}
