package obs

import (
	"strconv"
	"strings"
	"sync"
	"testing"
)

func TestNilRegistryAndInstruments(t *testing.T) {
	var r *Registry
	c := r.Counter("c", "help")
	g := r.Gauge("g", "help")
	h := r.Histogram("h", "help", []float64{1, 2})
	if c != nil || g != nil || h != nil {
		t.Fatalf("nil registry must return nil instruments, got %v %v %v", c, g, h)
	}
	// All operations on nil instruments are no-ops.
	c.Inc()
	c.Add(5)
	g.Set(3)
	g.Add(1)
	h.Observe(1.5)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Sum() != 0 {
		t.Fatal("nil instruments must read as zero")
	}
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil || b.Len() != 0 {
		t.Fatalf("nil registry must render nothing, got %q err %v", b.String(), err)
	}
}

func TestCounterGaugeHistogram(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("requests_total", "requests served")
	c.Inc()
	c.Add(2)
	if c.Value() != 3 {
		t.Fatalf("counter = %d, want 3", c.Value())
	}
	g := r.Gauge("temp", "temperature")
	g.Set(2.5)
	g.Add(-1)
	if g.Value() != 1.5 {
		t.Fatalf("gauge = %v, want 1.5", g.Value())
	}
	h := r.Histogram("lat", "latency", []float64{1, 10})
	for _, v := range []float64{0.5, 1, 5, 100} {
		h.Observe(v)
	}
	if h.Count() != 4 || h.Sum() != 106.5 {
		t.Fatalf("histogram count=%d sum=%v, want 4, 106.5", h.Count(), h.Sum())
	}
}

func TestSameNameReturnsSameInstrument(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("c", "h", Label{"server", "s0"})
	b := r.Counter("c", "h", Label{"server", "s0"})
	if a != b {
		t.Fatal("same name+labels must return the same counter")
	}
	other := r.Counter("c", "h", Label{"server", "s1"})
	if a == other {
		t.Fatal("different labels must return distinct series")
	}
}

func TestTypeMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("m", "h")
	defer func() {
		if recover() == nil {
			t.Fatal("re-registering a counter as a gauge must panic")
		}
	}()
	r.Gauge("m", "h")
}

func TestWritePrometheusFormat(t *testing.T) {
	r := NewRegistry()
	r.Counter("b_total", "count of b", Label{"server", "s1"}).Add(7)
	r.Counter("b_total", "count of b", Label{"server", "s0"}).Inc()
	r.Gauge("a_gauge", "a value").Set(2.5)
	h := r.Histogram("h_dist", "a distribution", []float64{1, 10})
	h.Observe(0.5)
	h.Observe(5)
	h.Observe(50)

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	want := `# HELP a_gauge a value
# TYPE a_gauge gauge
a_gauge 2.5
# HELP b_total count of b
# TYPE b_total counter
b_total{server="s0"} 1
b_total{server="s1"} 7
# HELP h_dist a distribution
# TYPE h_dist histogram
h_dist_bucket{le="1"} 1
h_dist_bucket{le="10"} 2
h_dist_bucket{le="+Inf"} 3
h_dist_sum 55.5
h_dist_count 3
`
	if b.String() != want {
		t.Fatalf("exposition mismatch:\ngot:\n%s\nwant:\n%s", b.String(), want)
	}
}

func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	r.Counter("c_total", "h", Label{"path", `a"b\c` + "\n"}).Inc()
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), `c_total{path="a\"b\\c\n"} 1`) {
		t.Fatalf("label not escaped: %q", b.String())
	}
}

func TestConcurrentUpdates(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c", "h")
	g := r.Gauge("g", "h")
	h := r.Histogram("hist", "h", []float64{10, 100})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Inc()
				g.Add(1)
				h.Observe(float64(i % 200))
			}
		}()
	}
	wg.Wait()
	if c.Value() != 8000 {
		t.Fatalf("counter = %d, want 8000", c.Value())
	}
	if g.Value() != 8000 {
		t.Fatalf("gauge = %v, want 8000", g.Value())
	}
	if h.Count() != 8000 {
		t.Fatalf("histogram count = %d, want 8000", h.Count())
	}
}

// TestConcurrentRegistrationAndExposition registers counters, gauges and
// histograms from several goroutines while others render the Prometheus
// text, and checks that concurrent registrations of one series share one
// instrument. Under -race it pins that a series is never published
// without its instrument.
func TestConcurrentRegistrationAndExposition(t *testing.T) {
	r := NewRegistry()
	const workers, series = 4, 200
	got := make([][]*Histogram, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(2)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < series; i++ {
				l := Label{Key: "i", Value: strconv.Itoa(i)}
				r.Counter("c_total", "h", l).Inc()
				r.Gauge("g", "h", l).Add(1)
				h := r.Histogram("lat", "h", []float64{1, 10}, l)
				h.Observe(float64(i))
				got[w] = append(got[w], h)
			}
		}(w)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				var b strings.Builder
				if err := r.WritePrometheus(&b); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	for w := 1; w < workers; w++ {
		for i := range got[w] {
			if got[w][i] != got[0][i] {
				t.Fatalf("series %d: goroutines %d and 0 got distinct histograms", i, w)
			}
		}
	}
	for i := 0; i < series; i++ {
		l := Label{Key: "i", Value: strconv.Itoa(i)}
		if v, _ := valueOf(r, "c_total", l); v != workers {
			t.Fatalf("counter %d = %v, want %d", i, v, workers)
		}
		if v, _ := valueOf(r, "lat", l); v != workers {
			t.Fatalf("histogram %d count = %v, want %d", i, v, workers)
		}
	}
}

// valueOf reads the current value of a registered instrument without
// creating it: counters and gauges report their value, histograms their
// observation count. The second return is false when the family or the
// labelled series does not exist.
func valueOf(r *Registry, name string, labels ...Label) (float64, bool) {
	if r == nil {
		return 0, false
	}
	key := renderLabels(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.byName[name]
	if !ok {
		return 0, false
	}
	s, ok := f.byKey[key]
	if !ok {
		return 0, false
	}
	switch {
	case s.counter != nil:
		return float64(s.counter.Value()), true
	case s.gauge != nil:
		return s.gauge.Value(), true
	case s.hist != nil:
		return float64(s.hist.Count()), true
	}
	return 0, false
}
