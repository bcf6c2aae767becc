// Package obs is the control plane's observability substrate: a
// dependency-free metrics registry (counters, gauges, fixed-bucket
// histograms) with atomic hot-path updates, a typed decision-event log
// with deterministic JSONL encoding, and Prometheus-text exposition.
//
// Observability is opt-in and free when off: every constructor is
// nil-safe, so a component handed a nil *Registry receives nil
// instruments whose methods are single-branch no-ops — no allocation,
// no atomic traffic, no lock. The simulation's hot loops therefore pay
// nothing unless a registry is actually attached (DESIGN.md §5.4).
package obs

import (
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Label is one metric dimension, rendered as key="value" in the
// Prometheus exposition. Instruments with the same name but different
// label sets are distinct series of one family.
type Label struct {
	Key   string
	Value string
}

// Counter is a monotonically increasing count. The nil Counter is a
// valid no-op instrument.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() {
	if c == nil {
		return
	}
	c.v.Add(1)
}

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value returns the current count (0 on the nil Counter).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a value that can go up and down, stored as float64 bits. The
// nil Gauge is a valid no-op instrument.
type Gauge struct {
	bits atomic.Uint64
}

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Add increments the gauge by v (atomically, via CAS).
func (g *Gauge) Add(v float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current value (0 on the nil Gauge).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram counts observations into fixed buckets (cumulative at
// render time, as Prometheus expects). The nil Histogram is a valid
// no-op instrument.
type Histogram struct {
	bounds []float64 // ascending upper bounds; +Inf bucket is implicit
	counts []atomic.Uint64
	sum    Gauge
	count  atomic.Uint64
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.counts[i].Add(1)
	h.sum.Add(v)
	h.count.Add(1)
}

// Count returns the number of observations (0 on the nil Histogram).
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of all observed values (0 on the nil Histogram).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return h.sum.Value()
}

// metric family types, matching the Prometheus TYPE line.
const (
	typeCounter   = "counter"
	typeGauge     = "gauge"
	typeHistogram = "histogram"
)

// series is one labelled instrument inside a family. Exactly one of the
// instrument pointers is set, matching the family type.
type series struct {
	labels  string // rendered sorted label set: `k1="v1",k2="v2"` or ""
	counter *Counter
	gauge   *Gauge
	hist    *Histogram
}

// family groups every series registered under one metric name.
type family struct {
	name   string
	help   string
	typ    string
	bounds []float64 // histogram families only

	series []*series
	byKey  map[string]*series
}

// Registry holds instrument families and renders them as Prometheus
// text. The nil Registry is valid: every constructor returns the nil
// instrument, making observability free when off. Registration takes a
// lock; instrument updates are lock-free atomics.
type Registry struct {
	mu       sync.Mutex
	families []*family
	byName   map[string]*family
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*family)}
}

// Counter returns (registering on first use) the counter series with
// the given name and labels. Repeated calls with the same name and
// labels return the same instrument.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	if r == nil {
		return nil
	}
	return r.lookup(name, help, typeCounter, nil, labels).counter
}

// Gauge returns (registering on first use) the gauge series with the
// given name and labels.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	if r == nil {
		return nil
	}
	return r.lookup(name, help, typeGauge, nil, labels).gauge
}

// Histogram returns (registering on first use) the histogram series
// with the given name, bucket upper bounds (ascending; the +Inf bucket
// is implicit) and labels. Buckets are fixed at first registration;
// later calls for the same family reuse them.
func (r *Registry) Histogram(name, help string, buckets []float64, labels ...Label) *Histogram {
	if r == nil {
		return nil
	}
	for i := 1; i < len(buckets); i++ {
		if buckets[i] <= buckets[i-1] {
			panic("obs: histogram buckets must be strictly ascending")
		}
	}
	return r.lookup(name, help, typeHistogram, buckets, labels).hist
}

// lookup finds or registers the family and series for one instrument.
// A new series gets its instrument here, under the lock, so a series is
// never visible to WritePrometheus without one, and concurrent
// registrations of one series share a single instrument. A name reused
// with a different type panics — it is a programming error that would
// render invalid exposition text.
func (r *Registry) lookup(name, help, typ string, buckets []float64, labels []Label) *series {
	key := renderLabels(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.byName[name]
	if !ok {
		f = &family{name: name, help: help, typ: typ, byKey: make(map[string]*series)}
		if typ == typeHistogram {
			f.bounds = append([]float64(nil), buckets...)
		}
		r.byName[name] = f
		r.families = append(r.families, f)
	} else if f.typ != typ {
		panic("obs: metric " + name + " registered as " + f.typ + " and " + typ)
	}
	s, ok := f.byKey[key]
	if !ok {
		s = &series{labels: key}
		switch typ {
		case typeCounter:
			s.counter = &Counter{}
		case typeGauge:
			s.gauge = &Gauge{}
		case typeHistogram:
			s.hist = &Histogram{bounds: f.bounds, counts: make([]atomic.Uint64, len(f.bounds)+1)}
		}
		f.byKey[key] = s
		f.series = append(f.series, s)
	}
	return s
}

// renderLabels renders a sorted, escaped label set (without braces).
func renderLabels(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	var b strings.Builder
	for i, l := range ls {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(l.Value))
		b.WriteByte('"')
	}
	return b.String()
}

// escapeLabelValue escapes backslash, double quote and newline, per the
// Prometheus text format.
func escapeLabelValue(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	var b strings.Builder
	for _, c := range v {
		switch c {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(c)
		}
	}
	return b.String()
}
