package obs

import (
	"encoding/json"
	"io"
	"sort"
	"sync"
)

// This file is the fleet-scale time-series layer (DESIGN.md §5.8). Two
// scale pressures shape it. Event-driven striding (PR 6) means wall
// ticks are not a clock: consecutive samples can be minutes of simulated
// time apart, so every point carries its exact simulation timestamp —
// producers stamp points with the stride-aware time (Clock.PeekSeconds /
// trace TimeSec), never a tick count. Fleet sharding (PR 7) means
// per-server series are untenable at 10k servers; fleet telemetry
// (experiments.FleetTelemetry) keeps one series per shard and per zone,
// so retained cardinality is O(zones + shards), not O(servers).
// Like every obs instrument, all types are nil-safe no-ops so telemetry
// can be compiled out of a run by simply not wiring a registry.

// SeriesPoint is one sample: exact simulation time (seconds) and value.
type SeriesPoint struct {
	T float64 `json:"t"`
	V float64 `json:"v"`
}

// Series is a fixed-capacity ring of time-ordered points. Appends past
// capacity overwrite the oldest points; Total still counts them, so a
// scraper can tell when it has missed data. Safe for concurrent use; a
// nil *Series ignores appends and reads as empty.
type Series struct {
	mu    sync.Mutex
	buf   []SeriesPoint
	next  int
	full  bool
	total uint64
}

// NewSeries creates a series retaining up to capacity points.
func NewSeries(capacity int) *Series {
	if capacity <= 0 {
		panic("obs: series capacity must be positive")
	}
	return &Series{buf: make([]SeriesPoint, capacity)}
}

// Append records a point. Timestamps must be non-decreasing — series
// carry simulation time, which only moves forward.
func (s *Series) Append(t, v float64) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if last, ok := s.lastLocked(); ok && t < last.T {
		panic("obs: series timestamps must be non-decreasing")
	}
	s.appendLocked(SeriesPoint{T: t, V: v})
}

func (s *Series) appendLocked(p SeriesPoint) {
	s.buf[s.next] = p
	s.next++
	if s.next == len(s.buf) {
		s.next, s.full = 0, true
	}
	s.total++
}

func (s *Series) lastLocked() (SeriesPoint, bool) {
	if s.total == 0 {
		return SeriesPoint{}, false
	}
	i := s.next - 1
	if i < 0 {
		i = len(s.buf) - 1
	}
	return s.buf[i], true
}

// Points returns the retained points, oldest first.
func (s *Series) Points() []SeriesPoint {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.full {
		return append([]SeriesPoint(nil), s.buf[:s.next]...)
	}
	out := make([]SeriesPoint, 0, len(s.buf))
	out = append(out, s.buf[s.next:]...)
	return append(out, s.buf[:s.next]...)
}

// pointsAfter returns the suffix of the time-ordered pts with T strictly
// after t — the delta-scrape primitive: a scraper remembers the last
// timestamp it saw and asks only for what is newer. Timestamps are
// simulation time, so the contract survives stride elision unchanged.
func pointsAfter(pts []SeriesPoint, t float64) []SeriesPoint {
	i := sort.Search(len(pts), func(i int) bool { return pts[i].T > t })
	return pts[i:]
}

// Len returns the number of retained points.
func (s *Series) Len() int {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.full {
		return len(s.buf)
	}
	return s.next
}

// Total returns how many points were ever appended (retained or not).
func (s *Series) Total() uint64 {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.total
}

// downsample returns at most n points summarizing the time-ordered pts:
// points are split into n contiguous buckets and each bucket reports its
// maximum (deviation spikes are the signal of interest; a mean would
// smooth away exactly the excursions the detector fires on), stamped
// with the bucket's last timestamp. It returns pts itself when n <= 0
// or pts already fits.
func downsample(pts []SeriesPoint, n int) []SeriesPoint {
	if n <= 0 || len(pts) <= n {
		return pts
	}
	out := make([]SeriesPoint, 0, n)
	for b := 0; b < n; b++ {
		lo, hi := b*len(pts)/n, (b+1)*len(pts)/n
		if lo >= hi {
			continue
		}
		p := pts[lo]
		for _, q := range pts[lo+1 : hi] {
			if q.V > p.V {
				p.V = q.V
			}
			p.T = q.T
		}
		out = append(out, p)
	}
	return out
}

// SeriesRegistry names and owns a set of Series, mirroring the metric
// Registry: Series() is get-or-create keyed by name plus sorted labels,
// and a nil registry hands back nil series so instrumented code needs no
// guards. perCap bounds each series' retained points.
type SeriesRegistry struct {
	mu     sync.Mutex
	perCap int
	byKey  map[string]*Series
}

// DefaultSeriesCapacity is the per-series retention used when
// NewSeriesRegistry is given a non-positive capacity.
const DefaultSeriesCapacity = 1024

// NewSeriesRegistry creates a registry whose series each retain up to
// perSeriesCap points (<= 0 selects DefaultSeriesCapacity).
func NewSeriesRegistry(perSeriesCap int) *SeriesRegistry {
	if perSeriesCap <= 0 {
		perSeriesCap = DefaultSeriesCapacity
	}
	return &SeriesRegistry{perCap: perSeriesCap, byKey: make(map[string]*Series)}
}

// Series returns the series for name+labels, creating it on first use.
func (r *SeriesRegistry) Series(name string, labels ...Label) *Series {
	if r == nil {
		return nil
	}
	key := name
	if ls := renderLabels(labels); ls != "" {
		key += "{" + ls + "}"
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.byKey[key]
	if s == nil {
		s = NewSeries(r.perCap)
		r.byKey[key] = s
	}
	return s
}

// Keys returns the registered series keys (name{labels}), sorted.
func (r *SeriesRegistry) Keys() []string {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	keys := make([]string, 0, len(r.byKey))
	for k := range r.byKey {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// seriesJSON is the wire shape of one series in WriteJSON output.
type seriesJSON struct {
	Series string        `json:"series"`
	Total  uint64        `json:"total"`
	Points []SeriesPoint `json:"points"`
}

// WriteJSON renders every registered series as JSON, sorted by key for
// deterministic output. sinceSec > 0 restricts each series to points
// strictly after that simulation time (delta scrape); maxPoints > 0
// downsamples what remains to at most that many points per series.
func (r *SeriesRegistry) WriteJSON(w io.Writer, sinceSec float64, maxPoints int) error {
	out := struct {
		Series []seriesJSON `json:"series"`
	}{Series: []seriesJSON{}}
	for _, key := range r.Keys() {
		r.mu.Lock()
		s := r.byKey[key]
		r.mu.Unlock()
		pts := s.Points()
		if sinceSec > 0 {
			pts = pointsAfter(pts, sinceSec)
		}
		pts = downsample(pts, maxPoints)
		out.Series = append(out.Series, seriesJSON{Series: key, Total: s.Total(), Points: pts})
	}
	enc := json.NewEncoder(w)
	return enc.Encode(out)
}
