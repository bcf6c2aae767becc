package stats

import (
	"fmt"
	"math"
	"strings"
)

// Point is a single timestamped sample in a TimeSeries. Time is expressed
// in seconds of simulated time.
type Point struct {
	Time  float64
	Value float64
}

// TimeSeries is an append-only series of timestamped samples. PerfCloud's
// correlator builds one series per victim-signal and per suspect-signal,
// then correlates aligned windows of them.
type TimeSeries struct {
	points []Point
}

// NewTimeSeries returns an empty series.
func NewTimeSeries() *TimeSeries { return &TimeSeries{} }

// Append adds a sample. Samples must be appended in nondecreasing time
// order; out-of-order appends panic, since the monitor produces them from
// a single clock and disorder indicates a harness bug.
func (ts *TimeSeries) Append(t, v float64) {
	if n := len(ts.points); n > 0 && t < ts.points[n-1].Time {
		panic(fmt.Sprintf("stats: out-of-order append t=%g after %g", t, ts.points[n-1].Time))
	}
	ts.points = append(ts.points, Point{Time: t, Value: v})
}

// AppendMissing records an interval with no measurement (stored as NaN).
// The paper's missing-as-zero Pearson rule interprets these as zero.
func (ts *TimeSeries) AppendMissing(t float64) { ts.Append(t, math.NaN()) }

// Len returns the number of samples.
func (ts *TimeSeries) Len() int { return len(ts.points) }

// Values returns a copy of all sample values (NaN marks missing).
func (ts *TimeSeries) Values() []float64 {
	out := make([]float64, len(ts.points))
	for i, p := range ts.points {
		out[i] = p.Value
	}
	return out
}

// Times returns a copy of all sample timestamps.
func (ts *TimeSeries) Times() []float64 {
	out := make([]float64, len(ts.points))
	for i, p := range ts.points {
		out[i] = p.Time
	}
	return out
}

// Max returns the maximum non-missing value, or 0 for an empty series.
func (ts *TimeSeries) Max() float64 {
	max := math.Inf(-1)
	seen := false
	for _, p := range ts.points {
		if math.IsNaN(p.Value) {
			continue
		}
		if p.Value > max {
			max = p.Value
			seen = true
		}
	}
	if !seen {
		return 0
	}
	return max
}

// Sparkline renders the series as a compact ASCII strip chart for logs
// and the example programs. Missing samples render as spaces.
func (ts *TimeSeries) Sparkline(width int) string {
	if len(ts.points) == 0 || width <= 0 {
		return ""
	}
	levels := []byte("_.-=*#%@")
	peak := ts.Max()
	var b strings.Builder
	step := float64(len(ts.points)) / float64(width)
	if step < 1 {
		step = 1
		width = len(ts.points)
	}
	for i := 0; i < width; i++ {
		idx := int(float64(i) * step)
		if idx >= len(ts.points) {
			idx = len(ts.points) - 1
		}
		v := ts.points[idx].Value
		if math.IsNaN(v) || peak == 0 {
			b.WriteByte(' ')
			continue
		}
		lvl := int(v / peak * float64(len(levels)-1))
		if lvl < 0 {
			lvl = 0
		}
		if lvl >= len(levels) {
			lvl = len(levels) - 1
		}
		b.WriteByte(levels[lvl])
	}
	return b.String()
}
