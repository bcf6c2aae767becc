package stats

import "math"

// This file holds the incremental accumulators behind PerfCloud's
// per-interval analytics: the detector's cross-VM deviation (Moments),
// the correlator's trailing-window Pearson state (RollingPearson), and
// the trailing window of its victim series (RollingWindow). They replace
// the collect-into-a-slice-and-rescan pattern of the scratch
// implementations with O(1)-amortized updates and zero steady-state
// allocation.
//
// Numerical contract: every accumulator agrees with its scratch
// counterpart (StdDev, PearsonMissingAsZero) to within 1e-9 relative
// error over arbitrarily long streams. Two mechanisms bound the drift a
// naive running sum would accumulate: RollingPearson's sums are kept
// *anchored* (shifted by a representative value, so Σ(x-a) and Σ(x-a)²
// operate on deviations rather than raw magnitudes — the textbook cure
// for catastrophic cancellation when the mean dwarfs the variance), and
// every time its ring buffer completes a full revolution the sums are
// recomputed exactly from the buffered window, resetting accumulated
// round-off.

// Moments is a one-pass (Welford) accumulator for mean and population
// standard deviation. The detector folds each active VM's signal into one
// Moments per channel instead of building a slice and rescanning it.
// The zero value is ready to use.
type Moments struct {
	n    int
	mean float64
	m2   float64
}

// Add folds one sample into the accumulator.
func (m *Moments) Add(x float64) {
	m.n++
	d := x - m.mean
	m.mean += d / float64(m.n)
	m.m2 += d * (x - m.mean)
}

// Mean returns the running mean (0 before any sample).
func (m *Moments) Mean() float64 {
	if m.n == 0 {
		return 0
	}
	return m.mean
}

// Variance returns the population variance, 0 for fewer than two samples
// (matching StdDev on a slice: a single observation carries no spread).
func (m *Moments) Variance() float64 {
	if m.n < 2 {
		return 0
	}
	v := m.m2 / float64(m.n)
	if v < 0 {
		return 0
	}
	return v
}

// StdDev returns the population standard deviation (0 for n < 2),
// matching the StdDev slice function's convention.
func (m *Moments) StdDev() float64 { return math.Sqrt(m.Variance()) }

// RollingWindow is a fixed-capacity ring buffer of float64 samples: the
// trailing window of a series.
type RollingWindow struct {
	buf  []float64
	head int // next write position
	n    int // samples currently buffered (<= cap)
}

// NewRollingWindow creates a window holding the most recent capacity
// samples. Capacity must be at least 1.
func NewRollingWindow(capacity int) *RollingWindow {
	if capacity < 1 {
		panic("stats: rolling window capacity must be >= 1")
	}
	return &RollingWindow{buf: make([]float64, capacity)}
}

// Push appends a sample, evicting the oldest once the window is full.
func (w *RollingWindow) Push(x float64) {
	if w.n < len(w.buf) {
		w.n++
	}
	w.buf[w.head] = x
	w.head++
	if w.head == len(w.buf) {
		w.head = 0
	}
}

// Values appends the buffered samples to dst in push order (oldest first)
// and returns the extended slice. Pass dst[:0] of a reusable buffer for
// an allocation-free read.
func (w *RollingWindow) Values(dst []float64) []float64 {
	start := w.head - w.n
	if start < 0 {
		start += len(w.buf)
	}
	for i := 0; i < w.n; i++ {
		j := start + i
		if j >= len(w.buf) {
			j -= len(w.buf)
		}
		dst = append(dst, w.buf[j])
	}
	return dst
}

// RollingPearson maintains the Pearson correlation of two aligned series
// over a trailing window, with the paper's missing-as-zero rule (§III-B)
// applied as samples arrive: a NaN in either series is folded in as zero.
// It keeps ring buffers of the pair plus anchored running sums
// Σx, Σy, Σxy, Σx², Σy², so the correlator updates in O(1) per interval
// and never rebuilds aligned window copies.
type RollingPearson struct {
	x, y   []float64 // ring buffers, missing already zeroed
	head   int
	n      int
	total  uint64
	ax, ay float64 // anchors
	sx, sy float64 // Σ (x-ax), Σ (y-ay)
	sxy    float64 // Σ (x-ax)(y-ay)
	sxx    float64 // Σ (x-ax)²
	syy    float64 // Σ (y-ay)²
}

// NewRollingPearson creates a correlation window over the most recent
// `window` pairs. Window must be at least 2 (correlation is undefined on
// fewer points).
func NewRollingPearson(window int) *RollingPearson {
	if window < 2 {
		panic("stats: rolling pearson window must be >= 2")
	}
	return &RollingPearson{x: make([]float64, window), y: make([]float64, window)}
}

// Push appends one aligned pair. NaN (missing) values are recorded as
// zero, per the missing-as-zero rule.
func (r *RollingPearson) Push(x, y float64) {
	x, y = zeroIfNaN(x), zeroIfNaN(y)
	if r.total == 0 {
		r.ax, r.ay = x, y
	}
	if r.n == len(r.x) {
		dx, dy := r.x[r.head]-r.ax, r.y[r.head]-r.ay
		r.sx -= dx
		r.sy -= dy
		r.sxy -= dx * dy
		r.sxx -= dx * dx
		r.syy -= dy * dy
	} else {
		r.n++
	}
	r.x[r.head], r.y[r.head] = x, y
	dx, dy := x-r.ax, y-r.ay
	r.sx += dx
	r.sy += dy
	r.sxy += dx * dy
	r.sxx += dx * dx
	r.syy += dy * dy
	r.head++
	if r.head == len(r.x) {
		r.head = 0
	}
	r.total++
	if r.total%uint64(len(r.x)) == 0 {
		r.recompute()
	}
}

// recompute re-derives the anchored sums exactly from the buffered
// pairs, discarding any round-off the incremental updates accumulated.
// Called once per ring revolution, so its O(window) cost amortizes to
// O(1) per push. Re-anchoring at the window means keeps
// the sums operating on deviations even when the series level drifts far
// from its initial value.
func (r *RollingPearson) recompute() {
	var mx, my float64
	for i := 0; i < r.n; i++ {
		mx += r.x[i]
		my += r.y[i]
	}
	r.ax, r.ay = mx/float64(r.n), my/float64(r.n)
	r.sx, r.sy, r.sxy, r.sxx, r.syy = 0, 0, 0, 0, 0
	for i := 0; i < r.n; i++ {
		dx, dy := r.x[i]-r.ax, r.y[i]-r.ay
		r.sx += dx
		r.sy += dy
		r.sxy += dx * dy
		r.sxx += dx * dx
		r.syy += dy * dy
	}
}

// Corr returns the Pearson coefficient over the buffered window. It
// mirrors PearsonMissingAsZero's contract: ErrInsufficientData for fewer
// than two pairs, and 0 (no correlation) when either series is constant
// over the window.
func (r *RollingPearson) Corr() (float64, error) {
	if r.n < 2 {
		return 0, ErrInsufficientData
	}
	n := float64(r.n)
	cov := r.sxy - r.sx*r.sy/n
	varx := r.sxx - r.sx*r.sx/n
	vary := r.syy - r.sy*r.sy/n
	if varx <= 0 || vary <= 0 {
		return 0, nil
	}
	c := cov / math.Sqrt(varx*vary)
	// Guard the last-ulp overshoot incremental arithmetic can produce.
	if c > 1 {
		c = 1
	} else if c < -1 {
		c = -1
	}
	return c, nil
}
