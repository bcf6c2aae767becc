// Package stats provides the statistical primitives PerfCloud relies on:
// exponentially weighted moving averages for smoothing 5-second samples,
// standard deviation across worker VMs for interference detection (the
// one-pass Moments), and Pearson cross-correlation (with the paper's
// missing-as-zero rule) for antagonist identification, over a trailing
// window (RollingPearson). It also carries the helpers the experiment
// harness uses: time series with sparklines, percentiles, histograms and
// summaries.
package stats

import (
	"errors"
	"math"
	"sort"
)

// ErrInsufficientData is returned when an operation needs more samples
// than were provided (e.g. Pearson correlation over fewer than two points).
var ErrInsufficientData = errors.New("stats: insufficient data")

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// StdDev returns the population standard deviation of xs.
// It returns 0 for slices with fewer than two elements: the detector treats
// a single-VM application as having no cross-VM deviation signal.
func StdDev(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	var ss float64
	for _, x := range xs {
		d := x - m
		ss += d * d
	}
	return math.Sqrt(ss / float64(len(xs)))
}

// Pearson computes the Pearson correlation coefficient between two series
// of equal length. It returns ErrInsufficientData when fewer than two
// points are available and 0 (no correlation) when either series is
// constant, since correlation is undefined for zero variance and the
// correlator must not flag constant-usage suspects.
func Pearson(x, y []float64) (float64, error) {
	if len(x) != len(y) {
		return 0, errors.New("stats: series length mismatch")
	}
	if len(x) < 2 {
		return 0, ErrInsufficientData
	}
	mx, my := Mean(x), Mean(y)
	var sxy, sxx, syy float64
	for i := range x {
		dx, dy := x[i]-mx, y[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return 0, nil
	}
	return sxy / math.Sqrt(sxx*syy), nil
}

// PearsonMissingAsZero implements the paper's §III-B rule: when a suspect
// VM reports no measurement for an interval (NaN in the input), the value
// is treated as zero rather than omitted. This avoids over-emphasising
// similarity computed over little data for mostly-idle suspects.
// The substitution happens inline during accumulation — no copies are
// made — and the arithmetic matches Pearson over zero-substituted copies
// bit for bit.
func PearsonMissingAsZero(x, y []float64) (float64, error) {
	if len(x) != len(y) {
		return 0, errors.New("stats: series length mismatch")
	}
	if len(x) < 2 {
		return 0, ErrInsufficientData
	}
	var sx, sy float64
	for i := range x {
		sx += zeroIfNaN(x[i])
	}
	for i := range y {
		sy += zeroIfNaN(y[i])
	}
	mx, my := sx/float64(len(x)), sy/float64(len(y))
	var sxy, sxx, syy float64
	for i := range x {
		dx, dy := zeroIfNaN(x[i])-mx, zeroIfNaN(y[i])-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return 0, nil
	}
	return sxy / math.Sqrt(sxx*syy), nil
}

// PearsonOmitMissing is the classical alternative used as the ablation
// baseline for design decision D2: pairs where either series is missing
// (NaN) are dropped before computing the correlation.
func PearsonOmitMissing(x, y []float64) (float64, error) {
	if len(x) != len(y) {
		return 0, errors.New("stats: series length mismatch")
	}
	var fx, fy []float64
	for i := range x {
		if math.IsNaN(x[i]) || math.IsNaN(y[i]) {
			continue
		}
		fx = append(fx, x[i])
		fy = append(fy, y[i])
	}
	return Pearson(fx, fy)
}

func zeroIfNaN(v float64) float64 {
	if math.IsNaN(v) {
		return 0
	}
	return v
}

// EWMA smooths a stream of samples with an exponentially weighted moving
// average: v' = alpha*x + (1-alpha)*v. The zero value is not usable; use
// MakeEWMA. The first observed sample initialises the average directly so
// that smoothing does not drag early detections toward zero.
type EWMA struct {
	alpha  float64
	value  float64
	primed bool
}

// MakeEWMA returns an EWMA with the given smoothing factor in (0, 1].
// PerfCloud's performance monitor smooths 5-second samples with it,
// keeping the filters by value in slice-backed state (one heap object per
// filter would defeat an allocation-free hot loop).
func MakeEWMA(alpha float64) EWMA {
	if alpha <= 0 || alpha > 1 {
		panic("stats: EWMA alpha must be in (0, 1]")
	}
	return EWMA{alpha: alpha}
}

// Update folds sample x into the average and returns the new value.
func (e *EWMA) Update(x float64) float64 {
	if !e.primed {
		e.value = x
		e.primed = true
		return e.value
	}
	e.value = e.alpha*x + (1-e.alpha)*e.value
	return e.value
}

// Primed reports whether at least one sample has been folded in.
func (e *EWMA) Primed() bool { return e.primed }

// Percentile returns the p-th percentile (0 <= p <= 100) of xs using
// linear interpolation between closest ranks. It returns 0 for empty input.
// One-off queries use O(n) quickselect on a scratch copy rather than a
// full sort; callers needing several quantiles of one sample should sort
// once and use PercentileOfSorted (as Summarize does).
func Percentile(xs []float64, p float64) float64 {
	return PercentileInPlace(append([]float64(nil), xs...), p)
}

// PercentileInPlace is Percentile without the scratch copy: it returns
// the same value, but reorders s. A caller that owns s and does not read
// it afterwards saves the copy.
func PercentileInPlace(s []float64, p float64) float64 {
	if len(s) == 0 {
		return 0
	}
	if p <= 0 {
		return selectKth(s, 0)
	}
	if p >= 100 {
		return selectKth(s, len(s)-1)
	}
	rank := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	vlo := selectKth(s, lo)
	if lo == hi {
		return vlo
	}
	// After selectKth(s, lo), every element right of lo is >= s[lo], so
	// the (lo+1)-th order statistic is the minimum of that suffix.
	vhi := s[lo+1]
	for _, v := range s[lo+2:] {
		if floatLess(v, vhi) {
			vhi = v
		}
	}
	frac := rank - float64(lo)
	return vlo*(1-frac) + vhi*frac
}

// PercentileOfSorted reads the p-th percentile from an already-sorted
// sample (ascending, as sort.Float64s leaves it) with the same
// interpolation rule as Percentile. It does not copy or allocate.
func PercentileOfSorted(s []float64, p float64) float64 {
	if len(s) == 0 {
		return 0
	}
	if p <= 0 {
		return s[0]
	}
	if p >= 100 {
		return s[len(s)-1]
	}
	rank := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return s[lo]
	}
	frac := rank - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac
}

// floatLess orders float64s the way sort.Float64s does: NaN sorts before
// every other value.
func floatLess(a, b float64) bool {
	return a < b || (math.IsNaN(a) && !math.IsNaN(b))
}

// selectKth partially sorts s in place so that s[k] holds the k-th order
// statistic (0-based, in floatLess order) with everything before it <=
// and everything after it >=, and returns s[k]. Median-of-three pivoting
// with an insertion-sort base case keeps the selection deterministic and
// O(n) expected.
func selectKth(s []float64, k int) float64 {
	lo, hi := 0, len(s)-1
	for hi-lo > 12 {
		// Median-of-three pivot of lo, mid, hi.
		mid := lo + (hi-lo)/2
		if floatLess(s[mid], s[lo]) {
			s[mid], s[lo] = s[lo], s[mid]
		}
		if floatLess(s[hi], s[lo]) {
			s[hi], s[lo] = s[lo], s[hi]
		}
		if floatLess(s[hi], s[mid]) {
			s[hi], s[mid] = s[mid], s[hi]
		}
		pivot := s[mid]
		// Hoare partition around the pivot value.
		i, j := lo, hi
		for i <= j {
			for floatLess(s[i], pivot) {
				i++
			}
			for floatLess(pivot, s[j]) {
				j--
			}
			if i <= j {
				s[i], s[j] = s[j], s[i]
				i++
				j--
			}
		}
		switch {
		case k <= j:
			hi = j
		case k >= i:
			lo = i
		default:
			return s[k]
		}
	}
	// Small range: insertion sort settles the exact order statistics.
	for i := lo + 1; i <= hi; i++ {
		for j := i; j > lo && floatLess(s[j], s[j-1]); j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
	return s[k]
}

// Summary captures the five-number summary plus mean of a sample,
// matching what the paper's box plots (Fig. 12) report.
type Summary struct {
	N      int
	Min    float64
	Q1     float64
	Median float64
	Q3     float64
	Max    float64
	Mean   float64
	StdDev float64
}

// Summarize computes a Summary of xs. An empty input yields a zero
// Summary. One sorted copy serves all five quantiles (and Min/Max read
// its endpoints directly) instead of the per-quantile copy-and-sort the
// naive formulation pays five times over.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return Summary{
		N:      len(s),
		Min:    s[0],
		Q1:     PercentileOfSorted(s, 25),
		Median: PercentileOfSorted(s, 50),
		Q3:     PercentileOfSorted(s, 75),
		Max:    s[len(s)-1],
		Mean:   Mean(xs),
		StdDev: StdDev(xs),
	}
}

// IQR returns the inter-quartile range of the summary.
func (s Summary) IQR() float64 { return s.Q3 - s.Q1 }
