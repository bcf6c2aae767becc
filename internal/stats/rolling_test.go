package stats

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// relClose reports whether a and b agree to 1e-9 relative (or absolute,
// near zero) error — the contract between the rolling accumulators and
// their scratch counterparts.
func relClose(a, b float64) bool {
	d := math.Abs(a - b)
	scale := math.Max(math.Abs(a), math.Abs(b))
	return d <= 1e-9*math.Max(1, scale)
}

// randStream draws a stream mixing the magnitudes the monitor actually
// produces (iowait ratios ~10, throughputs ~1e8) plus missing samples.
func randStream(rng *rand.Rand, n int, scale, missingFrac float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		if rng.Float64() < missingFrac {
			out[i] = math.NaN()
			continue
		}
		out[i] = scale * (1 + 0.3*rng.NormFloat64())
	}
	return out
}

// TestRollingWindowMatchesStdDev streams seeded random values through
// windows of several sizes, asserting at every step that Values returns
// the trailing window of the stream, oldest first: the victim samples
// the correlator backfills a new suspect's window with.
func TestRollingWindowMatchesStdDev(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, cap := range []int{1, 2, 3, 7, 32} {
		w := NewRollingWindow(cap)
		xs := randStream(rng, 100, 1, 0)
		var buf []float64
		for i, x := range xs {
			w.Push(x)
			want := xs[max(0, i+1-cap) : i+1]
			if buf = w.Values(buf[:0]); !slices.Equal(buf, want) {
				t.Fatalf("cap=%d step=%d: Values = %v, want %v", cap, i, buf, want)
			}
		}
	}
}

func TestRollingWindowValues(t *testing.T) {
	w := NewRollingWindow(3)
	for _, x := range []float64{1, 2, 3, 4, 5} {
		w.Push(x)
	}
	if got, want := w.Values(nil), []float64{3, 4, 5}; !slices.Equal(got, want) {
		t.Fatalf("Values = %v, want %v", got, want)
	}
}

// TestRollingPearsonMatchesMissingAsZero streams seeded random pairs
// (with missing samples) and asserts the rolling coefficient equals
// PearsonMissingAsZero over the same trailing window at every step.
func TestRollingPearsonMatchesMissingAsZero(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for _, window := range []int{2, 3, 4, 16} {
		for _, scale := range []float64{1, 4e8} {
			rp := NewRollingPearson(window)
			xs := randStream(rng, 400, 10, 0.1)
			ys := randStream(rng, 400, scale, 0.2)
			for i := range xs {
				rp.Push(xs[i], ys[i])
				lo := i + 1 - window
				if lo < 0 {
					lo = 0
				}
				got, gerr := rp.Corr()
				want, werr := PearsonMissingAsZero(xs[lo:i+1], ys[lo:i+1])
				if (gerr != nil) != (werr != nil) {
					t.Fatalf("window=%d step=%d: err=%v want %v", window, i, gerr, werr)
				}
				if gerr == nil && !relClose(got, want) {
					t.Fatalf("window=%d scale=%g step=%d: Corr=%g want %g", window, scale, i, got, want)
				}
			}
		}
	}
}

// TestRollingPearsonCorrelatedSeries checks the sign and strength come
// out right on a deliberately correlated pair, and that a constant series
// reports zero correlation exactly as the scratch path does.
func TestRollingPearsonCorrelatedSeries(t *testing.T) {
	rp := NewRollingPearson(8)
	for i := 0; i < 40; i++ {
		x := float64(i % 5)
		rp.Push(x, 3*x+1)
	}
	if r, err := rp.Corr(); err != nil || math.Abs(r-1) > 1e-12 {
		t.Errorf("perfectly correlated: r=%v err=%v", r, err)
	}
	rp = NewRollingPearson(4)
	for i := 0; i < 10; i++ {
		rp.Push(7, float64(i)) // x constant
	}
	if r, err := rp.Corr(); err != nil || r != 0 {
		t.Errorf("constant series: r=%v err=%v, want 0", r, err)
	}
	rp = NewRollingPearson(4)
	rp.Push(1, 2)
	if _, err := rp.Corr(); err != ErrInsufficientData {
		t.Errorf("single pair: err=%v, want ErrInsufficientData", err)
	}
}

// TestMomentsMatchesStdDev folds random slices through Moments and
// compares against the two-pass Mean/StdDev.
func TestMomentsMatchesStdDev(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{0, 1, 2, 5, 100} {
		for _, scale := range []float64{1, 1e9} {
			xs := randStream(rng, n, scale, 0)
			var m Moments
			for _, x := range xs {
				m.Add(x)
			}
			if got, want := m.Mean(), Mean(xs); !relClose(got, want) {
				t.Errorf("n=%d scale=%g: Mean=%g want %g", n, scale, got, want)
			}
			if got, want := m.StdDev(), StdDev(xs); !relClose(got, want) {
				t.Errorf("n=%d scale=%g: StdDev=%g want %g", n, scale, got, want)
			}
			if m.n != n {
				t.Errorf("n=%d want %d", m.n, n)
			}
		}
	}
}

// TestPercentileSelectionMatchesSort cross-checks the quickselect
// Percentile and PercentileOfSorted against each other on random data:
// both must produce the identical interpolated order statistics.
func TestPercentileSelectionMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(60)
		xs := randStream(rng, n, 100, 0)
		sorted := append([]float64(nil), xs...)
		// Insertion sort as an independent oracle.
		for i := 1; i < len(sorted); i++ {
			for j := i; j > 0 && sorted[j] < sorted[j-1]; j-- {
				sorted[j], sorted[j-1] = sorted[j-1], sorted[j]
			}
		}
		for _, p := range []float64{0, 3, 25, 50, 75, 97.5, 100} {
			if got, want := Percentile(xs, p), PercentileOfSorted(sorted, p); got != want {
				t.Fatalf("trial %d p=%v: Percentile=%g, of-sorted=%g (xs=%v)", trial, p, got, want, xs)
			}
		}
	}
}

// TestSummarizeSingleSort pins Summarize to the quantiles of a known
// sample and confirms it agrees with per-quantile Percentile calls.
func TestSummarizeSingleSort(t *testing.T) {
	xs := []float64{9, 1, 5, 3, 7}
	s := Summarize(xs)
	if s.Min != 1 || s.Max != 9 || s.Median != 5 || s.Q1 != 3 || s.Q3 != 7 {
		t.Errorf("summary = %+v", s)
	}
	for _, tc := range []struct {
		p    float64
		want float64
	}{{0, s.Min}, {25, s.Q1}, {50, s.Median}, {75, s.Q3}, {100, s.Max}} {
		if got := Percentile(xs, tc.p); got != tc.want {
			t.Errorf("Percentile(%v) = %g, summary says %g", tc.p, got, tc.want)
		}
	}
}

// TestPearsonMissingAsZeroNoCopies guards the inline substitution:
// results must match Pearson over explicitly zero-substituted copies,
// and the input slices must not be modified.
func TestPearsonMissingAsZeroNoCopies(t *testing.T) {
	x := []float64{1, math.NaN(), 3, 4}
	y := []float64{2, 5, math.NaN(), 8}
	cx := []float64{1, 0, 3, 4}
	cy := []float64{2, 5, 0, 8}
	got, err1 := PearsonMissingAsZero(x, y)
	want, err2 := Pearson(cx, cy)
	if err1 != nil || err2 != nil || got != want {
		t.Errorf("inline=%v (%v), copies=%v (%v)", got, err1, want, err2)
	}
	if !math.IsNaN(x[1]) || !math.IsNaN(y[2]) {
		t.Error("inputs were modified")
	}
}

func BenchmarkSummarize(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	xs := randStream(rng, 1000, 50, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Summarize(xs)
	}
}

func BenchmarkRollingPearsonPush(b *testing.B) {
	rp := NewRollingPearson(4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rp.Push(float64(i%13), float64(i%7))
		if _, err := rp.Corr(); err != nil && i > 2 {
			b.Fatal(err)
		}
	}
}
