package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestMean(t *testing.T) {
	cases := []struct {
		in   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{5}, 5},
		{[]float64{1, 2, 3, 4}, 2.5},
		{[]float64{-1, 1}, 0},
	}
	for _, c := range cases {
		if got := Mean(c.in); !almostEqual(got, c.want, 1e-12) {
			t.Errorf("Mean(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestStdDev(t *testing.T) {
	if got := StdDev([]float64{2, 2, 2}); got != 0 {
		t.Errorf("constant series stddev = %v, want 0", got)
	}
	// Population stddev of {1,3} is 1.
	if got := StdDev([]float64{1, 3}); !almostEqual(got, 1, 1e-12) {
		t.Errorf("StdDev({1,3}) = %v, want 1", got)
	}
	if got := StdDev([]float64{7}); got != 0 {
		t.Errorf("single element stddev = %v, want 0", got)
	}
	if got := StdDev(nil); got != 0 {
		t.Errorf("empty stddev = %v, want 0", got)
	}
}

func TestVarianceMatchesStdDev(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	var m Moments
	for _, x := range xs {
		m.Add(x)
	}
	if got, want := m.Variance(), StdDev(xs)*StdDev(xs); !almostEqual(got, want, 1e-12) {
		t.Errorf("Variance = %v, want %v", got, want)
	}
}

func TestPearsonPerfectCorrelation(t *testing.T) {
	x := []float64{1, 2, 3, 4, 5}
	y := []float64{2, 4, 6, 8, 10}
	r, err := Pearson(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(r, 1, 1e-12) {
		t.Errorf("r = %v, want 1", r)
	}
}

func TestPearsonPerfectAnticorrelation(t *testing.T) {
	x := []float64{1, 2, 3}
	y := []float64{3, 2, 1}
	r, err := Pearson(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(r, -1, 1e-12) {
		t.Errorf("r = %v, want -1", r)
	}
}

func TestPearsonConstantSeriesIsZero(t *testing.T) {
	r, err := Pearson([]float64{1, 1, 1}, []float64{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if r != 0 {
		t.Errorf("constant series r = %v, want 0", r)
	}
}

func TestPearsonErrors(t *testing.T) {
	if _, err := Pearson([]float64{1}, []float64{1, 2}); err == nil {
		t.Error("length mismatch: want error")
	}
	if _, err := Pearson([]float64{1}, []float64{2}); err != ErrInsufficientData {
		t.Errorf("short series: got %v, want ErrInsufficientData", err)
	}
}

func TestPearsonMissingAsZero(t *testing.T) {
	nan := math.NaN()
	// Suspect idle (missing) in intervals where victim deviation is low:
	// treating missing as zero preserves the real correlation structure.
	x := []float64{10, nan, 12, nan, 11}
	y := []float64{9, 0.1, 10, 0.2, 9.5}
	r, err := PearsonMissingAsZero(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if r < 0.9 {
		t.Errorf("missing-as-zero r = %v, want >= 0.9", r)
	}
	// Classical omission computes over only the 3 present pairs, which can
	// over-emphasise similarity; verify the two rules actually differ here.
	ro, err := PearsonOmitMissing(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if almostEqual(r, ro, 1e-9) {
		t.Errorf("expected missing-as-zero (%v) to differ from omit (%v)", r, ro)
	}
}

func TestPearsonOmitMissingDropsPairs(t *testing.T) {
	nan := math.NaN()
	x := []float64{1, nan, 3, 4}
	y := []float64{1, 100, 3, 4}
	r, err := PearsonOmitMissing(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(r, 1, 1e-12) {
		t.Errorf("omit-missing r = %v, want 1 (pair with NaN dropped)", r)
	}
}

func TestEWMAFirstSamplePrimes(t *testing.T) {
	e := MakeEWMA(0.5)
	if e.Primed() {
		t.Fatal("new EWMA should be unprimed")
	}
	if got := e.Update(10); got != 10 {
		t.Errorf("first update = %v, want 10", got)
	}
	if got := e.Update(0); got != 5 {
		t.Errorf("second update = %v, want 5", got)
	}
	if !e.Primed() {
		t.Error("an updated EWMA should be primed")
	}
}

func TestEWMAAlphaOneTracksInput(t *testing.T) {
	e := MakeEWMA(1)
	for _, v := range []float64{3, 9, 27} {
		if got := e.Update(v); got != v {
			t.Errorf("alpha=1 update(%v) = %v", v, got)
		}
	}
}

func TestEWMAPanicsOnBadAlpha(t *testing.T) {
	for _, a := range []float64{0, -0.5, 1.5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("alpha=%v: want panic", a)
				}
			}()
			MakeEWMA(a)
		}()
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	cases := []struct{ p, want float64 }{
		{0, 1}, {25, 2}, {50, 3}, {75, 4}, {100, 5}, {-10, 1}, {150, 5},
	}
	for _, c := range cases {
		if got := Percentile(xs, c.p); !almostEqual(got, c.want, 1e-12) {
			t.Errorf("Percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := Percentile(nil, 50); got != 0 {
		t.Errorf("empty percentile = %v, want 0", got)
	}
	// Interpolation between ranks.
	if got := Percentile([]float64{0, 10}, 50); !almostEqual(got, 5, 1e-12) {
		t.Errorf("interp percentile = %v, want 5", got)
	}
}

func TestPercentileDoesNotMutateInput(t *testing.T) {
	xs := []float64{3, 1, 2}
	Percentile(xs, 50)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Errorf("input mutated: %v", xs)
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4, 5})
	if s.N != 5 || s.Min != 1 || s.Max != 5 || s.Median != 3 {
		t.Errorf("bad summary: %+v", s)
	}
	if !almostEqual(s.IQR(), 2, 1e-12) {
		t.Errorf("IQR = %v, want 2", s.IQR())
	}
	if z := Summarize(nil); z.N != 0 {
		t.Errorf("empty summary N = %d", z.N)
	}
}

// Property: Pearson is symmetric and bounded in [-1, 1].
func TestPearsonPropertySymmetricBounded(t *testing.T) {
	f := func(a, b, c, d, e, g int16) bool {
		x := []float64{float64(a), float64(b), float64(c)}
		y := []float64{float64(d), float64(e), float64(g)}
		r1, err1 := Pearson(x, y)
		r2, err2 := Pearson(y, x)
		if err1 != nil || err2 != nil {
			return false
		}
		return almostEqual(r1, r2, 1e-9) && r1 >= -1.0000001 && r1 <= 1.0000001
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Pearson is invariant under positive affine transforms of x.
func TestPearsonPropertyAffineInvariant(t *testing.T) {
	f := func(a, b, c, d, e, g int8, scale uint8) bool {
		s := float64(scale%50) + 1
		x := []float64{float64(a), float64(b), float64(c), float64(d)}
		y := []float64{float64(e), float64(g), float64(a) + 1, float64(b) - 1}
		x2 := make([]float64, len(x))
		for i := range x {
			x2[i] = s*x[i] + 7
		}
		r1, _ := Pearson(x, y)
		r2, _ := Pearson(x2, y)
		return almostEqual(r1, r2, 1e-6)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: EWMA output stays within the min/max envelope of its inputs.
func TestEWMAPropertyBounded(t *testing.T) {
	f := func(vals []uint16) bool {
		if len(vals) == 0 {
			return true
		}
		e := MakeEWMA(0.5)
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, v := range vals {
			x := float64(v)
			if x < lo {
				lo = x
			}
			if x > hi {
				hi = x
			}
			got := e.Update(x)
			if got < lo-1e-9 || got > hi+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Percentile is monotone in p.
func TestPercentilePropertyMonotone(t *testing.T) {
	f := func(vals []uint8, p1, p2 uint8) bool {
		if len(vals) == 0 {
			return true
		}
		xs := make([]float64, len(vals))
		for i, v := range vals {
			xs[i] = float64(v)
		}
		a, b := float64(p1%101), float64(p2%101)
		if a > b {
			a, b = b, a
		}
		return Percentile(xs, a) <= Percentile(xs, b)+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: PercentileInPlace returns exactly what Percentile returns, for
// any sample and any p, including out-of-range p and ties.
func TestPercentileInPlaceMatchesPercentile(t *testing.T) {
	f := func(vals []int8, p int16) bool {
		xs := make([]float64, len(vals))
		for i, v := range vals {
			xs[i] = float64(v) / 4
		}
		want := Percentile(xs, float64(p)/3)
		got := PercentileInPlace(xs, float64(p)/3)
		return math.Float64bits(got) == math.Float64bits(want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
	if got := PercentileInPlace(nil, 50); got != 0 {
		t.Errorf("empty PercentileInPlace = %v, want 0", got)
	}
}
