package stats

import (
	"testing"
	"testing/quick"
)

func TestHistogramBuckets(t *testing.T) {
	h := NewHistogram(0.1, 0.3)
	for _, v := range []float64{0.05, 0.09, 0.15, 0.31, 2.0} {
		h.Add(v)
	}
	if h.Total() != 5 {
		t.Fatalf("total = %d", h.Total())
	}
	if h.Count(0) != 2 || h.Count(1) != 1 || h.Count(2) != 2 {
		t.Errorf("counts = %d/%d/%d", h.Count(0), h.Count(1), h.Count(2))
	}
	if got := h.CumulativeFrac(0.1); got != 0.4 {
		t.Errorf("frac <0.1 = %v, want 0.4", got)
	}
	if got := h.CumulativeFrac(0.3); got != 0.6 {
		t.Errorf("frac <0.3 = %v, want 0.6", got)
	}
	if got := h.Count(2); got != 2 {
		t.Errorf("overflow bucket = %d, want 2", got)
	}
}

func TestHistogramBoundaryGoesUp(t *testing.T) {
	// "Degraded < 10%" excludes exactly 10%.
	h := NewHistogram(0.1)
	h.Add(0.1)
	if h.Count(0) != 0 || h.Count(1) != 1 {
		t.Errorf("boundary sample landed in %d/%d", h.Count(0), h.Count(1))
	}
}

func TestHistogramEmpty(t *testing.T) {
	h := NewHistogram(1)
	if h.CumulativeFrac(1) != 0 {
		t.Error("empty histogram frac should be 0")
	}
}

func TestHistogramPanics(t *testing.T) {
	for i, fn := range []func(){
		func() { NewHistogram() },
		func() { NewHistogram(2, 1) },
		func() { NewHistogram(1, 1) },
		func() { NewHistogram(1).CumulativeFrac(0.5) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: want panic", i)
				}
			}()
			fn()
		}()
	}
}

// Property: counts always sum to the number of samples added.
func TestHistogramPropertyConservation(t *testing.T) {
	f := func(vals []int16) bool {
		h := NewHistogram(-100, 0, 100)
		for _, v := range vals {
			h.Add(float64(v))
		}
		sum := 0
		for i := 0; i <= 3; i++ {
			sum += h.Count(i)
		}
		return sum == len(vals) && h.Total() == len(vals)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
