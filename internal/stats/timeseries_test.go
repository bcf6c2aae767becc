package stats

import (
	"math"
	"testing"
)

func TestTimeSeriesAppendAndAccessors(t *testing.T) {
	ts := NewTimeSeries()
	if ts.Len() != 0 {
		t.Fatal("new series should be empty")
	}
	ts.Append(0, 1)
	ts.Append(5, 2)
	ts.Append(10, 4)
	if ts.Len() != 3 {
		t.Fatalf("len = %d, want 3", ts.Len())
	}
	wantV := []float64{1, 2, 4}
	for i, v := range ts.Values() {
		if v != wantV[i] {
			t.Errorf("Values[%d] = %v, want %v", i, v, wantV[i])
		}
	}
	wantT := []float64{0, 5, 10}
	for i, v := range ts.Times() {
		if v != wantT[i] {
			t.Errorf("Times[%d] = %v, want %v", i, v, wantT[i])
		}
	}
}

func TestTimeSeriesOutOfOrderPanics(t *testing.T) {
	ts := NewTimeSeries()
	ts.Append(5, 1)
	defer func() {
		if recover() == nil {
			t.Error("want panic on out-of-order append")
		}
	}()
	ts.Append(4, 1)
}

func TestTimeSeriesEqualTimestampsAllowed(t *testing.T) {
	ts := NewTimeSeries()
	ts.Append(5, 1)
	ts.Append(5, 2) // same instant: allowed (nondecreasing)
	if ts.Len() != 2 {
		t.Fatal("equal timestamps should be accepted")
	}
}

func TestTimeSeriesMissingAndMax(t *testing.T) {
	ts := NewTimeSeries()
	ts.Append(0, 3)
	ts.AppendMissing(5)
	ts.Append(10, 7)
	if got := ts.Max(); got != 7 {
		t.Errorf("Max = %v, want 7 (NaN skipped)", got)
	}
	vals := ts.Values()
	if !math.IsNaN(vals[1]) {
		t.Error("missing sample should be NaN")
	}
	empty := NewTimeSeries()
	if empty.Max() != 0 {
		t.Error("empty Max should be 0")
	}
	allMissing := NewTimeSeries()
	allMissing.AppendMissing(0)
	if allMissing.Max() != 0 {
		t.Error("all-missing Max should be 0")
	}
}

func TestSparkline(t *testing.T) {
	ts := NewTimeSeries()
	for i := 0; i < 8; i++ {
		ts.Append(float64(i), float64(i))
	}
	s := ts.Sparkline(8)
	if len(s) != 8 {
		t.Fatalf("sparkline width = %d, want 8", len(s))
	}
	if s[0] == s[7] {
		t.Errorf("ramp sparkline should vary: %q", s)
	}
	if NewTimeSeries().Sparkline(10) != "" {
		t.Error("empty series should render empty sparkline")
	}
	short := NewTimeSeries()
	short.Append(0, 1)
	if got := short.Sparkline(10); len(got) != 1 {
		t.Errorf("series shorter than width should shrink: %q", got)
	}
}
