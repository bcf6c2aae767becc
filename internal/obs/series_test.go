package obs

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"
)

func TestSeriesRingRetention(t *testing.T) {
	s := NewSeries(3)
	if got := s.Points(); len(got) != 0 {
		t.Fatalf("empty series returned %v", got)
	}
	for i := 1; i <= 5; i++ {
		s.Append(float64(i*10), float64(i))
	}
	got := s.Points()
	if len(got) != 3 {
		t.Fatalf("retained %d points, want 3", len(got))
	}
	for i, p := range got {
		if want := float64(i + 3); p.V != want || p.T != want*10 {
			t.Fatalf("point %d = %+v, want T=%v V=%v", i, p, want*10, want)
		}
	}
	if s.Total() != 5 || s.Len() != 3 {
		t.Fatalf("total/len = %d/%d, want 5/3", s.Total(), s.Len())
	}
}

func TestSeriesNilSafe(t *testing.T) {
	var s *Series
	s.Append(1, 2) // must not panic
	if s.Points() != nil || s.Len() != 0 || s.Total() != 0 || len(pointsAfter(s.Points(), 0)) != 0 {
		t.Fatal("nil series not empty")
	}
}

func TestSeriesMonotoneTimestamps(t *testing.T) {
	s := NewSeries(4)
	s.Append(10, 1)
	s.Append(10, 2) // equal is fine — distinct servers, same interval
	defer func() {
		if recover() == nil {
			t.Fatal("decreasing timestamp did not panic")
		}
	}()
	s.Append(9, 3)
}

func TestSeriesSince(t *testing.T) {
	s := NewSeries(8)
	for _, ti := range []float64{10, 20, 30, 40} {
		s.Append(ti, ti)
	}
	if got := pointsAfter(s.Points(), 0); len(got) != 4 {
		t.Fatalf("Since(0) returned %d points, want 4", len(got))
	}
	got := pointsAfter(s.Points(), 20)
	if len(got) != 2 || got[0].T != 30 || got[1].T != 40 {
		t.Fatalf("Since(20) = %v, want [30 40]", got)
	}
	if got := pointsAfter(s.Points(), 40); len(got) != 0 {
		t.Fatalf("Since(40) = %v, want empty (strictly after)", got)
	}
}

func TestSeriesDownsample(t *testing.T) {
	s := NewSeries(100)
	for i := 0; i < 100; i++ {
		v := float64(i % 10)
		if i == 37 {
			v = 99 // a spike the downsample must preserve
		}
		s.Append(float64(i), v)
	}
	got := downsample(s.Points(), 4)
	if len(got) != 4 {
		t.Fatalf("downsampled to %d points, want 4", len(got))
	}
	spike := false
	for i, p := range got {
		if i > 0 && p.T <= got[i-1].T {
			t.Fatalf("downsampled timestamps not increasing: %v", got)
		}
		if p.V == 99 {
			spike = true
		}
	}
	if !spike {
		t.Fatalf("max-downsample lost the spike: %v", got)
	}
	// No-op cases.
	if got := downsample(s.Points(), 0); len(got) != 100 {
		t.Fatalf("downsample(0) dropped points: %d", len(got))
	}
	if got := downsample(s.Points(), 1000); len(got) != 100 {
		t.Fatalf("downsample(n>len) changed points: %d", len(got))
	}
}

func TestSeriesRegistry(t *testing.T) {
	r := NewSeriesRegistry(4)
	a := r.Series("dev_iowait")
	b := r.Series("dev_iowait", Label{Key: "zone", Value: "zone-0"})
	if a == b {
		t.Fatal("label sets did not produce distinct series")
	}
	if again := r.Series("dev_iowait"); again != a {
		t.Fatal("registry did not return the same series for the same key")
	}
	a.Append(1, 10)
	b.Append(1, 20)
	keys := r.Keys()
	want := []string{"dev_iowait", `dev_iowait{zone="zone-0"}`}
	if len(keys) != 2 || keys[0] != want[0] || keys[1] != want[1] {
		t.Fatalf("Keys = %v, want %v", keys, want)
	}

	var nilReg *SeriesRegistry
	if nilReg.Series("x") != nil || nilReg.Keys() != nil {
		t.Fatal("nil registry not inert")
	}
}

func TestSeriesRegistryWriteJSON(t *testing.T) {
	r := NewSeriesRegistry(8)
	s := r.Series("fleet_active_servers")
	for _, ti := range []float64{10, 20, 30} {
		s.Append(ti, ti/10)
	}
	render := func(since float64, max int) string {
		var b bytes.Buffer
		if err := r.WriteJSON(&b, since, max); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	full := render(0, 0)
	if full != render(0, 0) {
		t.Fatal("WriteJSON not deterministic")
	}
	var out struct {
		Series []struct {
			Series string        `json:"series"`
			Total  uint64        `json:"total"`
			Points []SeriesPoint `json:"points"`
		} `json:"series"`
	}
	if err := json.Unmarshal([]byte(full), &out); err != nil {
		t.Fatalf("WriteJSON output invalid: %v\n%s", err, full)
	}
	if len(out.Series) != 1 || out.Series[0].Total != 3 || len(out.Series[0].Points) != 3 {
		t.Fatalf("unexpected payload: %s", full)
	}
	// Delta scrape: only points strictly after since.
	if err := json.Unmarshal([]byte(render(20, 0)), &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Series[0].Points) != 1 || out.Series[0].Points[0].T != 30 {
		t.Fatalf("since=20 scrape returned %+v", out.Series[0].Points)
	}
	// maxPoints caps the per-series payload.
	if err := json.Unmarshal([]byte(render(0, 2)), &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Series[0].Points) > 2 {
		t.Fatalf("maxPoints=2 returned %d points", len(out.Series[0].Points))
	}
}

// TestSeriesWrappedRingReads pins pointsAfter and downsample behaviour after
// the ring has wrapped: reads must see the retained window in time
// order, not the raw buffer order.
func TestSeriesWrappedRingReads(t *testing.T) {
	s := NewSeries(4)
	for i := 0; i < 10; i++ { // retains t=6..9, buffer physically rotated
		s.Append(float64(i), float64(i*10))
	}
	pts := s.Points()
	if len(pts) != 4 || pts[0].T != 6 || pts[3].T != 9 {
		t.Fatalf("wrapped Points() = %v", pts)
	}

	// Since on the wrapped window: strictly-after semantics hold across
	// the physical seam.
	if got := pointsAfter(s.Points(), 7); len(got) != 2 || got[0].T != 8 || got[1].T != 9 {
		t.Fatalf("Since(7) on wrapped ring = %v", got)
	}
	// A cutoff older than the retained window returns everything...
	if got := pointsAfter(s.Points(), 2); len(got) != 4 {
		t.Fatalf("Since(2) = %v, want all 4 retained points", got)
	}
	// ...and one at-or-past the newest point returns nothing (strictly
	// after).
	if got := pointsAfter(s.Points(), 9); len(got) != 0 {
		t.Fatalf("Since(9) = %v, want empty", got)
	}

	// Downsample on the wrapped window: 2 buckets of 2, each reporting
	// its max value and last timestamp.
	ds := downsample(s.Points(), 2)
	want := []SeriesPoint{{T: 7, V: 70}, {T: 9, V: 90}}
	if !reflect.DeepEqual(ds, want) {
		t.Fatalf("downsample(2) on wrapped ring = %v, want %v", ds, want)
	}
}

// TestSeriesDownsampleDegenerateN: n <= 0 and n >= len both return the
// points unchanged rather than panicking or truncating.
func TestSeriesDownsampleDegenerateN(t *testing.T) {
	s := NewSeries(8)
	for i := 0; i < 5; i++ {
		s.Append(float64(i), float64(i))
	}
	all := s.Points()
	for _, n := range []int{0, -1, -100, 5, 6, 1000} {
		if got := downsample(s.Points(), n); !reflect.DeepEqual(got, all) {
			t.Errorf("downsample(%d) = %v, want all %d points unchanged", n, got, len(all))
		}
	}
}

// TestSeriesEmptyReads: every read primitive is well-defined on a
// freshly created (never appended) series.
func TestSeriesEmptyReads(t *testing.T) {
	s := NewSeries(4)
	if got := s.Points(); len(got) != 0 {
		t.Errorf("Points() = %v on empty series", got)
	}
	if got := pointsAfter(s.Points(), 0); len(got) != 0 {
		t.Errorf("Since(0) = %v on empty series", got)
	}
	if got := downsample(s.Points(), 3); len(got) != 0 {
		t.Errorf("downsample(3) = %v on empty series", got)
	}
	if s.Len() != 0 || s.Total() != 0 {
		t.Errorf("Len/Total = %d/%d on empty series", s.Len(), s.Total())
	}
}

// TestSeriesTotalCountsLoss: after wraparound, Total keeps counting
// evicted points so a scraper can detect it has missed data.
func TestSeriesTotalCountsLoss(t *testing.T) {
	s := NewSeries(3)
	for i := 0; i < 7; i++ {
		s.Append(float64(i), 0)
	}
	if s.Total() != 7 {
		t.Fatalf("Total = %d, want 7", s.Total())
	}
	if s.Len() != 3 {
		t.Fatalf("Len = %d, want 3", s.Len())
	}
	if lost := s.Total() - uint64(s.Len()); lost != 4 {
		t.Fatalf("computed loss = %d, want 4", lost)
	}
}
