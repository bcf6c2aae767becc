package trace

import (
	"strconv"
	"testing"
	"unsafe"
)

// FuzzFloatFormat checks the Perfetto encoder's float formatter against
// strconv.FormatFloat(v, 'g', -1, 64).
func FuzzFloatFormat(f *testing.F) {
	// The edge cases are in testdata/fuzz/FuzzFloatFormat.
	f.Add(2.48e7, 0.21484100427606828, 4.600000000000002e6)
	f.Fuzz(func(t *testing.T, a, b, c float64) {
		for _, v := range []float64{a, b, c} {
			if got, want := string(appendFloat(nil, v)), strconv.FormatFloat(v, 'g', -1, 64); got != want {
				t.Fatalf("format(%b) = %s, want %s", v, got, want)
			}
		}
	})
}

// TestSpanPageIsSmallObject pins the tracer's page under the runtime's
// 32 KB large-object threshold: a larger page is zero-filled and swept
// as a large object on every allocation.
func TestSpanPageIsSmallObject(t *testing.T) {
	if size := unsafe.Sizeof([spanPage]Span{}); size > 32<<10 {
		t.Fatalf("a span page is %d bytes, over 32 KB", size)
	}
}

// TestTracerAcrossPages checks ids, lookups and Spans across page
// boundaries.
func TestTracerAcrossPages(t *testing.T) {
	tr := NewTracer()
	const n = 2*spanPage + 3
	for i := 0; i < n; i++ {
		id := tr.Start(KindAttempt, "a", "slot", NoSpan, float64(i))
		if id != SpanID(i) {
			t.Fatalf("span %d got id %d", i, id)
		}
		tr.End(id, float64(i)+0.5)
	}
	spans := tr.Spans()
	if len(spans) != n || tr.Len() != n {
		t.Fatalf("Spans() has %d, Len() %d, want %d", len(spans), tr.Len(), n)
	}
	for i, s := range spans {
		if s.ID != SpanID(i) || s.StartSec != float64(i) || s.Open {
			t.Fatalf("span %d = %+v", i, s)
		}
	}
	if got := tr.Totals().Attempts; got != n {
		t.Fatalf("Totals().Attempts = %d, want %d", got, n)
	}
}
