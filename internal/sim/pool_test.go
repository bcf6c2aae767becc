package sim

import (
	"runtime"
	"sync/atomic"
	"testing"
)

func TestSlotPoolAcquireRelease(t *testing.T) {
	p := NewSlotPool(4)
	if got := p.TryAcquire(3); got != 3 {
		t.Fatalf("TryAcquire(3) on empty pool = %d", got)
	}
	if got := p.TryAcquire(3); got != 1 {
		t.Fatalf("TryAcquire(3) with 1 free = %d, want partial grant 1", got)
	}
	if got := p.TryAcquire(1); got != 0 {
		t.Fatalf("TryAcquire on drained pool = %d, want 0", got)
	}
	if p.InUse() != 4 || p.PeakInUse() != 4 {
		t.Fatalf("InUse = %d, PeakInUse = %d, want 4, 4", p.InUse(), p.PeakInUse())
	}
	p.Release(4)
	if p.InUse() != 0 {
		t.Fatalf("InUse after release = %d", p.InUse())
	}
	if p.PeakInUse() != 4 {
		t.Fatalf("PeakInUse forgot the high-water mark: %d", p.PeakInUse())
	}
}

func TestSlotPoolZeroCapacity(t *testing.T) {
	p := NewSlotPool(0)
	if got := p.TryAcquire(5); got != 0 {
		t.Fatalf("TryAcquire on zero-capacity pool = %d", got)
	}
}

func TestForEachSharedCoversAllIndices(t *testing.T) {
	for _, n := range []int{0, 1, 1000} {
		for _, workers := range []int{1, 2, 8, 64} {
			hits := make([]atomic.Int32, n)
			ForEachShared(n, workers, func(i int) { hits[i].Add(1) })
			for i := range hits {
				if got := hits[i].Load(); got != 1 {
					t.Fatalf("n=%d workers=%d: index %d ran %d times", n, workers, i, got)
				}
			}
		}
	}
}

func TestForEachSharedReleasesSlots(t *testing.T) {
	before := SharedPool().InUse()
	ForEachShared(100, 8, func(i int) {})
	if after := SharedPool().InUse(); after != before {
		t.Fatalf("slots leaked: InUse %d -> %d", before, after)
	}
}

func TestForEachSharedPeakWithinCapacity(t *testing.T) {
	// Nest fan-outs: an outer layer whose workers each fan out an inner
	// layer.
	ForEachShared(8, 8, func(i int) {
		ForEachShared(16, 16, func(j int) {})
	})
	if peak, capacity := SharedPool().PeakInUse(), SharedPool().Capacity(); peak > capacity {
		t.Fatalf("peak slot usage %d exceeds pool capacity %d", peak, capacity)
	}
}

func TestForEachSharedPanicPropagates(t *testing.T) {
	before := SharedPool().InUse()
	defer func() {
		if r := recover(); r == nil {
			t.Fatal("panic in fn was swallowed")
		}
		if after := SharedPool().InUse(); after != before {
			t.Fatalf("slots leaked across panic: InUse %d -> %d", before, after)
		}
	}()
	ForEachShared(64, 4, func(i int) {
		if i == 7 {
			panic("boom")
		}
	})
}

func TestForEachSharedSequentialWhenDrained(t *testing.T) {
	grabbed := SharedPool().TryAcquire(SharedPool().Capacity())
	defer SharedPool().Release(grabbed)
	// With the pool drained the loop must still complete, inline.
	var sum int // no synchronization: inline execution is single-goroutine
	ForEachShared(50, 8, func(i int) { sum += i })
	if sum != 50*49/2 {
		t.Fatalf("sum = %d", sum)
	}
}

func TestWorkers(t *testing.T) {
	if got := Workers(3); got != 3 {
		t.Errorf("Workers(3) = %d", got)
	}
	if got := Workers(0); got != runtime.GOMAXPROCS(0) {
		t.Errorf("Workers(0) = %d, want GOMAXPROCS", got)
	}
	if got := Workers(-5); got != runtime.GOMAXPROCS(0) {
		t.Errorf("Workers(-5) = %d, want GOMAXPROCS", got)
	}
}
