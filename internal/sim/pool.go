package sim

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// SlotPool is a weighted pool of worker slots shared by every fan-out of
// the process. Each slot licenses one extra goroutine beyond the caller's
// own; a fan-out (experiment repetitions, each stepping its own engine)
// acquires slots before spawning and releases them as workers retire, so
// concurrent fan-outs cannot multiply into more runnable goroutines than
// the machine has processors.
//
// Acquisition is non-blocking and partial: a caller asking for k slots
// receives between 0 and k, weighted by what is free right now. A caller
// granted zero slots simply runs its work inline on its own goroutine —
// it never waits — so a fan-out started while the pool is drained, even
// from inside another one, degrades to sequential execution instead of
// deadlocking.
type SlotPool struct {
	capacity int64
	used     atomic.Int64
	peak     atomic.Int64

	// Contention accounting for the health layer: how often callers asked
	// for slots, how often they were turned away empty-handed, and how
	// many slots were granted in total. Updated once per fan-out, not per
	// iteration, so the counters cost nothing on the simulation hot path.
	tryAcquires atomic.Uint64
	denied      atomic.Uint64
	granted     atomic.Uint64
}

// NewSlotPool creates a pool with the given number of slots. Capacity 0
// is valid: every TryAcquire returns 0 and all work runs inline.
func NewSlotPool(capacity int) *SlotPool {
	if capacity < 0 {
		capacity = 0
	}
	return &SlotPool{capacity: int64(capacity)}
}

// TryAcquire claims up to want slots without blocking and returns how
// many were granted (possibly zero).
func (p *SlotPool) TryAcquire(want int) int {
	if want <= 0 {
		return 0
	}
	p.tryAcquires.Add(1)
	for {
		used := p.used.Load()
		free := p.capacity - used
		if free <= 0 {
			p.denied.Add(1)
			return 0
		}
		n := int64(want)
		if n > free {
			n = free
		}
		if p.used.CompareAndSwap(used, used+n) {
			p.notePeak(used + n)
			p.granted.Add(uint64(n))
			return int(n)
		}
	}
}

// Release returns n slots to the pool.
func (p *SlotPool) Release(n int) {
	if n > 0 {
		p.used.Add(-int64(n))
	}
}

// Capacity returns the total number of slots.
func (p *SlotPool) Capacity() int { return int(p.capacity) }

// InUse returns the number of slots currently held.
func (p *SlotPool) InUse() int { return int(p.used.Load()) }

// PeakInUse returns the high-water mark of held slots since the last
// ResetPeak. Tests assert it stays at or below Capacity, which — with
// one root goroutine driving the work — bounds the process's concurrent
// workers at Capacity+1.
func (p *SlotPool) PeakInUse() int { return int(p.peak.Load()) }

// ResetPeak clears the high-water mark (down to the current usage).
func (p *SlotPool) ResetPeak() { p.peak.Store(p.used.Load()) }

// PoolStats is a snapshot of the pool's capacity and contention
// counters, for the health layer.
type PoolStats struct {
	Capacity int
	InUse    int
	Peak     int
	// TryAcquires counts TryAcquire calls with want > 0; Denied counts
	// those that returned 0 because the pool was drained; GrantedSlots
	// sums the slots handed out.
	TryAcquires  uint64
	Denied       uint64
	GrantedSlots uint64
}

// Stats snapshots the pool (counters are read independently, so a
// snapshot taken mid-fan-out may be momentarily inconsistent — fine for
// health reporting).
func (p *SlotPool) Stats() PoolStats {
	return PoolStats{
		Capacity:     p.Capacity(),
		InUse:        p.InUse(),
		Peak:         p.PeakInUse(),
		TryAcquires:  p.tryAcquires.Load(),
		Denied:       p.denied.Load(),
		GrantedSlots: p.granted.Load(),
	}
}

func (p *SlotPool) notePeak(used int64) {
	for {
		peak := p.peak.Load()
		if used <= peak || p.peak.CompareAndSwap(peak, used) {
			return
		}
	}
}

// sharedPool is the process-wide pool every ForEachShared call draws
// from. Its capacity is GOMAXPROCS-1 (at init): the root goroutine that
// drives the work is itself a worker, so granting up to P-1 extras keeps
// the total at P.
var sharedPool = NewSlotPool(runtime.GOMAXPROCS(0) - 1)

// SharedPool returns the process-wide worker slot pool.
func SharedPool() *SlotPool { return sharedPool }

// Workers resolves a worker-count setting: n > 0 is taken literally, any
// other value selects GOMAXPROCS. Callers that want a hard sequential mode
// pass 1 explicitly.
func Workers(n int) int {
	if n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// ForEachShared invokes fn(i) for every i in [0, n) with at most want
// workers, drawing the extra goroutines from the process-wide SharedPool
// instead of spawning unconditionally. The caller's goroutine always
// participates as one worker; up to want-1 additional workers run while
// slots are available, each returning its slot as it retires. When the
// pool is drained (or want <= 1, or n <= 1) the loop runs inline —
// sequentially — on the caller's goroutine.
//
// Iteration indices are handed out through an atomic counter, so which
// goroutine runs which index is nondeterministic: iterations must be
// mutually independent and write only to index-owned locations. Under
// that contract every schedule is bit-for-bit identical to the sequential
// mode. A panic in fn stops further scheduling and is re-raised on the
// caller's goroutine after in-flight work drains.
func ForEachShared(n, want int, fn func(i int)) {
	if want > n {
		want = n
	}
	extra := 0
	if want > 1 && n > 1 {
		extra = sharedPool.TryAcquire(want - 1)
	}
	if extra == 0 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var (
		next     atomic.Int64
		stop     atomic.Bool
		wg       sync.WaitGroup
		panicMu  sync.Mutex
		panicked any
	)
	work := func() {
		for !stop.Load() {
			i := int(next.Add(1) - 1)
			if i >= n {
				return
			}
			func() {
				defer func() {
					if r := recover(); r != nil {
						stop.Store(true)
						panicMu.Lock()
						if panicked == nil {
							panicked = r
						}
						panicMu.Unlock()
					}
				}()
				fn(i)
			}()
		}
	}
	for w := 0; w < extra; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer sharedPool.Release(1)
			work()
		}()
	}
	work() // the caller is a worker too; it holds no slot
	wg.Wait()
	if panicked != nil {
		panic(panicked)
	}
}
