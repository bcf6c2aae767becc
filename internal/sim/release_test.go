package sim

import (
	"math/rand"
	"sync"
	"testing"
)

// isolateFreeList gives the test an empty free list of its own and puts
// the process's back afterwards, so vectors other tests released cannot
// leak into its accounting.
func isolateFreeList(t *testing.T) {
	t.Helper()
	lfSeedCache.freeMu.Lock()
	saved := lfSeedCache.free
	lfSeedCache.free = nil
	lfSeedCache.freeMu.Unlock()
	t.Cleanup(func() {
		lfSeedCache.freeMu.Lock()
		lfSeedCache.free = saved
		lfSeedCache.freeMu.Unlock()
	})
}

// TestRecycledVectorMatchesMathRand fills a stream's state vector with
// garbage, releases it, and has the next factory's stream load into that
// very vector: load must overwrite every word, so 10,000 draws still
// match rand.NewSource — on both the seed-cache miss and hit paths.
func TestRecycledVectorMatchesMathRand(t *testing.T) {
	isolateFreeList(t)
	for _, seed := range []int64{1<<52 + 3, 1<<52 + 3, -77, 0} {
		old := NewRNG(1)
		src := old.Seeded(99)
		src.Int63()
		vec := old.loaded.vec
		for i := range vec {
			vec[i] = int64(i)*0x5851f42d4c957f2d ^ -1
		}
		old.Release()

		r := NewRNG(2)
		got := r.Seeded(seed)
		want := rand.New(rand.NewSource(seed))
		for i := 0; i < 10000; i++ {
			if w, g := want.Int63(), got.Int63(); w != g {
				t.Fatalf("seed %d draw %d: %d from a recycled vector, want %d", seed, i, g, w)
			}
		}
		if r.loaded.vec != vec {
			t.Fatalf("seed %d: the stream did not load into the released vector", seed)
		}
		r.Release()
	}
}

// TestReleaseIdempotent: releasing a factory twice, or one that never
// loaded a stream, is a no-op the second time, and a vector is recycled
// once however often its factory is released.
func TestReleaseIdempotent(t *testing.T) {
	isolateFreeList(t)
	NewRNG(3).Release()
	r := NewRNG(4)
	r.Stream("a").Int63()
	r.Stream("b") // never draws: registers nothing
	r.Release()
	r.Release()
	if n := len(lfSeedCache.free); n != 1 {
		t.Fatalf("free list holds %d vectors after a double release of one loaded stream, want 1", n)
	}
}

// TestDrawAfterReleasePanics: a released factory's streams — drawn
// before or not — panic with ReleasedStream on their next draw, and so do
// streams handed out after the release.
func TestDrawAfterReleasePanics(t *testing.T) {
	isolateFreeList(t)
	r := NewRNG(5)
	drawn := r.Stream("drawn")
	drawn.Float64()
	idle := r.Stream("idle")
	r.Release()
	for name, s := range map[string]*rand.Rand{"drawn": drawn, "idle": idle, "late": r.Seeded(8)} {
		func() {
			defer func() {
				if got := recover(); got != ReleasedStream {
					t.Errorf("%s stream: draw after Release recovered %v, want %q", name, got, ReleasedStream)
				}
			}()
			s.Float64()
		}()
	}
}

// TestFreeListBounded: releases past lfFreeCap vectors are left to the
// collector rather than growing the free list.
func TestFreeListBounded(t *testing.T) {
	isolateFreeList(t)
	r := NewRNG(6)
	for i := 0; i < lfFreeCap+10; i++ {
		r.Seeded(int64(i)).Int63()
	}
	r.Release()
	if n := len(lfSeedCache.free); n != lfFreeCap {
		t.Fatalf("free list holds %d vectors, want the cap %d", n, lfFreeCap)
	}
	// A stream loading from a stocked free list takes a vector without
	// allocating one, and registers with its factory without allocating
	// either.
	next := NewRNG(7)
	srcs := []*rand.Rand{next.Seeded(1), next.Seeded(2), next.Seeded(3)}
	i := 0
	if a := testing.AllocsPerRun(2, func() { srcs[i].Int63(); i++ }); a != 0 {
		t.Fatalf("first draw from a stocked free list allocated %v times, want 0", a)
	}
}

// TestReleaseConcurrent builds, draws from and releases factories on
// several goroutines at once, as parallel experiment repetitions do:
// the shared free list hands each vector to one stream at a time, so
// every stream still matches rand.NewSource.
func TestReleaseConcurrent(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for rep := 0; rep < 20; rep++ {
				r := NewRNG(int64(g))
				var got []*rand.Rand
				for k := 0; k < 8; k++ {
					got = append(got, r.Seeded(int64(1000*g+k)))
				}
				for k, s := range got {
					want := rand.New(rand.NewSource(int64(1000*g + k)))
					for i := 0; i < 200; i++ {
						if w, v := want.Int63(), s.Int63(); w != v {
							t.Errorf("goroutine %d rep %d stream %d draw %d: %d, want %d", g, rep, k, i, v, w)
							return
						}
					}
				}
				r.Release()
			}
		}(g)
	}
	wg.Wait()
}
