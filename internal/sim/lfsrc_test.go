package sim

import (
	"math/rand"
	"testing"
)

// TestLFSourceMatchesMathRand pins lfSource to rand.NewSource draw for
// draw: the raw Int63/Uint64 streams and the derived distributions the
// simulation actually consumes (NormFloat64, Float64, Perm) must be
// bit-for-bit identical for positive, negative, zero and equivalent
// seeds. This is the contract that lets RNG.Stream swap sources without
// perturbing any simulation result — and the transcription guard for
// lfCooked.
func TestLFSourceMatchesMathRand(t *testing.T) {
	seeds := []int64{0, 1, -1, 42, -42, 89482311, int32max, int32max + 1,
		-int32max, 1 << 40, -(1 << 40), 997, 104729}
	for _, seed := range seeds {
		ref := rand.NewSource(seed).(rand.Source64)
		got := newLFSource(seed)
		for i := 0; i < 2000; i++ {
			if r, g := ref.Uint64(), got.Uint64(); r != g {
				t.Fatalf("seed %d draw %d: Uint64 %d != stdlib %d", seed, i, g, r)
			}
		}
		if r, g := ref.Int63(), got.Int63(); r != g {
			t.Fatalf("seed %d: Int63 %d != stdlib %d", seed, g, r)
		}
	}

	// The derived streams (what AR1, schedulers and placement actually
	// draw) through *rand.Rand.
	for _, seed := range seeds {
		ref := rand.New(rand.NewSource(seed))
		got := rand.New(newLFSource(seed))
		for i := 0; i < 500; i++ {
			if r, g := ref.NormFloat64(), got.NormFloat64(); r != g {
				t.Fatalf("seed %d draw %d: NormFloat64 %v != stdlib %v", seed, i, g, r)
			}
			if r, g := ref.Float64(), got.Float64(); r != g {
				t.Fatalf("seed %d draw %d: Float64 %v != stdlib %v", seed, i, g, r)
			}
		}
		rp, gp := ref.Perm(17), got.Perm(17)
		for i := range rp {
			if rp[i] != gp[i] {
				t.Fatalf("seed %d: Perm %v != stdlib %v", seed, gp, rp)
			}
		}
	}
}

// TestLFSourceCacheHitIdentical verifies the cached-seed path: the second
// source for a seed (served by vector copy) produces the same stream as
// the first (which computed the vector), and re-Seeding matches a fresh
// stdlib source.
func TestLFSourceCacheHitIdentical(t *testing.T) {
	const seed = 31337
	a := newLFSource(seed) // computes and populates the cache
	b := newLFSource(seed) // copies from the cache
	for i := 0; i < 1000; i++ {
		if x, y := a.Uint64(), b.Uint64(); x != y {
			t.Fatalf("draw %d: cache-hit source diverged: %d != %d", i, y, x)
		}
	}
	a.Seed(7)
	ref := rand.NewSource(7).(rand.Source64)
	for i := 0; i < 1000; i++ {
		if r, g := ref.Uint64(), a.Uint64(); r != g {
			t.Fatalf("draw %d after re-Seed: %d != stdlib %d", i, g, r)
		}
	}
}

// TestLFSourceLazySeedMatchesMathRand pins the deferred seeding: a source
// that is re-Seeded before its first draw, or drawn only through
// rand.New's wrapper after sitting unused, produces rand.NewSource's
// stream for the last seed it was given.
func TestLFSourceLazySeedMatchesMathRand(t *testing.T) {
	for _, seed := range []int64{0, 5, -5, 1 << 40} {
		src := newLFSource(seed + 1)
		if src.vec != nil {
			t.Fatal("newLFSource seeded its vector before the first draw")
		}
		src.Seed(seed)
		ref := rand.NewSource(seed).(rand.Source64)
		for i := 0; i < 1000; i++ {
			if r, g := ref.Uint64(), src.Uint64(); r != g {
				t.Fatalf("seed %d draw %d after Seed before first draw: %d != stdlib %d", seed, i, g, r)
			}
		}

		got := rand.New(newLFSource(seed))
		want := rand.New(rand.NewSource(seed))
		for i := 0; i < 500; i++ {
			if r, g := want.NormFloat64(), got.NormFloat64(); r != g {
				t.Fatalf("seed %d draw %d: NormFloat64 %v != stdlib %v", seed, i, g, r)
			}
		}
	}
}

// TestLFSourceSeedingAllocations counts the state vectors the first draw
// allocates: one when the seed is cached (the source's own copy), two on
// a miss while the cache has room (the source's vector and the cache's
// copy), and one on a miss once the cache is full — the freshly seeded
// vector is the source's own, not a throwaway. It runs against a cache
// and an empty free list of its own, so earlier tests and runs can
// neither have seeded its sources nor hand them recycled vectors.
func TestLFSourceSeedingAllocations(t *testing.T) {
	isolateFreeList(t)
	lfSeedCache.Lock()
	saved := lfSeedCache.m
	lfSeedCache.m = nil
	lfSeedCache.Unlock()
	t.Cleanup(func() {
		lfSeedCache.Lock()
		lfSeedCache.m = saved
		lfSeedCache.Unlock()
	})

	const runs = 20
	next := int64(1) << 50
	fresh := func(n int) []*lfSource {
		srcs := make([]*lfSource, n)
		for i := range srcs {
			srcs[i] = newLFSource(next)
			next++
		}
		return srcs
	}
	firstDraws := func(srcs []*lfSource) float64 {
		i := 0
		return testing.AllocsPerRun(runs, func() {
			srcs[i].Uint64()
			i++
		})
	}

	if got := firstDraws(fresh(runs + 1)); got != 2 {
		t.Errorf("cache miss with room: %v allocations per first draw, want 2", got)
	}
	hits := make([]*lfSource, runs+1)
	for i := range hits {
		hits[i] = newLFSource(1 << 50)
	}
	if got := firstDraws(hits); got != 1 {
		t.Errorf("cache hit: %v allocations per first draw, want 1", got)
	}

	lfSeedCache.Lock()
	for k := int64(0); len(lfSeedCache.m) < lfSeedCacheCap; k++ {
		lfSeedCache.m[-1-k] = new([lfLen]int64)
	}
	lfSeedCache.Unlock()
	srcs := fresh(runs + 1)
	if got := firstDraws(srcs); got != 1 {
		t.Errorf("cache miss with a full cache: %v allocations per first draw, want 1", got)
	}
	for i, s := range srcs {
		ref := rand.NewSource(s.seed).(rand.Source64)
		ref.Uint64()
		if r, g := ref.Uint64(), s.Uint64(); r != g {
			t.Fatalf("source %d seeded past a full cache: draw %d != stdlib %d", i, g, r)
		}
	}
}
