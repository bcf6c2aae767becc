package sim

import "sync"

// Source reimplements Go's math/rand additive lagged-Fibonacci source
// (Mitchell & Reeds; rng.go in the standard library) so that seeding can
// be served from a cache and deferred until first use, and so that the
// AR(1) draw kernel (normal.go) can step the recurrence inline instead of
// through the rand.Source interface. rand.NewSource
// spends ~2500 LCG steps filling its 607-word state vector, and the
// experiment drivers create dozens of deterministic streams per testbed —
// with repeated runs reusing the same (seed, name) pairs across schemes,
// re-deriving the identical vector over and over. Source computes the
// post-seed vector once per distinct seed and copies it on every reuse (a
// 5 KB memcpy instead of the LCG chain).
//
// Seeding is lazy: a source records its seed and fills its state vector
// on the first draw. rand.New draws nothing, so a stream that is never
// drawn from — the disk and memory-system streams of a server whose VMs
// stay idle — costs neither the seeding nor the 5 KB vector.
//
// The Go 1 compatibility promise freezes rand.NewSource's sequences, and
// TestLFSourceMatchesMathRand pins this implementation to them draw for
// draw, so the swap is invisible to every consumer: the exact bits of
// every simulation stream are unchanged.
const (
	lfLen    = 607
	lfTap    = 273
	lfMask   = 1<<63 - 1
	int32max = 1<<31 - 1
)

type Source struct {
	tap  int
	feed int
	seed int64
	vec  *[lfLen]int64 // nil until the first draw seeds it, and again once released
	// owner is the factory that recycles vec when it is released; nil
	// for NewSeededRand's unowned streams.
	owner *RNG
}

// lfSeedrand is the Lehmer LCG step x = 16807*x mod 2^31-1 used only
// while seeding, in the overflow-free Schrage form the stdlib uses.
func lfSeedrand(x int32) int32 {
	const (
		A = 48271
		Q = 44488
		R = 3399
	)
	hi := x / Q
	lo := x % Q
	x = A*lo - R*hi
	if x < 0 {
		x += int32max
	}
	return x
}

// seedVec fills vec with the post-Seed state for seed — the LCG warm-up
// and per-word mixing of rngSource.Seed, with the tap/feed cursors left
// to the caller (they are the same constants for every seed).
func seedVec(seed int64, vec *[lfLen]int64) {
	seed %= int32max
	if seed < 0 {
		seed += int32max
	}
	if seed == 0 {
		seed = 89482311
	}
	x := int32(seed)
	for i := -20; i < lfLen; i++ {
		x = lfSeedrand(x)
		if i >= 0 {
			u := int64(x) << 40
			x = lfSeedrand(x)
			u ^= int64(x) << 20
			x = lfSeedrand(x)
			u ^= int64(x)
			u ^= lfCooked[i]
			vec[i] = u
		}
	}
}

// lfSeedCache memoizes post-seed state vectors. Entries are immutable
// once published, so lookups copy from the shared pointer outside the
// lock. The cap bounds worst-case growth (a long sweep over thousands of
// distinct seeds) at ~20 MB; past it, new seeds are computed directly and
// simply not cached.
//
// It also keeps the free list of state vectors that released factories
// handed back (RNG.Release), so the next testbed's streams load into
// recycled vectors instead of allocating their own. load overwrites all
// lfLen words of whatever vector it gets, so a recycled vector's old
// contents never reach a draw. The free list holds at most lfFreeCap
// vectors (~2.5 MB); releases past that are left to the collector.
var lfSeedCache struct {
	sync.RWMutex
	m map[int64]*[lfLen]int64

	freeMu sync.Mutex
	free   []*[lfLen]int64
}

const (
	lfSeedCacheCap = 4096
	lfFreeCap      = 512
)

// takeVec returns a state vector for a loading source: a recycled one
// when the free list has any, else a new one. Its contents are garbage.
func takeVec() *[lfLen]int64 {
	lfSeedCache.freeMu.Lock()
	n := len(lfSeedCache.free)
	if n == 0 {
		lfSeedCache.freeMu.Unlock()
		return new([lfLen]int64)
	}
	v := lfSeedCache.free[n-1]
	lfSeedCache.free[n-1] = nil
	lfSeedCache.free = lfSeedCache.free[:n-1]
	lfSeedCache.freeMu.Unlock()
	return v
}

// recycle detaches the state vectors of released sources and hands them
// to the free list, up to its cap. A detached source's next draw reloads,
// which its released owner turns into a panic.
func recycle(srcs []*Source) {
	lfSeedCache.freeMu.Lock()
	for _, s := range srcs {
		if len(lfSeedCache.free) < lfFreeCap {
			lfSeedCache.free = append(lfSeedCache.free, s.vec)
		}
		s.vec = nil
	}
	lfSeedCache.freeMu.Unlock()
}

// NewSource returns a source equivalent to rand.NewSource(seed), owned by
// no factory. Its state vector is filled on the first draw (see load).
func NewSource(seed int64) *Source {
	return &Source{feed: lfLen - lfTap, seed: seed}
}

// load fills the state vector for the recorded seed: a copy of the cached
// post-seed vector when there is one, else a fresh seeding into the
// source's own vector, copied into the cache only while it has room. The
// vector comes from the free list when it can, and an owned source
// registers with its factory here, so that Release can recycle the
// vector; a source that never draws never registers. A source whose
// factory has been released panics instead: its vector may already be
// serving another stream.
func (s *Source) load() {
	if s.owner != nil {
		s.owner.register(s)
	}
	s.vec = takeVec()
	lfSeedCache.RLock()
	v := lfSeedCache.m[s.seed]
	lfSeedCache.RUnlock()
	if v != nil {
		*s.vec = *v
		return
	}
	seedVec(s.seed, s.vec)
	lfSeedCache.Lock()
	if lfSeedCache.m == nil {
		lfSeedCache.m = make(map[int64]*[lfLen]int64)
	}
	if len(lfSeedCache.m) < lfSeedCacheCap {
		c := *s.vec
		lfSeedCache.m[s.seed] = &c
	}
	lfSeedCache.Unlock()
}

// Seed re-initializes the generator, matching rngSource.Seed. A source
// that has not drawn yet just records the seed.
func (s *Source) Seed(seed int64) {
	s.tap = 0
	s.feed = lfLen - lfTap
	s.seed = seed
	if s.vec != nil {
		seedVec(seed, s.vec)
	}
}

// Int63 returns a non-negative 63-bit integer, matching rngSource.Int63.
func (s *Source) Int63() int64 { return int64(s.Uint64() & lfMask) }

// Uint64 advances the lagged-Fibonacci recurrence one step, matching
// rngSource.Uint64.
func (s *Source) Uint64() uint64 {
	if s.vec == nil {
		s.load()
	}
	s.tap--
	if s.tap < 0 {
		s.tap += lfLen
	}
	s.feed--
	if s.feed < 0 {
		s.feed += lfLen
	}
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return uint64(x)
}
