// Package sim provides the discrete-time simulation engine underlying the
// PerfCloud testbed reproduction. Time advances in fixed ticks; each tick
// every registered Tickable is stepped in registration order, which keeps
// runs deterministic for a given seed. Wall-clock time plays no role: a
// 152-node, multi-minute experiment executes in milliseconds.
//
// The engine intentionally stays minimal — entities pull randomness from
// per-component seeded streams (see RNG) so that adding a new component
// never perturbs the random sequence observed by existing ones, a
// requirement for the regression tests that pin experiment outcomes.
package sim

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"
)

// DefaultTick is the default simulated duration of one tick.
const DefaultTick = 100 * time.Millisecond

// Tickable is implemented by every simulated component that needs to act
// each tick. Tick receives the simulation clock so components can read
// both the tick index and the simulated elapsed time.
type Tickable interface {
	Tick(c *Clock)
}

// TickFunc adapts a plain function to the Tickable interface.
type TickFunc func(c *Clock)

// Tick calls f(c).
func (f TickFunc) Tick(c *Clock) { f(c) }

// Clock tracks simulated time. The zero value is not usable; create one
// through an Engine.
type Clock struct {
	tick     int64
	tickSize time.Duration
}

// Tick returns the number of completed ticks.
func (c *Clock) Tick() int64 { return c.tick }

// TickSize returns the simulated duration of one tick.
func (c *Clock) TickSize() time.Duration { return c.tickSize }

// Now returns the simulated elapsed time.
func (c *Clock) Now() time.Duration { return time.Duration(c.tick) * c.tickSize }

// Seconds returns the simulated elapsed time in seconds.
func (c *Clock) Seconds() float64 { return c.Now().Seconds() }

// TickSeconds returns the duration of one tick in seconds.
func (c *Clock) TickSeconds() float64 { return c.tickSize.Seconds() }

// Engine owns the clock and the ordered set of Tickables.
type Engine struct {
	clock   Clock
	order   []entry
	nextID  int
	stopped bool
	dirty   bool // order needs re-sorting before the next Step
	rng     *RNG
}

type entry struct {
	id       int
	priority int
	t        Tickable
}

// NewEngine creates an engine with the given tick size and master seed.
// A tickSize <= 0 selects DefaultTick.
func NewEngine(tickSize time.Duration, seed int64) *Engine {
	if tickSize <= 0 {
		tickSize = DefaultTick
	}
	return &Engine{
		clock: Clock{tickSize: tickSize},
		rng:   NewRNG(seed),
	}
}

// Clock returns the engine's clock.
func (e *Engine) Clock() *Clock { return &e.clock }

// RNG returns the engine's root random stream factory.
func (e *Engine) RNG() *RNG { return e.rng }

// Register adds a Tickable at priority 0. Components registered at equal
// priority run in registration order.
func (e *Engine) Register(t Tickable) { e.RegisterPriority(t, 0) }

// RegisterPriority adds a Tickable with an explicit priority; lower
// priorities run earlier within a tick. The cluster registers resource
// models at priority -1 (grant resources), frameworks at 0 (consume them),
// and controllers such as the PerfCloud node manager at +1 (observe the
// finished tick).
func (e *Engine) RegisterPriority(t Tickable, priority int) {
	// Appending keeps registration O(1); the sort is deferred to the next
	// Step so bulk registration (hundreds of components in the large-scale
	// testbeds) costs one sort total instead of one per registration.
	e.order = append(e.order, entry{id: e.nextID, priority: priority, t: t})
	e.nextID++
	if n := len(e.order); n > 1 && e.order[n-2].priority > priority {
		e.dirty = true
	}
}

// ensureOrder sorts pending registrations into priority order. Sorting by
// (priority, id) is equivalent to a stable sort on priority, so components
// at equal priority keep registration order.
func (e *Engine) ensureOrder() {
	if !e.dirty {
		return
	}
	sort.Slice(e.order, func(i, j int) bool {
		if e.order[i].priority != e.order[j].priority {
			return e.order[i].priority < e.order[j].priority
		}
		return e.order[i].id < e.order[j].id
	})
	e.dirty = false
}

// Step advances the simulation by exactly one tick.
func (e *Engine) Step() {
	e.ensureOrder()
	for _, en := range e.order {
		en.t.Tick(&e.clock)
	}
	e.clock.tick++
}

// Run advances the simulation by n ticks, or until Stop is called.
func (e *Engine) Run(n int64) {
	e.stopped = false
	for i := int64(0); i < n && !e.stopped; i++ {
		e.Step()
	}
}

// RunFor advances the simulation by the given simulated duration
// (rounded down to whole ticks), or until Stop is called.
func (e *Engine) RunFor(d time.Duration) {
	e.Run(int64(d / e.clock.tickSize))
}

// RunUntil steps the simulation until the predicate returns true or the
// simulated-time limit is reached. It reports whether the predicate fired.
func (e *Engine) RunUntil(pred func() bool, limit time.Duration) bool {
	maxTicks := int64(limit / e.clock.tickSize)
	for i := int64(0); i < maxTicks; i++ {
		if pred() {
			return true
		}
		e.Step()
	}
	return pred()
}

// Stop requests that a Run in progress end after the current tick.
func (e *Engine) Stop() { e.stopped = true }

// RNG hands out independent, deterministically seeded random streams. Each
// named component derives its stream from the master seed and its name, so
// streams are stable across code changes elsewhere in the simulation.
//
// A factory owns the state vectors its streams load on their first draw.
// Release hands them back for later factories to reuse; a draw from any of
// its streams after that panics with the ReleasedStream message.
type RNG struct {
	seed int64

	mu       sync.Mutex
	loaded   *Source // the streams that have drawn, latest first, linked through nextLoaded
	released bool
}

// ReleasedStream is the panic message of a draw from a stream whose
// factory has been released.
const ReleasedStream = "sim: draw from a stream of a released RNG"

// NewRNG creates a stream factory from a master seed.
func NewRNG(seed int64) *RNG { return &RNG{seed: seed} }

// Seed returns the master seed.
func (r *RNG) Seed() int64 { return r.seed }

// Stream returns a dedicated *rand.Rand for the named component.
// The same (seed, name) pair always yields the same sequence.
//
// The source is a Source — bit-for-bit rand.NewSource's generator, with
// the expensive state seeding served from a per-seed cache and deferred
// to the first draw. Repeated-run experiments build a fresh testbed (and
// so re-derive every component stream) per repetition, and compare
// schemes under identical seeds; the cache turns all but the first
// derivation of each (seed, name) stream into a memcpy, and the free list
// that Release feeds supplies the vector it is copied into. The stream
// belongs to r: it is valid until r.Release.
func (r *RNG) Stream(name string) *rand.Rand {
	return r.Seeded(r.seed ^ hashString(name))
}

// Seeded returns a stream identical to rand.New(rand.NewSource(seed)),
// owned by r like a Stream: its state vector is recycled by r.Release.
// It is how a testbed routes streams with their own derived seeds (DFS
// placement, antagonist placement) through its engine's factory.
func (r *RNG) Seeded(seed int64) *rand.Rand { return rand.New(r.source(seed)) }

// Sourcef returns the concrete source under the *rand.Rand that Stream
// would return for the name fmt.Sprintf(format, args...): the same seed,
// the same sequence and the same owner. The AR(1) noise of the resource
// models draws from it directly (see AR1).
func (r *RNG) Sourcef(format string, args ...any) *Source {
	return r.source(r.seed ^ hashString(fmt.Sprintf(format, args...)))
}

// source returns a source for seed owned by r.
func (r *RNG) source(seed int64) *Source {
	s := NewSource(seed)
	s.owner = r
	return s
}

// register records a loading stream so Release can recycle its vector,
// or panics if r has already been released.
func (r *RNG) register(s *Source) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.released {
		panic(ReleasedStream)
	}
	s.nextLoaded = r.loaded
	r.loaded = s
}

// Release ends the life of every stream r has handed out and returns the
// state vectors of those that drew to the shared free list, where the
// next factory's streams pick them up instead of allocating. Call it once
// nothing will draw from r again: any later draw from one of its streams
// panics with ReleasedStream rather than read a vector that may already
// belong to another stream. Release may be called more than once.
func (r *RNG) Release() {
	r.mu.Lock()
	loaded := r.loaded
	r.loaded = nil
	r.released = true
	r.mu.Unlock()
	recycle(loaded)
}

// StreamSeeded reports whether the state of the named stream has been
// derived in this process — whether any stream for this (seed, name) pair
// has drawn a number yet. Streams seed lazily on their first draw, so a
// component that never draws never pays for its stream; this is how
// tests check that. It reads the process-wide seed cache, so it also
// reports false for a drawn stream once the cache is full.
func (r *RNG) StreamSeeded(name string) bool {
	lfSeedCache.RLock()
	defer lfSeedCache.RUnlock()
	return lfSeedCache.m[r.seed^hashString(name)] != nil
}

// NewSeededRand returns a *rand.Rand identical to
// rand.New(rand.NewSource(seed)), with the seeding served from the
// shared per-seed state cache. Experiment drivers that build one RNG per
// repetition from a small set of derived seeds should prefer this over
// rand.NewSource.
func NewSeededRand(seed int64) *rand.Rand { return rand.New(NewSource(seed)) }

// hashString is FNV-1a over the bytes of s, folded to int64.
func hashString(s string) int64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	var h uint64 = offset64
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime64
	}
	return int64(h)
}
