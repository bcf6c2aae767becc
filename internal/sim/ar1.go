package sim

import (
	"math"
	"math/rand"
)

// AR1 is a first-order autoregressive (Ornstein-Uhlenbeck-like) noise
// process with zero mean: x' = corr*x + sqrt(1-corr^2)*stddev*N(0,1).
// The resource models use one AR1 per client as a slowly varying "luck"
// factor: a VM that lands behind an antagonist's bursts stays unlucky for
// a correlation time of roughly tick/(1-corr), so per-VM unevenness
// survives the monitor's 5-second averaging window instead of washing out.
type AR1 struct {
	Corr   float64 // per-step correlation in [0, 1)
	StdDev float64 // stationary standard deviation

	// Per-client state lives in a flat slice indexed through idx, so the
	// per-tick hot path pays one map read per Step instead of a map read
	// plus a map write. Slot order is an internal detail (GC may reorder
	// it); only the per-id values are observable.
	idx  map[string]int32
	vals []float64
	rng  *rand.Rand
	gen  uint64 // bumped whenever GC compacts (and so reassigns) slots

	// Cached innovation scale sqrt(1-corr^2)*stddev, recomputed whenever
	// the (exported, in principle mutable) parameters change.
	scale              float64
	scaleCorr, scaleSD float64
	scaleOK            bool
}

// NewAR1 creates a per-client AR(1) noise source.
func NewAR1(corr, stddev float64, rng *rand.Rand) *AR1 {
	if corr < 0 || corr >= 1 {
		panic("sim: AR1 corr must be in [0, 1)")
	}
	if stddev < 0 {
		panic("sim: AR1 stddev must be nonnegative")
	}
	return &AR1{Corr: corr, StdDev: stddev, idx: make(map[string]int32), rng: rng}
}

// scaleFactor returns sqrt(1-corr^2)*stddev without paying the square
// root per step. The product associates exactly as Step's historical
// inline expression sqrt(1-c^2)*stddev*z: Go evaluates that left to
// right, so hoisting the left pair is exact, not approximate.
func (a *AR1) scaleFactor() float64 {
	if !a.scaleOK || a.Corr != a.scaleCorr || a.StdDev != a.scaleSD {
		a.scaleCorr, a.scaleSD = a.Corr, a.StdDev
		a.scale = math.Sqrt(1-a.Corr*a.Corr) * a.StdDev
		a.scaleOK = true
	}
	return a.scale
}

// slot resolves the client's index, allocating a zero-state slot for a
// client seen for the first time.
func (a *AR1) slot(id string) int32 {
	i, ok := a.idx[id]
	if !ok {
		i = int32(len(a.vals))
		a.idx[id] = i
		a.vals = append(a.vals, 0)
	}
	return i
}

// Step advances the named client's process one step and returns its value.
func (a *AR1) Step(id string) float64 {
	i := a.slot(id)
	next := a.Corr*a.vals[i] + a.scaleFactor()*a.rng.NormFloat64()
	a.vals[i] = next
	return next
}

// Slot is a resolved handle to one client's state, valid until the next
// GC compaction (watch Gen). Steady-state replay paths resolve each
// client once and then step by handle, skipping the per-draw map lookup.
type Slot int32

// Gen returns the slot-layout generation: Slot handles resolved under one
// generation are invalid once Gen moves (GC compacted the state slice).
func (a *AR1) Gen() uint64 { return a.gen }

// Slot resolves the client's handle, allocating zero state for a client
// seen for the first time (exactly as Step would).
func (a *AR1) Slot(id string) Slot { return Slot(a.slot(id)) }

// StepSlot is Step through a resolved handle: the identical arithmetic on
// the identical state, minus the map lookup.
func (a *AR1) StepSlot(sl Slot) float64 {
	next := a.Corr*a.vals[sl] + a.scaleFactor()*a.rng.NormFloat64()
	a.vals[sl] = next
	return next
}

// stackBatch is the largest StepBatch that resolves its slots into a
// stack array: more than the VMs of any server the simulator builds
// (planet_scale averages 100).
const stackBatch = 128

// StepBatch advances the processes of k clients, the i-th named id(i), n
// steps each, drawing in the same tick-major order (all clients for step
// 1, then all for step 2, ...) that n successive per-id Step loops would
// use, so the underlying random stream lands in the identical position
// and every per-client state is bit-for-bit what n Step calls would have
// produced. Ids are resolved to state slots once regardless of n, so
// replaying a long idle stretch is a single tight loop; up to stackBatch
// clients it allocates nothing beyond the state of clients seen for the
// first time.
func (a *AR1) StepBatch(n, k int, id func(i int) string) {
	if n <= 0 || k <= 0 {
		return
	}
	scale := a.scaleFactor()
	var buf [stackBatch]int32
	sl := buf[:0]
	if k > stackBatch {
		sl = make([]int32, 0, k)
	}
	for i := 0; i < k; i++ {
		sl = append(sl, a.slot(id(i)))
	}
	for t := 0; t < n; t++ {
		for _, i := range sl {
			a.vals[i] = a.Corr*a.vals[i] + scale*a.rng.NormFloat64()
		}
	}
}

// GC drops state for clients not in keep, bounding memory across VM churn.
// It is a no-op while the state map is still small relative to keep.
func (a *AR1) GC(keep map[string]bool) {
	if len(a.idx) <= 4*len(keep)+16 {
		return
	}
	for id := range a.idx {
		if !keep[id] {
			delete(a.idx, id)
		}
	}
	// Compact the state slice around the survivors. The new slot order
	// follows map iteration — arbitrary, but unobservable: clients keep
	// their values, and draws are ordered by the callers, not the slots.
	vals := make([]float64, 0, len(a.idx))
	for id, i := range a.idx {
		a.idx[id] = int32(len(vals))
		vals = append(vals, a.vals[i])
	}
	a.vals = vals
	a.gen++
}

// Retain is GC with the keep set given as k distinct ids, the i-th
// id(i). It builds the set only when GC would compact, so retaining the
// clients already tracked — the common case — costs one comparison and
// no allocation.
func (a *AR1) Retain(k int, id func(i int) string) {
	if !a.WouldCompact(k) {
		return
	}
	keep := make(map[string]bool, k)
	for i := 0; i < k; i++ {
		keep[id(i)] = true
	}
	a.GC(keep)
}

// WouldCompact reports whether Retain with n distinct ids would compact
// the tracked set: whether it holds more than 4n+16 clients. Callers use
// it to skip building the id list when Retain would ignore it.
func (a *AR1) WouldCompact(n int) bool { return len(a.idx) > 4*n+16 }

// Len reports the number of tracked clients (for tests).
func (a *AR1) Len() int { return len(a.idx) }
