package sim

import (
	"math"
	"math/rand"
	"slices"
)

// AR1 is a first-order autoregressive (Ornstein-Uhlenbeck-like) noise
// process with zero mean: x' = corr*x + sqrt(1-corr^2)*stddev*N(0,1).
// The resource models use one AR1 per client as a slowly varying "luck"
// factor: a VM that lands behind an antagonist's bursts stays unlucky for
// a correlation time of roughly tick/(1-corr), so per-VM unevenness
// survives the monitor's 5-second averaging window instead of washing out.
type AR1 struct {
	corr  float64 // per-step correlation in [0, 1)
	scale float64 // innovation scale sqrt(1-corr^2)*stddev

	// Per-client state lives in a flat slice indexed through idx, so the
	// per-tick hot path pays one map read per Step instead of a map read
	// plus a map write. Slot order is an internal detail (GC may reorder
	// it); only the per-id values are observable.
	idx  map[string]int32
	vals []float64
	src  *Source
	gen  uint64 // bumped whenever gc compacts (and so reassigns) slots
}

// NewAR1 creates a per-client AR(1) noise source drawing its N(0,1)
// innovations from src, each draw bit for bit what
// rand.New(src).NormFloat64 would return.
func NewAR1(corr, stddev float64, src *Source) *AR1 {
	a := new(AR1)
	a.Rearm(corr, stddev, src)
	return a
}

// Rearm makes a the process NewAR1(corr, stddev, src) would return,
// tracking no client, but keeps the storage of its index map and value
// slice, so a recycled process tracks its first clients without
// allocating.
func (a *AR1) Rearm(corr, stddev float64, src *Source) {
	if corr < 0 || corr >= 1 {
		panic("sim: AR1 corr must be in [0, 1)")
	}
	if stddev < 0 {
		panic("sim: AR1 stddev must be nonnegative")
	}
	idx := a.idx
	if idx == nil {
		idx = make(map[string]int32)
	}
	clear(idx)
	// Go evaluates sqrt(1-corr^2)*stddev*z left to right, so computing
	// the scale once is exact, not approximate.
	*a = AR1{corr: corr, scale: math.Sqrt(1-corr*corr) * stddev, idx: idx, vals: a.vals[:0], src: src}
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

// Step advances the named client's process one step and returns its
// value, resolving the id and drawing through math/rand's own
// NormFloat64. The resource models step through a SlotCache and the
// fused kernel instead; Step is the oracle the slot and kernel tests
// compare them against.
func (a *AR1) Step(id string) float64 {
	i := a.slot(id)
	x := a.corr*a.vals[i] + a.scale*rand.New(a.src).NormFloat64()
	a.vals[i] = x
	return x
}

// stepSlots is the draw kernel: it advances the processes in slots sl, in
// order — or, with pos non-nil, those in slots sl[pos[0]], sl[pos[1]], …
// — leaving each new value in a.vals. Each draw is NormFloat64's, with
// the lagged-Fibonacci step and the ziggurat's fast path written out
// inline, so the common draw is one loop iteration with no call: draw,
// corr*x+scale*z, store. A draw that misses its strip's fast region
// finishes in normSlow. It needs no scratch: callers read the new values
// back through the slots.
func (a *AR1) stepSlots(sl, pos []int32) {
	n := len(sl)
	if pos != nil {
		n = len(pos)
	}
	if n == 0 {
		return
	}
	s := a.src
	if s.vec == nil {
		s.load()
	}
	vec, tap, feed := s.vec, s.tap, s.feed
	corr, scale, vals := a.corr, a.scale, a.vals
	for k := 0; k < n; k++ {
		p := k
		if pos != nil {
			p = int(pos[k])
		}
		i := sl[p]
		tap--
		if tap < 0 {
			tap += lfLen
		}
		feed--
		if feed < 0 {
			feed += lfLen
		}
		u := vec[feed] + vec[tap]
		vec[feed] = u
		j := normWord(uint64(u))
		t := j & 0x7F
		z := float64(j) * float64(wn[t])
		if absInt32(j) >= kn[t] {
			s.tap, s.feed = tap, feed
			z = s.normSlow(j)
			tap, feed = s.tap, s.feed
		}
		vals[i] = corr*vals[i] + scale*z
	}
	s.tap, s.feed = tap, feed
}

// StackBatch is the largest client count whose slots StepBatch, and the
// memory system's active-client lists, keep in stack arrays: more than the
// VMs of any server the simulator builds (planet_scale averages 100).
// Larger batches allocate.
const StackBatch = 128

// StepBatch advances the processes of k clients, the i-th named id(i), n
// steps each, drawing in the same tick-major order (all clients for step
// 1, then all for step 2, ...) that n successive per-id Step loops would
// use, so the underlying random stream lands in the identical position
// and every per-client state is bit-for-bit what n Step calls would have
// produced. Ids are resolved to state slots once regardless of n, so
// replaying a long idle stretch is n passes of the draw kernel; up to
// StackBatch clients it allocates nothing beyond the state of clients
// seen for the first time.
func (a *AR1) StepBatch(n, k int, id func(i int) string) {
	if n <= 0 || k <= 0 {
		return
	}
	var buf [StackBatch]int32
	sl := buf[:0]
	if k > StackBatch {
		sl = make([]int32, 0, k)
	}
	for i := 0; i < k; i++ {
		sl = append(sl, a.slot(id(i)))
	}
	for t := 0; t < n; t++ {
		a.stepSlots(sl, nil)
	}
}

// gc drops state for clients not in keep, bounding memory across VM churn.
// It is a no-op while the state map is still small relative to keep.
func (a *AR1) gc(keep map[string]bool) {
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

// Retain drops the state of every client but the k distinct ids, the
// i-th id(i), once the tracked set outgrows them (see WouldCompact),
// bounding memory across VM churn. It builds the keep set only when it
// compacts, so retaining the clients already tracked — the common case —
// costs one comparison and no allocation.
func (a *AR1) Retain(k int, id func(i int) string) {
	if !a.WouldCompact(k) {
		return
	}
	keep := make(map[string]bool, k)
	for i := 0; i < k; i++ {
		keep[id(i)] = true
	}
	a.gc(keep)
}

// WouldCompact reports whether Retain with n distinct ids would compact
// the tracked set: whether it holds more than 4n+16 clients. Callers use
// it to skip building the id list when Retain would ignore it.
func (a *AR1) WouldCompact(n int) bool { return len(a.idx) > 4*n+16 }

// Len reports the number of tracked clients.
func (a *AR1) Len() int { return len(a.idx) }

// SlotCache binds an ordered client list to its AR(1) slots, so an
// allocator that solves the same clients tick after tick resolves their
// ids when the list changes, not on every draw. A solve calls Bind with
// its clients, steps them by position, and ends with Settle, which runs
// Retain's keep-set GC over them only when it could compact. The zero
// value is ready to use.
type SlotCache struct {
	ids   []string
	slots []int32 // -1 until the client is first stepped under the binding
	gen   uint64  // AR1 generation the slots were resolved under
	n     int     // AR1.Len after the last Settle; -1 when the next Bind must rebind
}

// Bind binds the cache to the k clients id(0) … id(k-1) of a, in order,
// and reports whether it kept its previous binding: the same ids in the
// same order, with a neither compacted nor grown since the last Settle.
// A kept binding keeps its resolved slots, and its Settle skips the GC,
// which then provably cannot compact: the last Settle left at most 4k+16
// clients tracked, and none has been added since.
func (c *SlotCache) Bind(a *AR1, k int, id func(i int) string) bool {
	if len(c.ids) == k && c.gen == a.gen && c.n == len(a.idx) {
		same := true
		for i, x := range c.ids {
			if x != id(i) {
				same = false
				break
			}
		}
		if same {
			return true
		}
	}
	c.ids, c.slots = slices.Grow(c.ids[:0], k), slices.Grow(c.slots[:0], k)
	for i := 0; i < k; i++ {
		c.ids = append(c.ids, id(i))
		c.slots = append(c.slots, -1)
	}
	c.gen, c.n = a.gen, -1
	return false
}

// StepAll advances every bound client's process, in order, exactly as
// a.Step would by id; Value reads the new values. A client's slot is
// resolved on its first step under the binding.
func (c *SlotCache) StepAll(a *AR1) {
	for i, sl := range c.slots {
		if sl < 0 {
			c.slots[i] = a.slot(c.ids[i])
		}
	}
	a.stepSlots(c.slots, nil)
}

// StepAt advances the processes of the bound clients at positions pos, in
// that order, exactly as a.Step would by id; Value reads the new values.
// Clients not named are neither stepped nor, if never stepped before,
// given state.
func (c *SlotCache) StepAt(a *AR1, pos []int32) {
	for _, p := range pos {
		if c.slots[p] < 0 {
			c.slots[p] = a.slot(c.ids[p])
		}
	}
	a.stepSlots(c.slots, pos)
}

// Values returns the bound clients' slots and a's process values: the
// i-th bound client's current value is vals[slots[i]], valid once it has
// been stepped under the binding. A caller reading many values takes the
// two slices once instead of reaching through the cache for each.
func (c *SlotCache) Values(a *AR1) (slots []int32, vals []float64) { return c.slots, a.vals }

// Settle ends a solve over the bound clients with Retain's keep-set GC,
// skipped when neither a rebind nor a first-seen client since the last
// Settle can have made it compact. After a compaction the next Bind
// rebinds, and Revalidate clears the slots.
func (c *SlotCache) Settle(a *AR1) {
	if c.n != len(a.idx) {
		a.Retain(len(c.ids), c.id)
	}
	c.n = len(a.idx)
}

// Revalidate clears the resolved slots if a compacted since they were
// resolved. A replay that steps the bound clients without Bind calls it
// first.
func (c *SlotCache) Revalidate(a *AR1) {
	if c.gen == a.gen {
		return
	}
	for i := range c.slots {
		c.slots[i] = -1
	}
	c.gen = a.gen
}

// Reset unbinds the cache: the next Bind resolves every id afresh and
// the next Settle runs the GC.
func (c *SlotCache) Reset() { c.n = -1 }

// Rearm makes c the zero value, bound to nothing, but keeps the storage
// of its id and slot lists for the next Bind.
func (c *SlotCache) Rearm() {
	clear(c.ids)
	*c = SlotCache{ids: c.ids[:0], slots: c.slots[:0]}
}

func (c *SlotCache) id(i int) string { return c.ids[i] }
