package disk

import (
	"testing"
)

// TestAdvanceIdleMatchesQuiescentAllocates is the bit-for-bit contract of
// the idle fast-forward: replaying n all-idle ticks through AdvanceIdle
// must leave the device's seeded random stream and per-client luck state
// exactly where n quiescent Allocate calls would, so the first busy tick
// after a skipped idle stretch grants identically. The skip count is
// large (10^6) on purpose — the batched replay must stay a tight loop,
// not an O(n) re-run of the allocation pipeline.
func TestAdvanceIdleMatchesQuiescentAllocates(t *testing.T) {
	ids := []string{"vm-a", "vm-b", "vm-c"}
	idle := make([]Request, len(ids))
	for i, id := range ids {
		idle[i] = Request{ClientID: id}
	}
	busy := []Request{seqReq("vm-a", 40), seqReq("vm-b", 25), fioReq(800)}
	// fioReq's client is "fio"; keep the busy set inside the idle client
	// population so the jitter states being compared are the replayed ones.
	busy[2].ClientID = "vm-c"

	ref := newTestDisk()
	fast := newTestDisk()
	// Warm both devices with one busy tick so the comparison covers
	// non-zero luck state, not just fresh processes.
	ref.Allocate(tick, busy)
	fast.Allocate(tick, busy)

	const n = 1_000_000
	for i := 0; i < n; i++ {
		ref.Allocate(tick, idle)
	}
	fast.AdvanceIdle(n, len(ids), func(i int) string { return ids[i] })

	gRef := ref.Allocate(tick, busy)
	gFast := fast.Allocate(tick, busy)
	if len(gRef) != len(gFast) {
		t.Fatalf("grant counts differ: %d vs %d", len(gRef), len(gFast))
	}
	for i := range gRef {
		if gRef[i] != gFast[i] {
			t.Errorf("grant %d differs after idle stretch:\nper-tick: %+v\nbatched:  %+v", i, gRef[i], gFast[i])
		}
	}
}

// TestAdvanceIdleZeroAllocs pins the O(skipped)-with-zero-allocations
// property: once the per-client slots exist, fast-forwarding even a
// planet-scale idle stretch allocates nothing.
func TestAdvanceIdleZeroAllocs(t *testing.T) {
	d := newTestDisk()
	ids := []string{"vm-a", "vm-b", "vm-c"}
	id := func(i int) string { return ids[i] }
	d.AdvanceIdle(1, len(ids), id) // resolve slots
	if allocs := testing.AllocsPerRun(1, func() {
		d.AdvanceIdle(1_000_000, len(ids), id)
	}); allocs != 0 {
		t.Errorf("AdvanceIdle allocated %v times per run, want 0", allocs)
	}
}
