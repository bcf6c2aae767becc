package disk

import (
	"fmt"
	"reflect"
	"testing"

	"perfcloud/internal/sim"
)

// memoTickSeq drives one disk through steady busy ticks (steady-path
// hits), a demand change, a throttle-cap change, and a quiescent stretch,
// recording every grant including WaitMs. WaitMs depends on the
// per-client AR(1) draw of each tick, so any difference in how many draws
// the steady path consumes shows up as a divergence here.
// With full set the memo is invalidated before every tick, so each tick
// runs the full solve, as in the reference cluster.
func memoTickSeq(d *Disk, full bool) [][]Grant {
	reqs := []Request{
		{ClientID: "seq", Ops: 40, Bytes: 40 * (256 << 10)},
		{ClientID: "rand", Ops: 800, Bytes: 800 * 4096},
		{ClientID: "idle"},
	}
	var out [][]Grant
	record := func() {
		if full {
			d.InvalidateMemo()
		}
		out = append(out, append([]Grant(nil), d.Allocate(0.1, reqs)...))
	}
	for i := 0; i < 6; i++ {
		record()
	}
	reqs[1].Ops = 600
	reqs[1].Bytes = 600 * 4096
	for i := 0; i < 4; i++ {
		record()
	}
	reqs[1].CapIOPS = 2000
	for i := 0; i < 4; i++ {
		record()
	}
	reqs[0] = Request{ClientID: "seq"}
	reqs[1] = Request{ClientID: "rand"}
	for i := 0; i < 3; i++ {
		record()
	}
	return out
}

func TestMemoizationMatchesFullAllocate(t *testing.T) {
	memo := memoTickSeq(New(DefaultConfig(), sim.NewSource(21)), false)
	full := memoTickSeq(New(DefaultConfig(), sim.NewSource(21)), true)

	if !reflect.DeepEqual(memo, full) {
		t.Fatalf("steady-path grants diverge from full solve:\nmemo: %v\nfull: %v", memo, full)
	}
}

func TestSteadyPathRefreshesWaitMs(t *testing.T) {
	d := New(DefaultConfig(), sim.NewSource(22))
	reqs := []Request{{ClientID: "rand", Ops: 800, Bytes: 800 * 4096}}
	first := d.Allocate(0.1, reqs)
	second := d.Allocate(0.1, reqs)
	if first[0].Ops != second[0].Ops || first[0].Bytes != second[0].Bytes {
		t.Fatalf("steady tick changed the solved shares: %v vs %v", first, second)
	}
	if first[0].WaitMs == second[0].WaitMs {
		t.Fatal("steady tick reused WaitMs; the luck draw is per-tick state and must be fresh")
	}
}

// TestMemoHitAfterCompaction covers a memo hit whose cached AR(1) slots
// went stale: after a hit resolves the slots, AdvanceIdle's keep-set GC
// compacts the state slice, so the next hit must re-resolve them (the
// client it dropped restarts from zero state, as a full solve's Step
// would restart it). The twin invalidates the memo before every call.
func TestMemoHitAfterCompaction(t *testing.T) {
	run := func(full bool) [][]Grant {
		d := New(DefaultConfig(), sim.NewSource(31))
		var crowd []Request
		for i := 0; i < 22; i++ {
			crowd = append(crowd, Request{ClientID: fmt.Sprintf("vm-%02d", i), Ops: 20, Bytes: 20 * 4096})
		}
		pair := []Request{crowd[20], {ClientID: "vm-21", Ops: 800, Bytes: 800 * 4096}}
		var out [][]Grant
		call := func(reqs []Request) {
			if full {
				d.InvalidateMemo()
			}
			out = append(out, append([]Grant(nil), d.Allocate(tick, reqs)...))
		}
		call(crowd) // tracks 22 clients
		call(pair)  // solve: 22 clients do not exceed the pair's GC bound
		call(pair)  // hit: resolves the memo's slots
		d.AdvanceIdle(1, 1, func(int) string { return "vm-21" })
		call(pair) // hit after the compaction
		call(pair)
		return out
	}
	memo, full := run(false), run(true)
	if !reflect.DeepEqual(memo, full) {
		t.Fatalf("memo hits after a compaction diverge from full solves:\nmemo: %v\nfull: %v", memo, full)
	}
}
