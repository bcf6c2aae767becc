package disk

import (
	"fmt"
	"reflect"
	"testing"

	"perfcloud/internal/sim"
)

// replayer drives one disk the way a server does: the first tick of a
// request vector is a full solve into a grant buffer, and, with replay
// set, every repeat of it is a steady replay of that buffer. Without
// replay every tick resets the client slots and solves in full, as the
// reference cluster does, so the two arms of a test are twins that must
// record identical grants, WaitMs included: WaitMs depends on each tick's
// per-client AR(1) draw, so a replay that took a different draw, or
// stepped a stale slot, shows up as a divergence.
type replayer struct {
	d      *Disk
	replay bool
	buf    []Grant
	out    [][]Grant
}

// solve records a tick whose request vector changed.
func (r *replayer) solve(reqs []Request) {
	if !r.replay {
		r.d.ResetSlots()
	}
	r.buf = r.d.AllocateInto(r.buf[:0], tick, reqs)
	r.out = append(r.out, append([]Grant(nil), r.buf...))
}

// repeat records a tick that repeats the last solved request vector.
func (r *replayer) repeat(reqs []Request) {
	if !r.replay {
		r.solve(reqs)
		return
	}
	r.d.ReplaySteadyInPlace(r.buf)
	r.out = append(r.out, append([]Grant(nil), r.buf...))
}

// replayTickSeq drives steady busy ticks, a demand change, a throttle-cap
// change and a quiescent stretch.
func replayTickSeq(replay bool) [][]Grant {
	r := &replayer{d: New(DefaultConfig(), sim.NewSource(21)), replay: replay}
	reqs := []Request{
		{ClientID: "seq", Ops: 40, Bytes: 40 * (256 << 10)},
		{ClientID: "rand", Ops: 800, Bytes: 800 * 4096},
		{ClientID: "idle"},
	}
	phase := func(n int) {
		r.solve(reqs)
		for i := 1; i < n; i++ {
			r.repeat(reqs)
		}
	}
	phase(6)
	reqs[1].Ops = 600
	reqs[1].Bytes = 600 * 4096
	phase(4)
	reqs[1].CapIOPS = 2000
	phase(4)
	reqs[0] = Request{ClientID: "seq"}
	reqs[1] = Request{ClientID: "rand"}
	phase(3)
	return r.out
}

func TestMemoizationMatchesFullAllocate(t *testing.T) {
	replayed, full := replayTickSeq(true), replayTickSeq(false)
	if !reflect.DeepEqual(replayed, full) {
		t.Fatalf("steady replays diverge from full solves:\nreplay: %v\nfull:   %v", replayed, full)
	}
}

func TestSteadyPathRefreshesWaitMs(t *testing.T) {
	d := New(DefaultConfig(), sim.NewSource(22))
	reqs := []Request{{ClientID: "rand", Ops: 800, Bytes: 800 * 4096}}
	first := d.Allocate(tick, reqs)
	second := append([]Grant(nil), first...)
	d.ReplaySteadyInPlace(second)
	if first[0].Ops != second[0].Ops || first[0].Bytes != second[0].Bytes {
		t.Fatalf("steady replay changed the solved shares: %v vs %v", first, second)
	}
	if first[0].WaitMs == second[0].WaitMs {
		t.Fatal("steady replay reused WaitMs; the luck draw is per-tick state and must be fresh")
	}
}

// TestMemoHitAfterCompaction covers a steady replay whose resolved AR(1)
// slots went stale: after a replay steps through the slots, AdvanceIdle's
// keep-set GC compacts the state slice, so the next replay must
// re-resolve them (the client it dropped restarts from zero state, as a
// full solve's Step would restart it).
func TestMemoHitAfterCompaction(t *testing.T) {
	run := func(replay bool) [][]Grant {
		r := &replayer{d: New(DefaultConfig(), sim.NewSource(31)), replay: replay}
		var crowd []Request
		for i := 0; i < 22; i++ {
			crowd = append(crowd, Request{ClientID: fmt.Sprintf("vm-%02d", i), Ops: 20, Bytes: 20 * 4096})
		}
		pair := []Request{crowd[20], {ClientID: "vm-21", Ops: 800, Bytes: 800 * 4096}}
		r.solve(crowd) // tracks 22 clients
		r.solve(pair)  // 22 clients do not exceed the pair's GC bound
		r.repeat(pair) // steps through the solve's slots
		r.d.AdvanceIdle(1, 1, func(int) string { return "vm-21" })
		r.repeat(pair) // replay after the compaction
		r.repeat(pair)
		return r.out
	}
	replayed, full := run(true), run(false)
	if !reflect.DeepEqual(replayed, full) {
		t.Fatalf("steady replays after a compaction diverge from full solves:\nreplay: %v\nfull:   %v", replayed, full)
	}
}

// TestOverloadedSolveAllocatesNothing: a full solve of more device time
// than the tick holds — the max-min fair path, which sorts the clients by
// demand — allocates nothing once the disk's buffers and the clients'
// jitter state have grown.
func TestOverloadedSolveAllocatesNothing(t *testing.T) {
	d := New(DefaultConfig(), sim.NewSource(3))
	reqs := []Request{
		{ClientID: "seq", Ops: 40, Bytes: 40 * (256 << 10)},
		{ClientID: "rand", Ops: 800, Bytes: 800 * 4096},
		{ClientID: "rand2", Ops: 800, Bytes: 800 * 4096},
	}
	var dst []Grant
	allocs := testing.AllocsPerRun(20, func() {
		d.ResetSlots()
		dst = d.AllocateInto(dst[:0], tick, reqs)
	})
	if d.Utilization() <= 1 {
		t.Fatalf("utilization %v, want an overloaded device", d.Utilization())
	}
	if allocs != 0 {
		t.Errorf("overloaded solve allocated %v times, want 0", allocs)
	}
}
