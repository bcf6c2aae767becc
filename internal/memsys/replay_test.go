package memsys

import (
	"fmt"
	"reflect"
	"testing"

	"perfcloud/internal/sim"
)

// replayer drives one system the way a server does: the first tick of a
// request vector is a full solve into a result buffer, and, with replay
// set, every repeat of it is a steady replay of that buffer. Without
// replay every tick resets the client slots and solves in full, as the
// reference cluster does, so the two arms of a test are twins that must
// record identical results: under congestion every result depends on its
// client's AR(1) draw, and any difference in the draws a replay takes
// shifts every later luck factor.
type replayer struct {
	s      *System
	replay bool
	buf    []Result
	out    [][]Result
}

// solve records a tick whose request vector changed.
func (r *replayer) solve(reqs []Request) {
	if !r.replay {
		r.s.ResetSlots()
	}
	r.buf = r.s.ComputeInto(r.buf[:0], tick, reqs)
	r.out = append(r.out, append([]Result(nil), r.buf...))
}

// repeat records a tick that repeats the last solved request vector.
func (r *replayer) repeat(reqs []Request) {
	if !r.replay {
		r.solve(reqs)
		return
	}
	r.s.ReplaySteadyInPlace(r.buf)
	r.out = append(r.out, append([]Result(nil), r.buf...))
}

// replayTickSeq drives uncongested steady ticks, an input change, a
// congested stretch (replays re-evaluate the draw-dependent arithmetic),
// and a quiescent stretch.
func replayTickSeq(replay bool) [][]Result {
	r := &replayer{s: New(DefaultConfig(), sim.NewSource(11)), replay: replay}
	reqs := []Request{
		{ClientID: "a", CPUSeconds: 0.1, CoreCPI: 1.0, LLCRefsPerInstr: 0.01, BytesPerInstr: 0.5, WorkingSetBytes: 8 << 20},
		{ClientID: "b", CPUSeconds: 0.2, CoreCPI: 0.8, LLCRefsPerInstr: 0.05, BytesPerInstr: 1.0, WorkingSetBytes: 64 << 20},
		{ClientID: "idle", CPUSeconds: 0},
	}
	phase := func(n int) {
		r.solve(reqs)
		for i := 1; i < n; i++ {
			r.repeat(reqs)
		}
	}
	phase(6)
	reqs[0].CPUSeconds = 0.15
	phase(4)
	// Saturate bandwidth: pressure > 1 makes results luck-dependent, so
	// a replay must recompute them from this tick's draws.
	reqs[1].BytesPerInstr = 50
	reqs[1].CPUSeconds = 0.8
	phase(4)
	// Back below saturation, then fully quiescent.
	reqs[1].BytesPerInstr = 1.0
	phase(3)
	for i := range reqs {
		reqs[i].CPUSeconds = 0
	}
	phase(3)
	return r.out
}

func TestMemoizationMatchesFullCompute(t *testing.T) {
	replayed, full := replayTickSeq(true), replayTickSeq(false)
	if !reflect.DeepEqual(replayed, full) {
		t.Fatalf("steady replays diverge from full solves:\nreplay: %v\nfull:   %v", replayed, full)
	}
}

// TestMemoDeclinesUnderCongestion: a congested replay does not keep the
// solved CPI, which depends on the tick's luck draw.
func TestMemoDeclinesUnderCongestion(t *testing.T) {
	s := New(DefaultConfig(), sim.NewSource(12))
	reqs := []Request{
		{ClientID: "hog", CPUSeconds: 0.8, CoreCPI: 0.7, LLCRefsPerInstr: 0.15, BytesPerInstr: 50, WorkingSetBytes: 16 << 30},
	}
	first := s.Compute(tick, reqs)
	if s.Pressure() <= 1 {
		t.Fatalf("want congestion, pressure = %v", s.Pressure())
	}
	second := append([]Result(nil), first...)
	s.ReplaySteadyInPlace(second)
	if first[0].CPI == second[0].CPI {
		t.Fatal("congested replay kept the solved CPI: a luck-dependent result was reused")
	}
}

// TestMemoHitAfterCompaction covers a steady replay whose resolved AR(1)
// slots went stale: after a replay steps through the slots, Retain
// compacts the state slice, so the next replay must re-resolve them (the
// client it dropped restarts from zero state, as a full solve's Step
// would restart it). The pair congests the memory bus, so every result
// depends on its client's draw.
func TestMemoHitAfterCompaction(t *testing.T) {
	run := func(replay bool) [][]Result {
		r := &replayer{s: New(DefaultConfig(), sim.NewSource(13)), replay: replay}
		var crowd []Request
		for i := 0; i < 22; i++ {
			crowd = append(crowd, Request{ClientID: fmt.Sprintf("vm-%02d", i),
				CPUSeconds: 0.05, CoreCPI: 1.0, LLCRefsPerInstr: 0.01, BytesPerInstr: 0.5, WorkingSetBytes: 8 << 20})
		}
		hog := Request{CPUSeconds: 0.8, CoreCPI: 0.7, LLCRefsPerInstr: 0.15, BytesPerInstr: 50, WorkingSetBytes: 16 << 30}
		pair := []Request{hog, hog}
		pair[0].ClientID, pair[1].ClientID = "vm-20", "vm-21"
		r.solve(crowd) // tracks 22 clients
		r.solve(pair)  // 22 clients do not exceed the pair's GC bound
		r.repeat(pair) // steps through the solve's slots
		r.s.Retain(1, func(int) string { return "vm-21" })
		r.repeat(pair) // replay after the compaction
		r.repeat(pair)
		return r.out
	}
	replayed, full := run(true), run(false)
	if !reflect.DeepEqual(replayed, full) {
		t.Fatalf("steady replays after a compaction diverge from full solves:\nreplay: %v\nfull:   %v", replayed, full)
	}
}
