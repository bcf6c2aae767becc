package memsys

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// memoTickSeq drives one system through uncongested steady ticks (memo
// hits), an input change, a congested stretch (hits replay the
// draw-dependent arithmetic), and a quiescent stretch, recording every
// result. The post-change ticks double as a jitter-stream-position
// check: if the memoized path consumed a different number of draws,
// every later luck factor diverges. With full set the memo is
// invalidated before every tick, so each tick runs the full solve, as in
// the reference cluster.
func memoTickSeq(s *System, full bool) [][]Result {
	reqs := []Request{
		{ClientID: "a", CPUSeconds: 0.1, CoreCPI: 1.0, LLCRefsPerInstr: 0.01, BytesPerInstr: 0.5, WorkingSetBytes: 8 << 20},
		{ClientID: "b", CPUSeconds: 0.2, CoreCPI: 0.8, LLCRefsPerInstr: 0.05, BytesPerInstr: 1.0, WorkingSetBytes: 64 << 20},
		{ClientID: "idle", CPUSeconds: 0},
	}
	var out [][]Result
	record := func() {
		if full {
			s.InvalidateMemo()
		}
		out = append(out, append([]Result(nil), s.Compute(0.1, reqs)...))
	}
	for i := 0; i < 6; i++ {
		record()
	}
	reqs[0].CPUSeconds = 0.15
	for i := 0; i < 4; i++ {
		record()
	}
	// Saturate bandwidth: pressure > 1 makes results luck-dependent, so
	// a memo hit must recompute them from this tick's draws.
	reqs[1].BytesPerInstr = 50
	reqs[1].CPUSeconds = 0.8
	for i := 0; i < 4; i++ {
		record()
	}
	// Back below saturation, then fully quiescent.
	reqs[1].BytesPerInstr = 1.0
	for i := 0; i < 3; i++ {
		record()
	}
	for i := range reqs {
		reqs[i].CPUSeconds = 0
	}
	for i := 0; i < 3; i++ {
		record()
	}
	return out
}

func TestMemoizationMatchesFullCompute(t *testing.T) {
	memo := memoTickSeq(New(DefaultConfig(), rand.New(rand.NewSource(11))), false)
	full := memoTickSeq(New(DefaultConfig(), rand.New(rand.NewSource(11))), true)

	if !reflect.DeepEqual(memo, full) {
		t.Fatalf("memoized results diverge from full compute:\nmemo: %v\nfull: %v", memo, full)
	}
}

func TestMemoDeclinesUnderCongestion(t *testing.T) {
	s := New(DefaultConfig(), rand.New(rand.NewSource(12)))
	reqs := []Request{
		{ClientID: "hog", CPUSeconds: 0.8, CoreCPI: 0.7, LLCRefsPerInstr: 0.15, BytesPerInstr: 50, WorkingSetBytes: 16 << 30},
	}
	first := s.Compute(0.1, reqs)
	if s.Pressure() <= 1 {
		t.Fatalf("want congestion, pressure = %v", s.Pressure())
	}
	second := s.Compute(0.1, reqs)
	if first[0].CPI == second[0].CPI {
		t.Fatal("congested repeat tick returned identical CPI: memo served a luck-dependent result")
	}
}

// TestMemoHitAfterCompaction covers a memo hit whose cached AR(1) slots
// went stale: after a hit resolves the slots, Retain compacts the state
// slice, so the next hit must re-resolve them (the client it dropped
// restarts from zero state, as a full solve's Step would restart it).
// The pair congests the memory bus, so every result depends on its
// client's draw. The twin invalidates the memo before every call.
func TestMemoHitAfterCompaction(t *testing.T) {
	run := func(full bool) [][]Result {
		s := New(DefaultConfig(), rand.New(rand.NewSource(13)))
		var crowd []Request
		for i := 0; i < 22; i++ {
			crowd = append(crowd, Request{ClientID: fmt.Sprintf("vm-%02d", i),
				CPUSeconds: 0.05, CoreCPI: 1.0, LLCRefsPerInstr: 0.01, BytesPerInstr: 0.5, WorkingSetBytes: 8 << 20})
		}
		hog := Request{CPUSeconds: 0.8, CoreCPI: 0.7, LLCRefsPerInstr: 0.15, BytesPerInstr: 50, WorkingSetBytes: 16 << 30}
		pair := []Request{hog, hog}
		pair[0].ClientID, pair[1].ClientID = "vm-20", "vm-21"
		var out [][]Result
		call := func(reqs []Request) {
			if full {
				s.InvalidateMemo()
			}
			out = append(out, append([]Result(nil), s.Compute(0.1, reqs)...))
		}
		call(crowd) // tracks 22 clients
		call(pair)  // solve: 22 clients do not exceed the pair's GC bound
		call(pair)  // hit: resolves the memo's slots
		s.Retain([]string{"vm-21"})
		call(pair) // hit after the compaction
		call(pair)
		return out
	}
	memo, full := run(false), run(true)
	if !reflect.DeepEqual(memo, full) {
		t.Fatalf("memo hits after a compaction diverge from full solves:\nmemo: %v\nfull: %v", memo, full)
	}
}
