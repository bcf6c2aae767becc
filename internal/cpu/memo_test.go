package cpu

import (
	"reflect"
	"testing"
)

// memoTickSeq is a tick sequence that exercises the memo: repeated inputs
// (hit), a changed demand (miss), repeats of the change (hit again), a
// changed cap (miss), and a quiescent stretch (hit on the zero vector).
// With full set the memo is invalidated before every tick, so each tick
// runs the full solve, as in the reference cluster.
func memoTickSeq(s *Scheduler, full bool) [][]Grant {
	reqs := []Request{
		{ClientID: "a", Seconds: 0.4, VCPUs: 4},
		{ClientID: "b", Seconds: 1.2, VCPUs: 8},
		{ClientID: "c", Seconds: 0.9, VCPUs: 2, CapCores: 1},
	}
	var out [][]Grant
	record := func() {
		if full {
			s.InvalidateMemo()
		}
		out = append(out, append([]Grant(nil), s.Allocate(0.1, reqs)...))
	}
	for i := 0; i < 5; i++ {
		record()
	}
	reqs[1].Seconds = 2.5
	for i := 0; i < 3; i++ {
		record()
	}
	reqs[2].CapCores = 0.5
	record()
	for i := range reqs {
		reqs[i].Seconds = 0
	}
	for i := 0; i < 3; i++ {
		record()
	}
	return out
}

func TestMemoizationMatchesFullSolve(t *testing.T) {
	memo := memoTickSeq(New(DefaultConfig()), false)
	full := memoTickSeq(New(DefaultConfig()), true)

	if !reflect.DeepEqual(memo, full) {
		t.Fatalf("memoized grants diverge from full solve:\nmemo: %v\nfull: %v", memo, full)
	}
}

func TestMemoHitReturnsCachedGrants(t *testing.T) {
	s := New(DefaultConfig())
	reqs := []Request{{ClientID: "a", Seconds: 0.5, VCPUs: 4}}
	first := s.Allocate(0.1, reqs)
	if !s.memoValid {
		t.Fatal("memo not armed after a full solve")
	}
	// Poison the solver scratch; a memo hit must not touch it.
	s.clamped = append(s.clamped[:0], 999)
	second := s.Allocate(0.1, reqs)
	if !reflect.DeepEqual(first, second) {
		t.Fatalf("steady tick changed grants: %v vs %v", first, second)
	}
	if len(s.clamped) != 1 || s.clamped[0] != 999 {
		t.Fatal("memo hit re-ran the solve")
	}
}

// TestOverloadedSolveAllocatesNothing: a full solve over more demand than
// the host has cores — the max-min fair path, which sorts the clients by
// demand — allocates nothing once the scheduler's buffers have grown.
func TestOverloadedSolveAllocatesNothing(t *testing.T) {
	s := New(DefaultConfig())
	reqs := []Request{
		{ClientID: "a", Seconds: 2.4, VCPUs: 24},
		{ClientID: "b", Seconds: 1.6, VCPUs: 16},
		{ClientID: "c", Seconds: 1.6, VCPUs: 16},
		{ClientID: "d", Seconds: 0.3, VCPUs: 4},
	}
	var dst []Grant
	allocs := testing.AllocsPerRun(20, func() {
		s.InvalidateMemo()
		dst = s.AllocateInto(dst[:0], 0.1, reqs)
	})
	if _, misses := s.MemoStats(); misses < 20 {
		t.Fatalf("%d full solves, want every run to solve", misses)
	}
	if total := dst[0].Seconds + dst[1].Seconds + dst[2].Seconds + dst[3].Seconds; total < 4.8-1e-9 || dst[0].Seconds >= 2.4 {
		t.Fatalf("grants %+v do not share 4.8 core-seconds fairly; the solve was not overloaded", dst)
	}
	if allocs != 0 {
		t.Errorf("overloaded solve allocated %v times, want 0", allocs)
	}
}
