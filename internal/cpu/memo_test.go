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
