package cpu

import (
	"math"
	"reflect"
	"testing"
	"testing/quick"
)

const tick = 0.1

func TestUncontendedFullGrant(t *testing.T) {
	s := New(Config{Cores: 4, FreqHz: 2e9})
	g := s.Allocate(tick, []Request{
		{ClientID: "a", Seconds: 0.15, VCPUs: 2},
		{ClientID: "b", Seconds: 0.1, VCPUs: 2},
	})
	if g[0].Seconds != 0.15 || g[1].Seconds != 0.1 {
		t.Errorf("grants = %+v", g)
	}
}

func TestVCPUClamp(t *testing.T) {
	s := New(Config{Cores: 48, FreqHz: 2e9})
	// 2 vcpus can consume at most 0.2 core-seconds in a 0.1 s tick.
	g := s.Allocate(tick, []Request{{ClientID: "a", Seconds: 1, VCPUs: 2}})
	if math.Abs(g[0].Seconds-0.2) > 1e-12 {
		t.Errorf("grant = %v, want 0.2", g[0].Seconds)
	}
}

func TestHardCapClamp(t *testing.T) {
	s := New(Config{Cores: 48, FreqHz: 2e9})
	// Cap of 0.5 cores -> 0.05 core-seconds per tick, tighter than vcpus.
	g := s.Allocate(tick, []Request{{ClientID: "a", Seconds: 1, VCPUs: 2, CapCores: 0.5}})
	if math.Abs(g[0].Seconds-0.05) > 1e-12 {
		t.Errorf("grant = %v, want 0.05", g[0].Seconds)
	}
}

func TestOversubscriptionFairShare(t *testing.T) {
	s := New(Config{Cores: 2, FreqHz: 2e9})
	g := s.Allocate(tick, []Request{
		{ClientID: "a", Seconds: 0.2, VCPUs: 2},
		{ClientID: "b", Seconds: 0.2, VCPUs: 2},
		{ClientID: "small", Seconds: 0.02, VCPUs: 2},
	})
	// Capacity 0.2; small gets its 0.02, hogs split the remaining 0.18.
	if math.Abs(g[2].Seconds-0.02) > 1e-12 {
		t.Errorf("small grant = %v, want full 0.02", g[2].Seconds)
	}
	if math.Abs(g[0].Seconds-0.09) > 1e-12 || math.Abs(g[1].Seconds-0.09) > 1e-12 {
		t.Errorf("hog grants = %v, %v, want 0.09 each", g[0].Seconds, g[1].Seconds)
	}
}

func TestZeroVCPUsMeansNoClamp(t *testing.T) {
	s := New(Config{Cores: 48, FreqHz: 2e9})
	g := s.Allocate(tick, []Request{{ClientID: "a", Seconds: 0.7}})
	if g[0].Seconds != 0.7 {
		t.Errorf("grant = %v, want 0.7 (no vcpu clamp when 0)", g[0].Seconds)
	}
}

func TestEmptyRequests(t *testing.T) {
	s := New(DefaultConfig())
	if g := s.Allocate(tick, nil); len(g) != 0 {
		t.Errorf("grants = %v", g)
	}
}

func TestPanics(t *testing.T) {
	cases := []func(){
		func() { New(Config{Cores: 0, FreqHz: 1}) },
		func() { New(Config{Cores: 1, FreqHz: 0}) },
		func() { New(DefaultConfig()).Allocate(0, nil) },
		func() { New(DefaultConfig()).Allocate(tick, []Request{{ClientID: "a", Seconds: -1}}) },
	}
	for i, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: want panic", i)
				}
			}()
			fn()
		}()
	}
}

// Property: grants never exceed demand, vcpu bound, cap bound, or total
// capacity.
func TestPropertyBounds(t *testing.T) {
	s := New(Config{Cores: 8, FreqHz: 2e9})
	f := func(dem []uint8, caps []uint8) bool {
		if len(dem) == 0 {
			return true
		}
		if len(dem) > 16 {
			dem = dem[:16]
		}
		reqs := make([]Request, len(dem))
		for i, d := range dem {
			var cap float64
			if i < len(caps) {
				cap = float64(caps[i]%4) / 2 // 0, 0.5, 1, 1.5 cores
			}
			reqs[i] = Request{ClientID: string(rune('a' + i)), Seconds: float64(d) / 100, VCPUs: 2, CapCores: cap}
		}
		grants := s.Allocate(tick, reqs)
		var tot float64
		for i, g := range grants {
			if g.Seconds > reqs[i].Seconds+1e-9 {
				return false
			}
			if g.Seconds > 2*tick+1e-9 {
				return false
			}
			if reqs[i].CapCores > 0 && g.Seconds > reqs[i].CapCores*tick+1e-9 {
				return false
			}
			tot += g.Seconds
		}
		return tot <= 8*tick+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: fair share is symmetric — equal requests get equal grants.
func TestPropertySymmetry(t *testing.T) {
	s := New(Config{Cores: 1, FreqHz: 2e9})
	f := func(d uint8, n uint8) bool {
		count := int(n%6) + 2
		reqs := make([]Request, count)
		for i := range reqs {
			reqs[i] = Request{ClientID: string(rune('a' + i)), Seconds: float64(d) / 50, VCPUs: 4}
		}
		g := s.Allocate(tick, reqs)
		for i := 1; i < count; i++ {
			if math.Abs(g[i].Seconds-g[0].Seconds) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestReusedSchedulerMatchesFresh: the scheduler carries nothing but
// scratch from one solve to the next, so one scheduler solving a tick
// sequence — repeats, a demand change, a cap change, a quiescent
// stretch — grants exactly what a fresh scheduler grants for each tick.
func TestReusedSchedulerMatchesFresh(t *testing.T) {
	reqs := []Request{
		{ClientID: "a", Seconds: 0.4, VCPUs: 4},
		{ClientID: "b", Seconds: 1.2, VCPUs: 8},
		{ClientID: "c", Seconds: 0.9, VCPUs: 2, CapCores: 1},
	}
	reused := New(Config{Cores: 2, FreqHz: 2e9})
	check := func(step string) {
		t.Helper()
		got := append([]Grant(nil), reused.Allocate(tick, reqs)...)
		want := New(Config{Cores: 2, FreqHz: 2e9}).Allocate(tick, reqs)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: reused scheduler granted %v, a fresh one %v", step, got, want)
		}
	}
	for i := 0; i < 3; i++ {
		check("steady")
	}
	reqs[1].Seconds = 2.5
	check("demand change")
	reqs[2].CapCores = 0.5
	check("cap change")
	for i := range reqs {
		reqs[i].Seconds = 0
	}
	check("quiescent")
	check("quiescent repeat")
}

// TestOverloadedSolveAllocatesNothing: a solve over more demand than the
// host has cores — the max-min fair path, which sorts the clients by
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
		dst = s.AllocateInto(dst[:0], 0.1, reqs)
	})
	if total := dst[0].Seconds + dst[1].Seconds + dst[2].Seconds + dst[3].Seconds; total < 4.8-1e-9 || dst[0].Seconds >= 2.4 {
		t.Fatalf("grants %+v do not share 4.8 core-seconds fairly; the solve was not overloaded", dst)
	}
	if allocs != 0 {
		t.Errorf("overloaded solve allocated %v times, want 0", allocs)
	}
}
