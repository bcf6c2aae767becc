package memsys

import (
	"testing"
	"testing/quick"

	"perfcloud/internal/sim"
	"perfcloud/internal/stats"
)

const tick = 0.1

func newSys() *System {
	return New(DefaultConfig(), sim.NewSource(1))
}

// sparkReq models one Spark worker VM: 2 vcpus busy, memory-hungry.
func sparkReq(id string) Request {
	return Request{
		ClientID:        id,
		CPUSeconds:      0.2,
		CoreCPI:         0.8,
		LLCRefsPerInstr: 0.04,
		BytesPerInstr:   0.8,
		WorkingSetBytes: 400 << 20,
	}
}

// streamReq models a STREAM antagonist VM: saturating memory traffic.
func streamReq(id string) Request {
	return Request{
		ClientID:        id,
		CPUSeconds:      0.2,
		CoreCPI:         0.7,
		LLCRefsPerInstr: 0.15,
		BytesPerInstr:   8,
		WorkingSetBytes: 16 << 30,
	}
}

func TestIdleClientZeroResult(t *testing.T) {
	s := newSys()
	res := s.Compute(tick, []Request{{ClientID: "idle"}})
	r := res[0]
	if r.Instructions != 0 || r.Cycles != 0 || r.CPI != 0 || r.LLCMisses != 0 {
		t.Errorf("idle result = %+v", r)
	}
}

func TestCPIAtLeastCoreCPI(t *testing.T) {
	s := newSys()
	res := s.Compute(tick, []Request{sparkReq("a")})
	if res[0].CPI < 0.8 {
		t.Errorf("CPI = %v below core CPI", res[0].CPI)
	}
	if res[0].Instructions <= 0 || res[0].Cycles <= 0 {
		t.Errorf("result = %+v", res[0])
	}
}

func TestCyclesEqualGrantedCPUTimesFreq(t *testing.T) {
	s := newSys()
	res := s.Compute(tick, []Request{sparkReq("a")})
	want := 0.2 * DefaultConfig().FreqHz
	if res[0].Cycles != want {
		t.Errorf("cycles = %v, want %v", res[0].Cycles, want)
	}
	// Instructions * CPI == cycles (self-consistency of the counters).
	if got := res[0].Instructions * res[0].CPI; got < want*0.999 || got > want*1.001 {
		t.Errorf("instr*CPI = %v, want %v", got, want)
	}
}

func TestStreamSaturatesBandwidth(t *testing.T) {
	s := newSys()
	reqs := []Request{streamReq("s1"), streamReq("s2")}
	for i := 0; i < 10; i++ {
		reqs = append(reqs, sparkReq(string(rune('a'+i))))
	}
	s.Compute(tick, reqs)
	if s.Pressure() <= 1 {
		t.Errorf("pressure = %v, want > 1 with two STREAMs plus Spark", s.Pressure())
	}
}

func TestContentionInflatesVictimCPI(t *testing.T) {
	meanCPI := func(withStream bool) float64 {
		s := New(DefaultConfig(), sim.NewSource(2))
		var acc float64
		n := 0
		for i := 0; i < 100; i++ {
			reqs := []Request{}
			for k := 0; k < 10; k++ {
				reqs = append(reqs, sparkReq(string(rune('a'+k))))
			}
			if withStream {
				reqs = append(reqs, streamReq("s1"), streamReq("s2"))
			}
			res := s.Compute(tick, reqs)
			for k := 0; k < 10; k++ {
				acc += res[k].CPI
				n++
			}
		}
		return acc / float64(n)
	}
	alone := meanCPI(false)
	contended := meanCPI(true)
	if contended < alone*1.3 {
		t.Errorf("victim CPI alone=%v contended=%v, want >= 1.3x inflation", alone, contended)
	}
}

// The core detection property: CPI std-dev across a scale-out app's VMs
// stays well below the paper's threshold of 1 when running alone, and
// exceeds it under STREAM colocations, surviving 5-second averaging.
func TestCPISpreadDetectable(t *testing.T) {
	spread := func(withStream bool) float64 {
		s := New(DefaultConfig(), sim.NewSource(3))
		var sds []float64
		for w := 0; w < 20; w++ { // 20 windows of 50 ticks = 5 s each
			cycles := make([]float64, 10)
			instr := make([]float64, 10)
			for i := 0; i < 50; i++ {
				reqs := []Request{}
				for k := 0; k < 10; k++ {
					reqs = append(reqs, sparkReq(string(rune('a'+k))))
				}
				if withStream {
					reqs = append(reqs, streamReq("s1"), streamReq("s2"))
				}
				res := s.Compute(tick, reqs)
				for k := 0; k < 10; k++ {
					cycles[k] += res[k].Cycles
					instr[k] += res[k].Instructions
				}
			}
			cpis := make([]float64, 10)
			for k := range cpis {
				cpis[k] = cycles[k] / instr[k]
			}
			sds = append(sds, stats.StdDev(cpis))
		}
		return stats.Mean(sds)
	}
	alone := spread(false)
	contended := spread(true)
	if alone > 0.5 {
		t.Errorf("alone CPI spread = %v, want well under threshold 1", alone)
	}
	if contended < 1.0 {
		t.Errorf("contended CPI spread = %v, want above threshold 1", contended)
	}
}

func TestStreamHasHighMissRateAndMisses(t *testing.T) {
	s := newSys()
	res := s.Compute(tick, []Request{
		streamReq("stream"),
		{ClientID: "sysbench-cpu", CPUSeconds: 0.2, CoreCPI: 0.6,
			LLCRefsPerInstr: 0.001, BytesPerInstr: 0.01, WorkingSetBytes: 1 << 20},
	})
	if res[0].MissRate < 0.9 {
		t.Errorf("STREAM miss rate = %v, want ~1", res[0].MissRate)
	}
	if res[1].MissRate > 0.5 {
		t.Errorf("sysbench-cpu miss rate = %v, want low", res[1].MissRate)
	}
	if res[0].LLCMisses < 100*res[1].LLCMisses {
		t.Errorf("STREAM misses %v should dwarf sysbench-cpu misses %v", res[0].LLCMisses, res[1].LLCMisses)
	}
}

func TestCPUCapReducesPressure(t *testing.T) {
	s := newSys()
	full := []Request{streamReq("s1"), streamReq("s2")}
	s.Compute(tick, full)
	pFull := s.Pressure()
	capped := []Request{streamReq("s1"), streamReq("s2")}
	capped[0].CPUSeconds = 0.04 // hard cap to 20% of 2 vcpus
	capped[1].CPUSeconds = 0.04
	s.Compute(tick, capped)
	pCapped := s.Pressure()
	if pCapped > pFull/2 {
		t.Errorf("pressure full=%v capped=%v, want capped <= half", pFull, pCapped)
	}
}

func TestMissRateFunction(t *testing.T) {
	if got := missRate(0, 1<<20); got != 0.02 {
		t.Errorf("zero working set miss rate = %v", got)
	}
	if got := missRate(1<<20, 2<<20); got != 0.02 {
		t.Errorf("fitting working set miss rate = %v", got)
	}
	big := missRate(1<<30, 1<<20)
	if big < 0.9 {
		t.Errorf("streaming working set miss rate = %v, want ~1", big)
	}
	mid := missRate(2<<20, 1<<20)
	if mid <= 0.02 || mid >= big {
		t.Errorf("mid miss rate = %v, want between cold and streaming", mid)
	}
}

func TestPanics(t *testing.T) {
	cases := []func(){
		func() { New(Config{LLCBytes: 0, BandwidthCapacity: 1, FreqHz: 1}, sim.NewSource(1)) },
		func() { newSys().Compute(0, nil) },
		func() { newSys().Compute(tick, []Request{{ClientID: "x", CPUSeconds: -1}}) },
		func() { newSys().Compute(tick, []Request{{ClientID: "x", CPUSeconds: 1, CoreCPI: 0}}) },
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

// Property: counters are internally consistent and nonnegative for
// arbitrary loads: misses <= refs, instr*CPI ~= cycles.
func TestPropertyCounterConsistency(t *testing.T) {
	s := New(DefaultConfig(), sim.NewSource(11))
	f := func(cpuPct, refsPct, wsMB []uint8) bool {
		n := len(cpuPct)
		if n == 0 {
			return true
		}
		if n > 10 {
			n = 10
		}
		reqs := make([]Request, n)
		for i := 0; i < n; i++ {
			refs := 0.001
			if i < len(refsPct) {
				refs = float64(refsPct[i]%20) / 100
			}
			ws := float64(1 << 20)
			if i < len(wsMB) {
				ws = float64(int(wsMB[i])+1) * (1 << 20)
			}
			reqs[i] = Request{
				ClientID:        string(rune('a' + i)),
				CPUSeconds:      float64(cpuPct[i]%20) / 100,
				CoreCPI:         0.8,
				LLCRefsPerInstr: refs,
				BytesPerInstr:   1,
				WorkingSetBytes: ws,
			}
		}
		for _, r := range s.Compute(tick, reqs) {
			if r.LLCMisses < 0 || r.LLCRefs < 0 || r.Instructions < 0 {
				return false
			}
			if r.LLCMisses > r.LLCRefs+1e-9 {
				return false
			}
			if r.Instructions > 0 {
				cyc := r.Instructions * r.CPI
				if cyc < r.Cycles*0.999 || cyc > r.Cycles*1.001 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
