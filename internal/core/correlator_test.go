package core

import (
	"math"
	"testing"
)

// record feeds the correlator n intervals where the victim deviation and
// each suspect's activity follow the given generator functions.
func record(c *Correlator, n int, dev func(i int) float64, suspects map[string]func(i int) (io, llc float64)) {
	ids := make([]string, 0, len(suspects))
	for id := range suspects {
		ids = append(ids, id)
	}
	for i := 0; i < n; i++ {
		vms := make(map[string]VMSample, len(suspects))
		for id, gen := range suspects {
			io, llc := gen(i)
			vms[id] = VMSample{IOThroughputBps: io, LLCMissRate: llc}
		}
		det := Detection{IowaitDev: dev(i), CPIDev: dev(i)}
		c.Record(float64(i*5), det, MakeSample(float64(i*5), vms), ids)
	}
}

func TestIdentifiesBurstyIOAntagonist(t *testing.T) {
	c := NewCorrelator(6, 0.8)
	// fio bursts on even intervals; the victim's deviation tracks it.
	// oltp is constant; cpu does no I/O at all.
	burst := func(i int) float64 {
		if i%2 == 0 {
			return 1
		}
		return 0
	}
	record(c, 8, func(i int) float64 { return 40*burst(i) + 2 },
		map[string]func(int) (float64, float64){
			"fio":  func(i int) (float64, float64) { return 3e7 * burst(i), math.NaN() },
			"oltp": func(i int) (float64, float64) { return 6e6, 1e5 },
			"cpu":  func(i int) (float64, float64) { return 0, 1e4 },
		})
	ants := c.IOAntagonists()
	if len(ants) != 1 || ants[0] != "fio" {
		t.Errorf("IO antagonists = %v, want [fio]; correlations: %+v", ants, c.Correlations())
	}
}

func TestIdentifiesLLCAntagonistWithMissingAsZero(t *testing.T) {
	c := NewCorrelator(6, 0.8)
	burst := func(i int) float64 {
		if i%3 != 0 {
			return 1
		}
		return 0
	}
	// STREAM's LLC miss rate is missing (NaN) while idle — the paper's
	// missing-as-zero rule must still find the correlation.
	record(c, 9, func(i int) float64 { return 2*burst(i) + 0.2 },
		map[string]func(int) (float64, float64){
			"stream": func(i int) (float64, float64) {
				if burst(i) == 1 {
					return 0, 1e8
				}
				return 0, math.NaN()
			},
			"cpu": func(i int) (float64, float64) { return 0, 1e4 },
		})
	ants := c.CPUAntagonists()
	if len(ants) != 1 || ants[0] != "stream" {
		t.Errorf("CPU antagonists = %v; correlations: %+v", ants, c.Correlations())
	}
}

func TestNoAntagonistsBeforeWindowFills(t *testing.T) {
	c := NewCorrelator(6, 0.8)
	record(c, 3, func(i int) float64 { return float64(i) },
		map[string]func(int) (float64, float64){
			"x": func(i int) (float64, float64) { return float64(i), float64(i) },
		})
	if got := c.Correlations(); got != nil {
		t.Errorf("correlations with short history = %v", got)
	}
	if c.IOAntagonists() != nil || c.CPUAntagonists() != nil {
		t.Error("no antagonists should be identified before the window fills")
	}
}

func TestSmallWindowIdentifiesQuickly(t *testing.T) {
	// The paper identifies an antagonist with as few as three samples.
	c := NewCorrelator(3, 0.8)
	record(c, 3, func(i int) float64 { return []float64{30, 2, 45}[i] },
		map[string]func(int) (float64, float64){
			"fio": func(i int) (float64, float64) { return []float64{2.8e7, 1e5, 3.2e7}[i], math.NaN() },
		})
	if ants := c.IOAntagonists(); len(ants) != 1 || ants[0] != "fio" {
		t.Errorf("antagonists after 3 samples = %v", ants)
	}
}

func TestLateArrivingSuspectBackfilled(t *testing.T) {
	c := NewCorrelator(4, 0.8)
	// Two intervals without the suspect, then it appears and correlates.
	for i := 0; i < 2; i++ {
		c.Record(float64(i*5), Detection{IowaitDev: 1, CPIDev: 0}, MakeSample(float64(i*5), nil), nil)
	}
	for i := 2; i < 8; i++ {
		v := float64(i % 2)
		s := MakeSample(float64(i*5), map[string]VMSample{
			"late": {IOThroughputBps: 1e7 * v, LLCMissRate: math.NaN()},
		})
		c.Record(float64(i*5), Detection{IowaitDev: 30*v + 1}, s, []string{"late"})
	}
	if ants := c.IOAntagonists(); len(ants) != 1 {
		t.Errorf("late suspect not identified: %v (%+v)", ants, c.Correlations())
	}
}

func TestDepartedSuspectDropped(t *testing.T) {
	c := NewCorrelator(3, 0.8)
	record(c, 4, func(i int) float64 { return float64(i % 2) },
		map[string]func(int) (float64, float64){
			"x": func(i int) (float64, float64) { return float64(i % 2), math.NaN() },
		})
	// Now record intervals without x in the suspect list.
	c.Record(100, Detection{}, MakeSample(100, nil), nil)
	if len(c.suspects) != 0 {
		t.Error("departed suspect should be dropped")
	}
}

func TestConstantSuspectNotFlagged(t *testing.T) {
	c := NewCorrelator(5, 0.8)
	record(c, 8, func(i int) float64 { return float64(i % 2 * 50) },
		map[string]func(int) (float64, float64){
			"steady": func(i int) (float64, float64) { return 5e6, 1e5 },
		})
	if ants := c.IOAntagonists(); len(ants) != 0 {
		t.Errorf("constant suspect flagged: %v", ants)
	}
}

func TestCorrelatorPanicsOnTinyWindow(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("want panic")
		}
	}()
	NewCorrelator(1, 0.8)
}

func TestVictimSeriesExposed(t *testing.T) {
	c := NewCorrelator(3, 0.8)
	c.Record(0, Detection{IowaitDev: 7, CPIDev: 3}, MakeSample(0, nil), nil)
	if io, cpi := c.VictimIOSeries().Values(), c.VictimCPISeries().Values(); len(io) != 1 || io[0] != 7 || len(cpi) != 1 || cpi[0] != 3 {
		t.Error("victim series not recorded")
	}
}
