package core

import (
	"math"
	"testing"
	"time"

	"perfcloud/internal/cluster"
	"perfcloud/internal/hypervisor"
	"perfcloud/internal/sim"
)

func monitorFixture(t *testing.T) (*cluster.Cluster, *cluster.Server, *Monitor) {
	t.Helper()
	eng := sim.NewEngine(100*time.Millisecond, 3)
	cl := cluster.New()
	srv := cl.AddServer("s0", cluster.DefaultServerConfig(), eng.RNG())
	cl.AddVM(srv, "vm-a", 2, cluster.HighPriority, "app")
	cl.AddVM(srv, "vm-b", 2, cluster.LowPriority, "")
	return cl, srv, NewMonitor(hypervisor.New(srv), 0.5)
}

func TestMonitorFirstSampleHasNoDeltas(t *testing.T) {
	_, _, m := monitorFixture(t)
	s := m.Sample(0, 5)
	if s.Len() != 0 {
		t.Errorf("first sample should be empty, got %d domains", s.Len())
	}
}

func TestMonitorDeltasAndRates(t *testing.T) {
	cl, _, m := monitorFixture(t)
	m.Sample(0, 5) // prime
	a := cl.FindVM("vm-a").Cgroup()
	// 100 IOPS over 5 s at 2 ms/op, 1 core, CPI 2.
	a.AddTick(500, 500*4096, 1000, 5, 2e9, 1e9, 1e7, 5e6)
	s := m.Sample(5, 5)
	vs, ok := s.Get("vm-a")
	if !ok {
		t.Fatal("vm-a missing")
	}
	if !vs.IOActive || vs.IOPS != 100 || vs.IOThroughputBps != 100*4096 {
		t.Errorf("io = %+v", vs)
	}
	if vs.IowaitRatio != 2 {
		t.Errorf("iowait ratio = %v, want 2", vs.IowaitRatio)
	}
	if vs.CPI != 2 || vs.CPUUsageCores != 1 {
		t.Errorf("cpi=%v cpu=%v", vs.CPI, vs.CPUUsageCores)
	}
	if vs.LLCMissRate != 1e6 {
		t.Errorf("llc rate = %v", vs.LLCMissRate)
	}
}

func TestMonitorMissingValuesWhenIdle(t *testing.T) {
	cl, _, m := monitorFixture(t)
	m.Sample(0, 5)
	// vm-b stays completely idle.
	cl.FindVM("vm-a").Cgroup().AddTick(0, 0, 0, 1, 0, 0, 0, 0)
	s := m.Sample(5, 5)
	vs, _ := s.Get("vm-b")
	if !math.IsNaN(vs.CPI) || !math.IsNaN(vs.LLCMissRate) {
		t.Errorf("idle VM should have missing CPI/LLC: %+v", vs)
	}
	if vs.IOActive || vs.IowaitRatio != 0 {
		t.Errorf("idle VM io = %+v", vs)
	}
}

func TestMonitorEWMASmoothing(t *testing.T) {
	cl, _, m := monitorFixture(t)
	m.Sample(0, 5)
	a := cl.FindVM("vm-a").Cgroup()
	a.AddTick(100, 0, 1000, 0, 0, 0, 0, 0) // 10 ms/op
	s1 := m.Sample(5, 5)
	// A Sample is valid until the next Sample call: copy what we assert on.
	v1, _ := s1.Get("vm-a")
	a.AddTick(100, 0, 0, 0, 0, 0, 0, 0) // 0 ms/op raw
	s2 := m.Sample(10, 5)
	if v1.IowaitRatio != 10 {
		t.Errorf("first ratio = %v", v1.IowaitRatio)
	}
	if v2, _ := s2.Get("vm-a"); v2.IowaitRatio != 5 { // 0.5*0 + 0.5*10
		t.Errorf("smoothed ratio = %v, want 5", v2.IowaitRatio)
	}
}

func TestMonitorForgetsRemovedDomains(t *testing.T) {
	cl, _, m := monitorFixture(t)
	m.Sample(0, 5)
	cl.RemoveVM("vm-b")
	s := m.Sample(5, 5)
	if _, ok := s.Get("vm-b"); ok {
		t.Error("removed VM should not be sampled")
	}
	if len(m.domains) != 1 || len(m.index) != 1 {
		t.Errorf("domain state = %d/%d entries, want 1/1", len(m.domains), len(m.index))
	}
}

func TestMonitorZeroIntervalReplaysPreviousRates(t *testing.T) {
	cl, _, m := monitorFixture(t)
	m.Sample(0, 5) // prime
	a := cl.FindVM("vm-a").Cgroup()
	a.AddTick(500, 500*4096, 1000, 5, 0, 0, 0, 0)
	s1 := m.Sample(5, 5)
	v1, _ := s1.Get("vm-a")
	if v1.IOPS != 100 || v1.CPUUsageCores != 1 {
		t.Fatalf("setup sample = %+v", v1)
	}
	// More counters accumulate but no time passes. The monitor must not
	// fabricate rates from a zero-length interval (it used to divide by a
	// silently substituted 1 s): it replays the previous measurements and
	// leaves the counter baselines and EWMA filters untouched.
	a.AddTick(500, 500*4096, 1000, 5, 0, 0, 0, 0)
	s2 := m.Sample(5, 0)
	v2, ok := s2.Get("vm-a")
	if !ok {
		t.Fatal("vm-a missing from zero-interval sample")
	}
	if v2.IOPS != v1.IOPS || v2.IOThroughputBps != v1.IOThroughputBps ||
		v2.CPUUsageCores != v1.CPUUsageCores || v2.IowaitRatio != v1.IowaitRatio {
		t.Errorf("zero interval fabricated rates: %+v, want replay of %+v", v2, v1)
	}
	// The next real interval absorbs the counters accumulated across the
	// zero-length call: 500 ops over 5 s = 100 IOPS raw, EWMA-steady.
	s3 := m.Sample(10, 5)
	if v3, _ := s3.Get("vm-a"); v3.IOPS != 100 || v3.CPUUsageCores != 1 {
		t.Errorf("post-zero-interval sample = %+v", v3)
	}
}

func TestDetectActiveOnly(t *testing.T) {
	th := DefaultThresholds()
	s := MakeSample(0, map[string]VMSample{
		"a": {IOActive: true, IowaitRatio: 50, CPI: 1.5},
		"b": {IOActive: true, IowaitRatio: 10, CPI: 1.4},
		"c": {IOActive: false, IowaitRatio: 0, CPI: math.NaN()}, // idle worker
	})
	d := Detect(s, []string{"a", "b", "c"}, th)
	// Only a and b count: stddev of {50,10} = 20 > 10.
	if math.Abs(d.IowaitDev-20) > 1e-9 || !d.IOContention {
		t.Errorf("iowait dev = %v contention=%v", d.IowaitDev, d.IOContention)
	}
	// CPI stddev of {1.5,1.4} = 0.05 < 1.
	if d.CPUContention {
		t.Errorf("cpu contention = true, dev = %v", d.CPIDev)
	}
	if !d.Contention() {
		t.Error("overall contention should be true")
	}
}

func TestDetectIgnoresUnknownVMs(t *testing.T) {
	s := MakeSample(0, nil)
	d := Detect(s, []string{"ghost1", "ghost2"}, DefaultThresholds())
	if d.Contention() || d.IowaitDev != 0 || d.CPIDev != 0 {
		t.Errorf("detection over ghosts = %+v", d)
	}
}

func TestDetectSingleActiveVMNoSignal(t *testing.T) {
	s := MakeSample(0, map[string]VMSample{
		"a": {IOActive: true, IowaitRatio: 500, CPI: 9},
	})
	d := Detect(s, []string{"a"}, DefaultThresholds())
	if d.Contention() {
		t.Error("one VM carries no deviation signal")
	}
}
