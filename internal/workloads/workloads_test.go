package workloads

import (
	"testing"
	"time"

	"perfcloud/internal/cluster"
)

const tick = 0.1

// drain simulates granting the full demand each tick for n ticks.
func drain(w *Benchmark, n int) {
	for i := 0; i < n && !w.Done(); i++ {
		d := w.Demand(tick)
		g := cluster.Grant{
			CPUSeconds:   d.CPUSeconds,
			IOOps:        d.IOOps,
			IOBytes:      d.IOBytes,
			Instructions: d.CPUSeconds * 2.3e9, // CPI 1 equivalent
			CPI:          1,
			MemBytes:     d.CPUSeconds * 2.3e9 * d.BytesPerInstr,
		}
		w.Advance(float64(i)*tick, tick, g)
	}
}

// TestAdvanceReportsEveryDemandChange checks the push contract of
// cluster.Workload on a bursty benchmark with a work limit: Advance
// reports a change exactly on the ticks after which Demand or Done
// differs, so a server replaying its last tick never misses one and never
// rebuilds without one.
func TestAdvanceReportsEveryDemandChange(t *testing.T) {
	w := NewStreamWithWork(BurstPattern{On: time.Second, Off: 700 * time.Millisecond, StartOffset: 300 * time.Millisecond}, 2e11)
	changes := 0
	for i := 0; !w.Done(); i++ {
		if i > 1000 {
			t.Fatal("benchmark never reached its limit")
		}
		d, done := w.Demand(tick), w.Done()
		g := cluster.Grant{CPUSeconds: d.CPUSeconds, MemBytes: d.CPUSeconds * 2.3e9 * d.BytesPerInstr}
		changed := w.Advance(float64(i)*tick, tick, g)
		if differs := w.Demand(tick) != d || w.Done() != done; changed != differs {
			t.Fatalf("tick %d: Advance reported %v, but Demand or Done differs: %v", i, changed, differs)
		}
		if changed {
			changes++
		}
	}
	if changes < 3 {
		t.Errorf("only %d changes reported; the pattern should flip several times", changes)
	}
}

func TestAlwaysOnDemand(t *testing.T) {
	w := NewFioRandRead(AlwaysOn)
	d := w.Demand(tick)
	if d.IOOps != 800 { // 8000 IOPS * 0.1 s
		t.Errorf("IOOps = %v, want 800", d.IOOps)
	}
	if d.IOBytes != 800*4096 {
		t.Errorf("IOBytes = %v", d.IOBytes)
	}
	if d.CPUSeconds <= 0 {
		t.Errorf("CPUSeconds = %v", d.CPUSeconds)
	}
	if !w.Active() {
		t.Error("always-on should be active")
	}
}

func TestBurstPattern(t *testing.T) {
	b := BurstPattern{On: 2 * time.Second, Off: time.Second}
	cases := []struct {
		t      time.Duration
		active bool
	}{
		{0, true},
		{1900 * time.Millisecond, true},
		{2100 * time.Millisecond, false},
		{2900 * time.Millisecond, false},
		{3 * time.Second, true},
		{5 * time.Second, false},
	}
	for _, c := range cases {
		if got := b.active(c.t); got != c.active {
			t.Errorf("active(%v) = %v, want %v", c.t, got, c.active)
		}
	}
}

func TestBurstStartOffset(t *testing.T) {
	b := BurstPattern{On: time.Second, Off: time.Second, StartOffset: 5 * time.Second}
	if b.active(4 * time.Second) {
		t.Error("should be idle before offset")
	}
	if !b.active(5 * time.Second) {
		t.Error("should be active right at offset")
	}
}

func TestOffPhaseZeroDemand(t *testing.T) {
	w := NewFioRandRead(BurstPattern{On: time.Second, Off: time.Second})
	drain(w, 10) // first second on
	// Now at t=1.0s: off phase.
	d := w.Demand(tick)
	if d.IOOps != 0 || d.CPUSeconds != 0 {
		t.Errorf("off-phase demand = %+v", d)
	}
}

func TestAchievedIOPSCountsActiveTimeOnly(t *testing.T) {
	w := NewFioRandRead(BurstPattern{On: time.Second, Off: time.Second})
	drain(w, 20) // 1 s on, 1 s off
	// 10 active ticks * 800 ops = 8000 ops over 1 active second.
	if got := w.AchievedIOPS(); got < 7900 || got > 8100 {
		t.Errorf("AchievedIOPS = %v, want ~8000", got)
	}
	if w.Elapsed() != 2*time.Second {
		t.Errorf("Elapsed = %v", w.Elapsed())
	}
}

func TestZeroActiveTimeMetrics(t *testing.T) {
	w := NewFioRandRead(BurstPattern{StartOffset: time.Hour, On: time.Second, Off: time.Second})
	drain(w, 10)
	if w.AchievedIOPS() != 0 || w.Active() || w.Done() {
		t.Errorf("before its first on phase: AchievedIOPS %v, active %v, done %v", w.AchievedIOPS(), w.Active(), w.Done())
	}
}

func TestLimitsTerminate(t *testing.T) {
	w := NewBenchmark("x", Profile{CPUCores: 1, IOPS: 100, OpBytes: 512, CoreCPI: 1, BytesPerInstr: 1},
		AlwaysOn, Limits{MemBytes: 1e9})
	drain(w, 100)
	if !w.Done() {
		t.Fatal("should be done after memory-traffic limit")
	}
	// Once done, Active is false and demand is zero.
	if w.Active() {
		t.Error("done workload should be inactive")
	}
	if d := w.Demand(tick); d.IOOps != 0 {
		t.Errorf("done demand = %+v", d)
	}
}

func TestStreamWithWorkCompletes(t *testing.T) {
	w := NewStreamWithWork(AlwaysOn, 1e9)
	drain(w, 1000)
	if !w.Done() {
		t.Fatal("stream should finish its work")
	}
}

func TestStreamProfileSaturatesBandwidth(t *testing.T) {
	w := NewStream(AlwaysOn)
	d := w.Demand(tick)
	if d.BytesPerInstr < 4 {
		t.Errorf("STREAM BytesPerInstr = %v, want high", d.BytesPerInstr)
	}
	if d.WorkingSetBytes < 1<<30 {
		t.Errorf("STREAM working set = %v, want >> LLC", d.WorkingSetBytes)
	}
	if d.IOOps != 0 {
		t.Errorf("STREAM should not do disk I/O, got %v ops", d.IOOps)
	}
}

func TestDecoyProfilesAreModerate(t *testing.T) {
	oltp := NewSysbenchOLTP(AlwaysOn).Demand(tick)
	if oltp.IOOps <= 0 || oltp.IOOps > 100 {
		t.Errorf("oltp IOOps per tick = %v, want moderate", oltp.IOOps)
	}
	cpu := NewSysbenchCPU(AlwaysOn).Demand(tick)
	if cpu.IOOps != 0 {
		t.Errorf("sysbench cpu should not do I/O")
	}
	if cpu.WorkingSetBytes > 8<<20 {
		t.Errorf("sysbench cpu working set = %v, want tiny", cpu.WorkingSetBytes)
	}
}

// TestStreamCountsMemTraffic checks that STREAM's work limit counts the
// granted memory traffic: it is done on the tick whose grant crosses
// the limit, not before.
func TestStreamCountsMemTraffic(t *testing.T) {
	d := NewStream(AlwaysOn).Demand(tick)
	perTick := d.CPUSeconds * 2.3e9 * d.BytesPerInstr // drain's MemBytes grant
	w := NewStreamWithWork(AlwaysOn, 10.5*perTick)
	drain(w, 10)
	if w.Done() || !w.Active() {
		t.Fatalf("after 10 of 10.5 ticks of work: done %v, active %v", w.Done(), w.Active())
	}
	drain(w, 1)
	if !w.Done() || w.Active() {
		t.Errorf("after 11 ticks: done %v, active %v", w.Done(), w.Active())
	}
}

func TestNegativeProfilePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("want panic")
		}
	}()
	NewBenchmark("bad", Profile{CPUCores: -1}, AlwaysOn, Limits{})
}
