package obs

import (
	"reflect"
	"testing"
)

// truthFixture: two genuine antagonists (fio on io, stream on cpu) and
// one benign decoy that must never count toward recall.
func truthFixture() *GroundTruth {
	g := NewGroundTruth()
	g.Add(TruthVM{VM: "fio", Server: "s0", Channel: "io", StartSec: 10, OnSec: 60, OffSec: 30})
	g.Add(TruthVM{VM: "stream", Server: "s1", Channel: "cpu", StartSec: 40})
	g.Add(TruthVM{VM: "sysbench-oltp", Server: "s0", StartSec: 0})
	return g
}

func scoreFixtureEvents() []Event {
	return []Event{
		{T: 30, Type: EventSample, Server: "s0", IowaitDev: 5},
		{T: 35, Type: EventIdentify, Server: "s0", IOAntagonists: []string{"fio"}},
		{T: 40, Type: EventCap, Server: "s0", VM: "fio", Res: "io", OldCap: 8000, NewCap: 1600},
		{T: 55, Type: EventCap, Server: "s0", VM: "fio", Res: "io", OldCap: 1600, NewCap: 2000},
		// An innocent tenant capped by mistake, released quickly.
		{T: 60, Type: EventCap, Server: "s0", VM: "sysbench-oltp", Res: "io", OldCap: 400, NewCap: 200},
		{T: 80, Type: EventRelease, Server: "s0", VM: "sysbench-oltp", Res: "io"},
		{T: 100, Type: EventRelease, Server: "s0", VM: "fio", Res: "io"},
		// The cpu antagonist is identified late and still capped at the
		// horizon; its episode closes at endSec.
		{T: 150, Type: EventIdentify, Server: "s1", CPUAntagonists: []string{"stream"}},
		{T: 160, Type: EventCap, Server: "s1", VM: "stream", Res: "cpu", OldCap: 8, NewCap: 2},
		{T: 170, Type: EventMigrate, Server: "s1", VM: "stream"},
	}
}

func TestScoreCountsAndRates(t *testing.T) {
	sc := Score(scoreFixtureEvents(), truthFixture(), 200)

	if sc.TotalAntagonists != 2 {
		t.Fatalf("TotalAntagonists = %d, want 2", sc.TotalAntagonists)
	}
	if sc.DetectedAntagonists != 2 {
		t.Fatalf("DetectedAntagonists = %d, want 2", sc.DetectedAntagonists)
	}
	if sc.Recall != 1 {
		t.Fatalf("Recall = %v, want 1", sc.Recall)
	}
	// 3 distinct capped VMs, 2 of them antagonists.
	if sc.CappedVMs != 3 || sc.AntagonistCappedVMs != 2 {
		t.Fatalf("CappedVMs = %d AntagonistCappedVMs = %d, want 3/2", sc.CappedVMs, sc.AntagonistCappedVMs)
	}
	if want := 2.0 / 3.0; sc.Precision != want {
		t.Fatalf("Precision = %v, want %v", sc.Precision, want)
	}
	// 4 caps total, 1 on the innocent decoy.
	if sc.TrueCaps != 3 || sc.FalseCaps != 1 {
		t.Fatalf("caps = %d/%d, want 3 true / 1 false", sc.TrueCaps, sc.FalseCaps)
	}
	if want := 0.25; sc.FalseCapRate != want {
		t.Fatalf("FalseCapRate = %v, want %v", sc.FalseCapRate, want)
	}
	// fio: first active at 10, first named at 35 → 25s.
	// stream: first active at 40, first named at 150 → 110s.
	if want := (25.0 + 110.0) / 2; sc.MeanTimeToDetectSec != want {
		t.Fatalf("MeanTimeToDetectSec = %v, want %v", sc.MeanTimeToDetectSec, want)
	}
	// Dwell: fio 40→100 = 60s; oltp 60→80 = 20s (false); stream
	// 160→horizon 200 = 40s. Consecutive caps extend one episode.
	if want := 60.0 + 20.0 + 40.0; sc.CapDwellSec != want {
		t.Fatalf("CapDwellSec = %v, want %v", sc.CapDwellSec, want)
	}
	if want := 20.0; sc.FalseCapDwellSec != want {
		t.Fatalf("FalseCapDwellSec = %v, want %v", sc.FalseCapDwellSec, want)
	}
	if sc.Migrations != 1 {
		t.Fatalf("Migrations = %d, want 1", sc.Migrations)
	}
}

func TestScoreDeterministic(t *testing.T) {
	a := Score(scoreFixtureEvents(), truthFixture(), 200)
	b := Score(scoreFixtureEvents(), truthFixture(), 200)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("Score not deterministic:\n%+v\nvs\n%+v", a, b)
	}
	if a.String() != b.String() {
		t.Fatalf("String not deterministic:\n%s\nvs\n%s", a, b)
	}
}

func TestScoreEmptyInputs(t *testing.T) {
	// No events at all (a scheme with no controller, e.g. LATE): rates
	// are zero, denominators still reflect the truth registry.
	sc := Score(nil, truthFixture(), 200)
	if sc.TotalAntagonists != 2 || sc.Recall != 0 || sc.Precision != 0 || sc.FalseCapRate != 0 {
		t.Fatalf("empty-event scorecard = %+v", sc)
	}
	// Nil truth: every cap is false.
	sc = Score(scoreFixtureEvents(), nil, 200)
	if sc.TrueCaps != 0 || sc.FalseCaps != 4 || sc.FalseCapRate != 1 {
		t.Fatalf("nil-truth scorecard = %+v", sc)
	}
}

func TestScorecardMerge(t *testing.T) {
	a := Score(scoreFixtureEvents(), truthFixture(), 200)
	b := a
	b.Merge(a)
	// Doubling every count leaves the rates fixed.
	if b.Precision != a.Precision || b.Recall != a.Recall || b.FalseCapRate != a.FalseCapRate {
		t.Fatalf("merge changed rates: %+v vs %+v", b, a)
	}
	if b.TotalAntagonists != 2*a.TotalAntagonists || b.CapDwellSec != 2*a.CapDwellSec {
		t.Fatalf("merge did not sum counts: %+v", b)
	}
	if b.MeanTimeToDetectSec != a.MeanTimeToDetectSec {
		t.Fatalf("merge changed mean TTD: %v vs %v", b.MeanTimeToDetectSec, a.MeanTimeToDetectSec)
	}
}
