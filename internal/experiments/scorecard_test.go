package experiments

import (
	"reflect"
	"testing"
	"time"
)

// scoreTestMix is a small Fig 11 mix with enough antagonist pressure
// that the PerfCloud control loop actually caps something.
func scoreTestMix() LargeScaleConfig {
	return LargeScaleConfig{
		Seed:             3,
		Servers:          2,
		WorkersPerServer: 4,
		NumMR:            3,
		NumSpark:         3,
		Fio:              1,
		Streams:          2,
		InterarrivalSec:  2,
		Limit:            30 * time.Minute,
	}
}

// TestScorecardsDoNotChangeResults is the PR-5 invariant for the
// scorecard layer: the same seeded mix with scorecards off and on must
// produce bit-identical JCTs and efficiency — scoring is a pure
// observer of the audit-event stream.
func TestScorecardsDoNotChangeResults(t *testing.T) {
	t.Parallel()
	cfg := scoreTestMix()
	schemes := []Scheme{SchemeLATE(), SchemePerfCloud()}
	off := Fig11With(cfg, schemes)

	cfg.Options.Scorecards = true
	on := Fig11With(cfg, schemes)

	// Strip the scorecards; everything else must match exactly.
	stripped := on
	stripped.Rows = append([]Fig11Row(nil), on.Rows...)
	for i := range stripped.Rows {
		stripped.Rows[i].Score = nil
	}
	if !reflect.DeepEqual(off, stripped) {
		t.Fatalf("scorecards changed experiment results:\noff: %+v\non:  %+v", off, stripped)
	}
	// And the "on" run actually produced cards for every scheme's
	// aggregate row.
	for _, sch := range []string{"LATE", "PerfCloud"} {
		if on.Row(sch).Score == nil {
			t.Fatalf("scheme %s has no scorecard", sch)
		}
	}
}

// TestScorecardsDeterministic: same seed, same config ⇒ identical
// scorecards, including the rendered string form the CI smoke job
// byte-compares.
func TestScorecardsDeterministic(t *testing.T) {
	t.Parallel()
	cfg := scoreTestMix()
	cfg.Options.Scorecards = true
	schemes := []Scheme{SchemePerfCloud()}
	a := Fig11With(cfg, schemes)
	b := Fig11With(cfg, schemes)
	sa, sb := a.Row("PerfCloud").Score, b.Row("PerfCloud").Score
	if sa == nil || sb == nil {
		t.Fatal("missing scorecards")
	}
	if !reflect.DeepEqual(*sa, *sb) {
		t.Fatalf("scorecards differ across same-seed runs:\n%+v\nvs\n%+v", *sa, *sb)
	}
	if sa.String() != sb.String() {
		t.Fatalf("rendered scorecards differ:\n%s\nvs\n%s", sa, sb)
	}
	if at, bt := a.ScorecardTable().String(), b.ScorecardTable().String(); at != bt {
		t.Fatalf("scorecard tables differ:\n%s\nvs\n%s", at, bt)
	}
}

// TestScorecardGradesSchemes checks the semantic content: PerfCloud
// detects and caps real antagonists while a scheme with no control
// plane (LATE) scores zero detections against the same denominator.
// The mix is the larger smallMix-sized one — the 2-server scoreTestMix
// is too light to push any deviation signal over its threshold.
func TestScorecardGradesSchemes(t *testing.T) {
	t.Parallel()
	cfg := LargeScaleConfig{
		Seed:             1,
		Servers:          3,
		WorkersPerServer: 6,
		NumMR:            8,
		NumSpark:         8,
		Fio:              2,
		Streams:          2,
		InterarrivalSec:  4,
		Limit:            2 * time.Hour,
		Options:          Options{Scorecards: true},
	}
	r := Fig11With(cfg, []Scheme{SchemeLATE(), SchemePerfCloud()})

	wantAnts := cfg.Fio + cfg.Streams
	pc := r.Row("PerfCloud").Score
	if pc.TotalAntagonists != wantAnts {
		t.Fatalf("PerfCloud TotalAntagonists = %d, want %d", pc.TotalAntagonists, wantAnts)
	}
	if pc.DetectedAntagonists == 0 || pc.Recall == 0 {
		t.Fatalf("PerfCloud detected nothing: %+v", *pc)
	}
	if pc.CappedVMs == 0 || pc.CapDwellSec <= 0 {
		t.Fatalf("PerfCloud capped nothing: %+v", *pc)
	}
	if pc.MeanTimeToDetectSec <= 0 {
		t.Fatalf("PerfCloud mean TTD = %v, want > 0", pc.MeanTimeToDetectSec)
	}
	if pc.JCTRecovery <= 0 {
		t.Fatalf("PerfCloud JCT recovery = %v, want > 0", pc.JCTRecovery)
	}

	late := r.Row("LATE").Score
	if late.TotalAntagonists != wantAnts {
		t.Fatalf("LATE TotalAntagonists = %d, want %d", late.TotalAntagonists, wantAnts)
	}
	if late.DetectedAntagonists != 0 || late.CappedVMs != 0 || late.Recall != 0 {
		t.Fatalf("LATE (no control plane) scored detections: %+v", *late)
	}
	if late.JCTRecovery <= 0 {
		t.Fatalf("LATE JCT recovery = %v, want > 0", late.JCTRecovery)
	}
}

// TestFig12Scorecards checks the merged per-row cards of the repetition
// experiment.
func TestFig12Scorecards(t *testing.T) {
	t.Parallel()
	cfg := VariabilityConfig{
		Seed:             3,
		Servers:          2,
		WorkersPerServer: 4,
		Runs:             2,
		Fio:              2,
		Streams:          2,
		Tasks:            10,
		Limit:            time.Hour,
		Options:          Options{Scorecards: true},
	}
	r := Fig12With(cfg, []Scheme{SchemePerfCloud()})
	row := r.Row("terasort", "PerfCloud")
	if row.Score == nil {
		t.Fatal("fig12 row has no scorecard")
	}
	if want := cfg.Runs * (cfg.Fio + cfg.Streams); row.Score.TotalAntagonists != want {
		t.Fatalf("merged TotalAntagonists = %d, want %d (runs x antagonists)", row.Score.TotalAntagonists, want)
	}
	if row.Score.Scheme != "terasort/PerfCloud" {
		t.Fatalf("merged scheme label = %q", row.Score.Scheme)
	}
	if row.Score.JCTRecovery <= 0 {
		t.Fatalf("merged JCT recovery = %v", row.Score.JCTRecovery)
	}
	if got := r.ScorecardTable().String(); got == "" {
		t.Fatal("empty scorecard table")
	}
}

// TestGroundTruthRegistration checks the testbed records what
// AddAntagonist booted: name disambiguation, server, harm channel and
// burst schedule.
func TestGroundTruthRegistration(t *testing.T) {
	cfg := scoreTestMix()
	tb := NewTestbed(TestbedConfig{Seed: cfg.Seed, Servers: cfg.Servers, WorkersPerServer: 2})
	placeAntagonists(tb, cfg)
	vms := tb.Truth.VMs()
	if want := cfg.Fio + cfg.Streams; len(vms) != want {
		t.Fatalf("truth records = %d, want %d", len(vms), want)
	}
	if got := tb.Truth.NumAntagonists(); got != cfg.Fio+cfg.Streams {
		t.Fatalf("NumAntagonists = %d", got)
	}
	channels := map[string]int{}
	for _, v := range vms {
		channels[v.Channel]++
		if v.Server == "" || v.OnSec <= 0 {
			t.Fatalf("truth record incomplete: %+v", v)
		}
		if _, ok := tb.Benchmarks[v.VM]; !ok {
			t.Fatalf("truth VM %q not in Benchmarks", v.VM)
		}
	}
	if channels["io"] != cfg.Fio || channels["cpu"] != cfg.Streams {
		t.Fatalf("harm channels = %v", channels)
	}
}
