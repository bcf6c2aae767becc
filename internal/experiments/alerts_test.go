package experiments

import (
	"reflect"
	"testing"
	"time"

	"perfcloud/internal/obs"
)

// alertTestRules is the default pack; the signal rules alone are enough
// to exercise the engine inside experiment runs.
func alertTestRules() []obs.Rule {
	return obs.DefaultRules(obs.DefaultRulesConfig{})
}

// TestAlertsDoNotChangeResults is the pure-observer invariant for the
// alert layer: the same seeded mix with rules off and on must produce
// bit-identical JCTs, efficiency, phase totals and scorecards — the
// engine only reads the audit stream, it never feeds back into the
// simulation. Covers both Fig 11 and Fig 12.
func TestAlertsDoNotChangeResults(t *testing.T) {
	t.Parallel()
	cfg := scoreTestMix()
	schemes := []Scheme{SchemeLATE(), SchemePerfCloud()}
	off11 := Fig11With(cfg, schemes)

	vcfg := VariabilityConfig{
		Seed: 3, Servers: 2, WorkersPerServer: 4,
		Runs: 2, Fio: 1, Streams: 1, Tasks: 8, Limit: time.Hour,
	}
	off12 := Fig12With(vcfg, schemes)

	cfg.Options.AlertRules = alertTestRules()
	vcfg.Options.AlertRules = alertTestRules()
	on11 := Fig11With(cfg, schemes)
	on12 := Fig12With(vcfg, schemes)

	// Strip the alert summaries; everything else must match exactly.
	stripped11 := on11
	stripped11.Rows = append([]Fig11Row(nil), on11.Rows...)
	for i := range stripped11.Rows {
		stripped11.Rows[i].Alerts = nil
	}
	if !reflect.DeepEqual(off11, stripped11) {
		t.Fatalf("alert rules changed Fig11 results:\noff: %+v\non:  %+v", off11, stripped11)
	}
	stripped12 := on12
	stripped12.Rows = append([]Fig12Row(nil), on12.Rows...)
	for i := range stripped12.Rows {
		stripped12.Rows[i].Alerts = nil
	}
	if !reflect.DeepEqual(off12, stripped12) {
		t.Fatalf("alert rules changed Fig12 results:\noff: %+v\non:  %+v", off12, stripped12)
	}

	// And the "on" runs actually evaluated rules for the PerfCloud rows
	// (LATE has no control plane, so no engine and a nil summary).
	if on11.Row("PerfCloud").Alerts == nil {
		t.Fatal("Fig11 PerfCloud row has no alert summary with rules on")
	}
	if on11.Row("LATE").Alerts != nil {
		t.Fatal("Fig11 LATE row has an alert summary without a control plane")
	}
	found := false
	for _, row := range on12.Rows {
		if row.Scheme == "PerfCloud" {
			if row.Alerts == nil {
				t.Fatalf("Fig12 row %s/%s has no alert summary", row.Workload, row.Scheme)
			}
			found = true
		}
	}
	if !found {
		t.Fatal("no PerfCloud rows in Fig12 result")
	}
}

// TestAlertsDeterministic: same seed, same rules ⇒ identical summaries,
// including the rendered table the CLI emits.
func TestAlertsDeterministic(t *testing.T) {
	t.Parallel()
	cfg := scoreTestMix()
	cfg.Options.AlertRules = alertTestRules()
	schemes := []Scheme{SchemePerfCloud()}
	a := Fig11With(cfg, schemes)
	b := Fig11With(cfg, schemes)
	sa, sb := a.Row("PerfCloud").Alerts, b.Row("PerfCloud").Alerts
	if sa == nil || sb == nil {
		t.Fatal("missing alert summaries")
	}
	if !reflect.DeepEqual(*sa, *sb) {
		t.Fatalf("alert summaries differ across same-seed runs:\n%+v\nvs\n%+v", *sa, *sb)
	}
	if sa.String() != sb.String() {
		t.Fatalf("rendered summaries differ:\n%s\nvs\n%s", sa, sb)
	}
	if at, bt := a.AlertTable().String(), b.AlertTable().String(); at != bt {
		t.Fatalf("alert tables differ:\n%s\nvs\n%s", at, bt)
	}
}

// TestHealthLayerIsInert: attaching the health layer must not perturb
// experiment results either — its timers and gauges are wall-clock
// observations that never feed back into the simulation.
func TestHealthLayerIsInert(t *testing.T) {
	t.Parallel()
	cfg := scoreTestMix()
	schemes := []Scheme{SchemePerfCloud()}
	off := Fig11With(cfg, schemes)

	h := obs.NewHealth(obs.NewRegistry())
	cfg.Options.Health = h
	on := Fig11With(cfg, schemes)

	if !reflect.DeepEqual(off, on) {
		t.Fatalf("health layer changed experiment results:\noff: %+v\non:  %+v", off, on)
	}
	// The layer did observe the run: the cluster timers got calls.
	snap := h.Snapshot()
	phases := map[string]obs.PhaseStats{}
	for _, p := range snap.Phases {
		phases[p.Phase] = p
	}
	if p := phases["cluster.grant"]; p.Calls == 0 {
		t.Errorf("cluster.grant timer never called (snapshot %+v)", snap.Phases)
	}
	if p := phases["core.monitor"]; p.Calls == 0 {
		t.Errorf("core.monitor timer never called (snapshot %+v)", snap.Phases)
	}
}
