package experiments

import (
	"strings"
	"testing"
)

func TestHeterogeneousHybridComplementsPerfCloud(t *testing.T) {
	r := Heterogeneous(seed, Options{})
	def := r.Row("default").MeanJCT
	late := r.Row("LATE").MeanJCT
	pc := r.Row("PerfCloud").MeanJCT
	hybrid := r.Row("PerfCloud+LATE").MeanJCT
	if def == 0 || late == 0 || pc == 0 || hybrid == 0 {
		t.Fatalf("missing rows: %+v", r)
	}
	// PerfCloud helps (it throttles the antagonist) but cannot fix slow
	// hardware; the hybrid should be the best of the four — the paper's
	// §IV-D2 claim that speculation complements PerfCloud.
	if pc >= def {
		t.Errorf("PerfCloud %v should beat default %v", pc, def)
	}
	if hybrid >= def || hybrid > pc*1.02 {
		t.Errorf("hybrid %v should be at least as good as PerfCloud %v and beat default %v",
			hybrid, pc, def)
	}
	if hybrid > late*1.02 {
		t.Errorf("hybrid %v should be at least as good as LATE %v", hybrid, late)
	}
	if !strings.Contains(r.Table().String(), "PerfCloud+LATE") {
		t.Error("table rendering")
	}
}

func TestMigrationResolvesHighPriorityCollision(t *testing.T) {
	r := Migration(seed, Options{})
	if r.Migrations == 0 {
		t.Fatal("node manager never escalated to migration")
	}
	if r.FinalSpread < 2 {
		t.Errorf("apps still packed on %d server(s)", r.FinalSpread)
	}
	if r.JCTWith >= r.JCTWithout {
		t.Errorf("migration JCT %v should beat colocated %v", r.JCTWith, r.JCTWithout)
	}
	if !strings.Contains(r.Table().String(), "enabled") {
		t.Error("table rendering")
	}
}
