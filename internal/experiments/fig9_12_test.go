package experiments

import (
	"strings"
	"testing"
	"time"
)

func TestFig9SchemesOrdering(t *testing.T) {
	r := Fig9(seed, Options{})
	def := r.Arm("default")
	static := r.Arm("static")
	pc := r.Arm("perfcloud")
	if def.JCT == 0 || static.JCT == 0 || pc.JCT == 0 {
		t.Fatalf("missing arms: %+v", r)
	}
	// Both mitigation schemes beat the default system (paper: 31%, 33%).
	if pc.JCT >= def.JCT*0.95 {
		t.Errorf("perfcloud %v should clearly beat default %v", pc.JCT, def.JCT)
	}
	if static.JCT >= def.JCT*0.95 {
		t.Errorf("static %v should clearly beat default %v", static.JCT, def.JCT)
	}
	// PerfCloud suppresses the deviation signals relative to default
	// (Fig. 9a/9b).
	if pc.Iowait.Max() >= def.Iowait.Max() {
		t.Errorf("perfcloud peak iowait dev %v should be below default %v",
			pc.Iowait.Max(), def.Iowait.Max())
	}
	if !strings.Contains(r.Table().String(), "perfcloud") {
		t.Error("table rendering")
	}
}

func TestFig10CapTimelines(t *testing.T) {
	r9 := Fig9(seed, Options{})
	r := Fig10(r9.Arm("perfcloud"))
	if ThrottleEpisodes(r.FioCap) < 1 {
		t.Error("fio was never throttled")
	}
	if ThrottleEpisodes(r.StreamCap) < 1 {
		t.Error("stream was never throttled")
	}
	// The throttle actually bit: the minimum cap sits well below fio's
	// solo rate / stream's 2 vcpus.
	if min := minNonMissing(r.FioCap); min <= 0 || min > 4000 {
		t.Errorf("fio min cap = %v", min)
	}
	if min := minNonMissing(r.StreamCap); min <= 0 || min > 1.5 {
		t.Errorf("stream min cap = %v cores", min)
	}
	if !strings.Contains(r.Table().String(), "fio") {
		t.Error("table rendering")
	}
}

// smallMix is a scaled-down Fig 11 configuration for unit tests.
func smallMix() LargeScaleConfig {
	return LargeScaleConfig{
		Seed:             seed,
		Servers:          3,
		WorkersPerServer: 6,
		NumMR:            8,
		NumSpark:         8,
		Fio:              2,
		Streams:          2,
		InterarrivalSec:  4,
		Limit:            2 * time.Hour,
	}
}

func TestFig11SmallMix(t *testing.T) {
	r := Fig11With(smallMix(), []Scheme{
		SchemeLATE(), SchemeDolly(2), SchemeDolly(4), SchemePerfCloud(),
	})
	if len(r.Rows) != 12 { // 4 schemes x {all, mapreduce, spark}
		t.Fatalf("rows = %d", len(r.Rows))
	}
	// Per-framework rows partition the aggregate.
	for _, sch := range []string{"LATE", "PerfCloud"} {
		all := r.Row(sch).Buckets.Total()
		mr := r.RowFor(sch, "mapreduce").Buckets.Total()
		sp := r.RowFor(sch, "spark").Buckets.Total()
		if mr+sp != all || mr == 0 || sp == 0 {
			t.Errorf("%s: framework split %d+%d != %d", sch, mr, sp, all)
		}
	}
	pc := r.Row("PerfCloud")
	late := r.Row("LATE")
	d2 := r.Row("Dolly-2")
	d4 := r.Row("Dolly-4")

	// PerfCloud attacks the root cause without extra resources: best or
	// tied-best efficiency, and at least as many lightly-degraded jobs as
	// LATE (paper Fig. 11).
	if pc.Efficiency < 0.99 {
		t.Errorf("PerfCloud efficiency = %v, want ~1 (no duplicate work)", pc.Efficiency)
	}
	if d2.Efficiency >= 0.95 {
		t.Errorf("Dolly-2 efficiency = %v, want meaningful waste", d2.Efficiency)
	}
	if d4.Efficiency >= d2.Efficiency {
		t.Errorf("efficiency should fall with clones: Dolly-4 %v vs Dolly-2 %v",
			d4.Efficiency, d2.Efficiency)
	}
	if pc.FracUnder30 < late.FracUnder30 {
		t.Errorf("PerfCloud <30%% frac %v should be >= LATE %v", pc.FracUnder30, late.FracUnder30)
	}
	if !strings.Contains(r.Table().String(), "Dolly-2") {
		t.Error("table rendering")
	}
}

func TestFig12SmallVariability(t *testing.T) {
	cfg := VariabilityConfig{
		Seed:             seed,
		Servers:          3,
		WorkersPerServer: 6,
		Runs:             5,
		Fio:              2,
		Streams:          2,
		Tasks:            18,
		Limit:            time.Hour,
	}
	r := Fig12With(cfg, []Scheme{SchemeLATE(), SchemePerfCloud()})
	if len(r.Rows) != 4 { // 2 workloads x 2 schemes
		t.Fatalf("rows = %d", len(r.Rows))
	}
	for _, workload := range []string{"terasort", "spark-logreg"} {
		pc := r.Row(workload, "PerfCloud").Summary
		late := r.Row(workload, "LATE").Summary
		if pc.N != cfg.Runs || late.N != cfg.Runs {
			t.Fatalf("%s: summaries incomplete: %+v %+v", workload, pc, late)
		}
		// Paper Fig. 12: PerfCloud's median and spread are smaller.
		if pc.Median > late.Median {
			t.Errorf("%s: PerfCloud median %v should be <= LATE %v", workload, pc.Median, late.Median)
		}
	}
	if !strings.Contains(r.Table().String(), "terasort") {
		t.Error("table rendering")
	}
}
