package experiments

import (
	"bytes"
	"testing"
	"time"

	"perfcloud/internal/mapreduce"
	"perfcloud/internal/obs"
	"perfcloud/internal/trace"
	"perfcloud/internal/workloads"
)

// traceTestMix is a small Fig 11 mix that still exercises both
// frameworks, antagonists and the PerfCloud control loop.
func traceTestMix() LargeScaleConfig {
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

// TestTracingDoesNotChangeJCTs runs the same seeded mix with tracing off
// and on and requires bit-for-bit identical JCTs and efficiency: the
// tracer must be a pure observer of the simulation.
func TestTracingDoesNotChangeJCTs(t *testing.T) {
	t.Parallel()
	cfg := traceTestMix()
	off := runMix(cfg, SchemePerfCloud(), true)

	cfg.Options.TraceDir = t.TempDir()
	on := runMix(cfg, SchemePerfCloud(), true)

	if len(off.JCTs) != len(on.JCTs) {
		t.Fatalf("job counts differ: %d vs %d", len(off.JCTs), len(on.JCTs))
	}
	for i := range off.JCTs {
		if off.JCTs[i] != on.JCTs[i] {
			t.Errorf("job %d JCT: off=%v on=%v (must be bit-identical)", i, off.JCTs[i], on.JCTs[i])
		}
	}
	if off.Efficiency != on.Efficiency {
		t.Errorf("efficiency: off=%v on=%v", off.Efficiency, on.Efficiency)
	}
	if on.Phases.Attempts == 0 || on.Phases.WallSec <= 0 {
		t.Errorf("traced run should carry phase totals, got %+v", on.Phases)
	}
	var sum float64
	for _, v := range on.Phases.Phases {
		sum += v
	}
	if diff := sum - on.Phases.WallSec; diff > 1e-6 || diff < -1e-6 {
		t.Errorf("phase totals %v do not partition wall %v", sum, on.Phases.WallSec)
	}
}

// TestSameSeedTracesAreByteIdentical is the determinism contract of
// DESIGN.md §5.5: two runs with the same seed produce byte-identical
// Perfetto JSON, control-plane instants included.
func TestSameSeedTracesAreByteIdentical(t *testing.T) {
	run := func() []byte {
		pc := ControllerConfig()
		col := obs.NewCollector()
		pc.Events = col
		tr := trace.NewTracer()
		tb := NewTestbed(TestbedConfig{
			Seed:      7,
			Servers:   1,
			PerfCloud: pc,
			Tracer:    tr,
		})
		tb.MustInput("input", 512<<20)
		tb.AddAntagonist(0, workloads.NewFioRandRead(workloads.AlwaysOn))
		tb.RunMR(mapreduce.Terasort("input", 4), 30*time.Minute)
		var b bytes.Buffer
		if err := tr.WritePerfetto(&b, col.Events()); err != nil {
			t.Fatal(err)
		}
		if tr.Len() == 0 {
			t.Fatal("no spans recorded")
		}
		return b.Bytes()
	}
	a, b := run(), run()
	if !bytes.Equal(a, b) {
		t.Error("same-seed runs produced different trace bytes")
	}
}
