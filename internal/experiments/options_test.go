package experiments

import (
	"os"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestConcurrentOptionsAreIsolated runs a small Fig 12 grid under two
// different Options at the same time, in two goroutines: one with every
// deterministic observer on and an explicit 4-way fan-out, one with the
// zero value. Each result must DeepEqual the same configuration run
// alone — nothing of one call's configuration reaches the other — and
// OnTestbed must fire exactly once for every testbed the grid builds.
func TestConcurrentOptionsAreIsolated(t *testing.T) {
	base := VariabilityConfig{
		Seed: 5, Servers: 2, WorkersPerServer: 4,
		Runs: 2, Fio: 1, Streams: 1, Tasks: 8, Limit: time.Hour,
	}
	schemes := []Scheme{SchemeLATE(), SchemePerfCloud()}
	const workloads = 2 // terasort and spark-logreg
	wantTestbeds := int64(workloads + workloads*len(schemes)*base.Runs)
	traceDir := t.TempDir()
	configs := []Options{
		{Scorecards: true, AlertRules: alertTestRules(), TraceDir: traceDir, Parallel: 4},
		{},
	}
	run := func(o Options) (Fig12Result, int64) {
		var testbeds atomic.Int64
		o.OnTestbed = func(*Testbed) { testbeds.Add(1) }
		cfg := base
		cfg.Options = o
		return Fig12With(cfg, schemes), testbeds.Load()
	}

	alone := make([]Fig12Result, len(configs))
	for i, o := range configs {
		var n int64
		if alone[i], n = run(o); n != wantTestbeds {
			t.Fatalf("config %d alone: OnTestbed fired %d times, want %d", i, n, wantTestbeds)
		}
	}
	together := make([]Fig12Result, len(configs))
	counts := make([]int64, len(configs))
	var wg sync.WaitGroup
	for i, o := range configs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			together[i], counts[i] = run(o)
		}()
	}
	wg.Wait()

	for i := range configs {
		if counts[i] != wantTestbeds {
			t.Errorf("config %d concurrently: OnTestbed fired %d times, want %d", i, counts[i], wantTestbeds)
		}
		if !reflect.DeepEqual(alone[i], together[i]) {
			t.Errorf("config %d run concurrently differs from the same config run alone:\nalone:    %+v\ntogether: %+v",
				i, alone[i], together[i])
		}
	}
	observed, bare := together[0].Row("terasort", "PerfCloud"), together[1].Row("terasort", "PerfCloud")
	if observed.Score == nil || observed.Alerts == nil || observed.Phases.Attempts == 0 {
		t.Errorf("observed run is missing a scorecard, alert summary or phase totals: %+v", observed)
	}
	if bare.Score != nil || bare.Alerts != nil || bare.Phases.Attempts != 0 {
		t.Errorf("bare run carries observer output: %+v", bare)
	}
	files, err := os.ReadDir(traceDir)
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(files)) != wantTestbeds {
		t.Errorf("trace directory holds %d files, want one per testbed (%d)", len(files), wantTestbeds)
	}
}
