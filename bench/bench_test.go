package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"
	"time"

	"perfcloud/internal/experiments"
)

var update = flag.Bool("update", false, "rewrite the pinned digest in testdata from the current code")

// shortSizes shrinks every workload to a small fraction of a second per rep.
func shortSizes() sizes {
	return sizes{
		mix: experiments.LargeScaleConfig{Servers: 3, WorkersPerServer: 4, NumMR: 4, NumSpark: 4,
			Fio: 1, Streams: 2, InterarrivalSec: 5, Limit: time.Hour},
		variability: experiments.VariabilityConfig{Servers: 3, WorkersPerServer: 4, Runs: 3,
			Fio: 1, Streams: 2, Tasks: 10, Limit: time.Hour},
		planet: planetSize{Servers: 200, VMs: 2000, Hot: 2, Jobs: 1},
		daemon: daemonSize{Duration: daemonDuration},
	}
}

// declared reads the metric names and units BENCHMARK.json declares.
func declared(t *testing.T) (endToEnd, perLayer map[string]string) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	endToEnd, perLayer = map[string]string{}, map[string]string{}
	for _, m := range spec.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range spec.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	return endToEnd, perLayer
}

// TestWorkloads runs every workload untraced and traced at short sizes.
// Each run must pass its own output checks — on a traced run, every seed's
// traced rep reproduces its untraced rep's outputs — and emit exactly the
// metrics BENCHMARK.json declares, with their units.
func TestWorkloads(t *testing.T) {
	endToEnd, perLayer := declared(t)
	for _, name := range workloadNames {
		for _, traced := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/trace=%v", name, traced), func(t *testing.T) {
				cfg := config{workload: name, seed: 1, seconds: time.Millisecond, trace: traced}
				res := run(cfg, newWorkload(name, shortSizes()))
				if !res.correct || res.failed != 0 || res.attempted < minReps {
					t.Fatalf("correct=%v failed=%d attempted=%d", res.correct, res.failed, res.attempted)
				}
				want := endToEnd
				if traced {
					want = perLayer
				}
				got := map[string]float64{}
				for _, m := range res.metrics {
					if want[m.name] != m.unit {
						t.Errorf("metric %s in %q, BENCHMARK.json declares %q", m.name, m.unit, want[m.name])
					}
					got[m.name] = m.value
				}
				if len(got) != len(want) {
					t.Errorf("emitted %d metrics, BENCHMARK.json declares %d", len(got), len(want))
				}
				if !traced {
					for metric, v := range got {
						if !(v > 0) {
							t.Errorf("end-to-end metric %s = %v, want > 0", metric, v)
						}
					}
				}
				if traced && name == "daemon" {
					if c := got["layer_coverage"]; c < 0.95 || c > 1.05 {
						t.Errorf("layer_coverage = %v, want within [0.95, 1.05]", c)
					}
					for _, seg := range []string{"mapreduce_spark.step_ms", "cluster.step_ms", "core_straggler.step_ms"} {
						if !(got[seg] > 0) {
							t.Errorf("%s = %v, want > 0", seg, got[seg])
						}
					}
				}
			})
		}
	}
}

// TestMixDigestPinned pins the simulated outputs of one short mix rep, so a
// change to the model shows here as well as in the benchmark's own checks.
// Run with -update after a deliberate model change.
func TestMixDigestPinned(t *testing.T) {
	out := mixRep(shortSizes().mix)(newProbe(variant{}), defaultSeed)
	if err := out.calls[0].err; err != nil {
		t.Fatal(err)
	}
	got := fmt.Sprintf("%016x", out.calls[0].digest)
	const path = "testdata/mix_short.digest"
	if *update {
		if err := os.WriteFile(path, []byte(got+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if want := strings.TrimSpace(string(b)); got != want {
		t.Fatalf("mix digest %s, pinned %s: the simulated outputs changed", got, want)
	}
}

// TestFigureChecker checks that a figure call whose outputs differ from
// the warm-up's is a failed operation, and that a panicking figure call
// becomes an error.
func TestFigureChecker(t *testing.T) {
	r := &runner{cfg: config{workload: "variability"}, wl: newWorkload("variability", shortSizes())}
	warm, rep := r.rep(defaultSeed, variant{}), r.rep(defaultSeed, variant{})
	r.compare("warm-up", warm, rep, true)
	if r.failed != 0 {
		t.Fatalf("identical figure calls flagged: failed=%d", r.failed)
	}
	warm.out.calls[0].digest ^= 1
	r.compare("warm-up", warm, rep, true)
	if r.failed != 1 {
		t.Fatalf("a mismatched Fig 12 digest gave failed=%d, want 1", r.failed)
	}
	if err := figureCall(newProbe(variant{}), func() { panic("boom") }); err == nil {
		t.Fatal("a panicking figure call returned no error")
	}
}

func TestParseArgs(t *testing.T) {
	cfg, err := parseArgs(strings.Fields("--workload daemon --seed 7 --seconds 10 --trace 1"))
	if err != nil {
		t.Fatal(err)
	}
	if cfg.workload != "daemon" || cfg.seed != 7 || cfg.seconds != 10*time.Second || !cfg.trace {
		t.Fatalf("parsed %+v", cfg)
	}
	for _, bad := range []string{"--workload nope", "--workload mix --trace 2", "--workload mix --seconds 0", "--workload mix extra"} {
		if _, err := parseArgs(strings.Fields(bad)); err == nil {
			t.Errorf("%q parsed without error", bad)
		}
	}
}
