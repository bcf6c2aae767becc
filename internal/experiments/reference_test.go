package experiments

import (
	"bytes"
	"reflect"
	"testing"
	"time"

	"perfcloud/internal/cloud"
	"perfcloud/internal/cluster"
	"perfcloud/internal/mapreduce"
	"perfcloud/internal/obs"
	"perfcloud/internal/sim"
	"perfcloud/internal/trace"
	"perfcloud/internal/workloads"
)

// The optimised ≡ reference suite. Every experiment normally runs on the
// optimised cluster: quiescent servers parked out of the active set, the
// steady-tick replay, allocator memos and event-driven strides.
// Options.reference reruns it on reference clusters, which tick every
// server's full pipeline every tick with no memo, no replay and no
// stride. Each case must produce a bit-for-bit identical result.

// matchesReference runs one scenario on the optimised path and on the
// reference, and fails the test unless the two results DeepEqual. The
// reference run also checks that every testbed it builds really is one.
func matchesReference(t *testing.T, run func(Options) any) {
	t.Helper()
	got := run(Options{})
	ref := Options{reference: true, OnTestbed: func(tb *Testbed) {
		if !tb.Clus.Reference() {
			t.Error("reference run built an optimised cluster")
		}
	}}
	if want := run(ref); !reflect.DeepEqual(got, want) {
		t.Errorf("optimised result differs from the reference:\nopt: %+v\nref: %+v", got, want)
	}
}

// figureCases are the whole-figure scenarios at seed s: Fig 3, a small
// Fig 11 mix under LATE, Dolly-2 and PerfCloud, and a small Fig 12 grid
// under LATE and PerfCloud. Between them they cover both frameworks,
// antagonists, Dolly cloning and the PerfCloud control loop — so strides
// cross demand-epoch changes (task waves starting and draining), throttle
// flips (the controller capping and restoring antagonists) and monitor
// intervals, and servers park and wake between task waves and antagonist
// bursts.
func figureCases(s int64) []struct {
	name string
	run  func(Options) any
} {
	mix := smallMix()
	mix.Seed = s
	mix.NumMR, mix.NumSpark = 4, 4
	variability := VariabilityConfig{
		Seed:             s,
		Servers:          3,
		WorkersPerServer: 6,
		Runs:             3,
		Fio:              2,
		Streams:          2,
		Tasks:            18,
		Limit:            time.Hour,
	}
	return []struct {
		name string
		run  func(Options) any
	}{
		{"Fig3", func(o Options) any { return Fig3(s, o) }},
		{"Fig11", func(o Options) any {
			cfg := mix
			cfg.Options = o
			return Fig11With(cfg, []Scheme{SchemeLATE(), SchemeDolly(2), SchemePerfCloud()})
		}},
		{"Fig12", func(o Options) any {
			cfg := variability
			cfg.Options = o
			return Fig12With(cfg, []Scheme{SchemeLATE(), SchemePerfCloud()})
		}},
	}
}

// runFigureCases checks every figure case at seed s against the reference.
func runFigureCases(t *testing.T, s int64) {
	for _, tc := range figureCases(s) {
		t.Run(tc.name, func(t *testing.T) { matchesReference(t, tc.run) })
	}
}

// The figure cases run under four names, each at its own seed, so the
// suite checks every figure on four inputs. Each optimised run has every
// fast path on; a name says what the reference gives up against it.

// TestQuiescenceMatchesFullPipeline: the reference ticks idle servers.
func TestQuiescenceMatchesFullPipeline(t *testing.T) { runFigureCases(t, seed) }

// TestMemoizationMatchesFullPipeline: the reference rebuilds every request
// vector and re-solves every allocator every tick.
func TestMemoizationMatchesFullPipeline(t *testing.T) { runFigureCases(t, seed+1) }

// TestStrideMatchesPerTick: the reference steps the engine every tick.
func TestStrideMatchesPerTick(t *testing.T) { runFigureCases(t, seed+2) }

// TestShardingMatchesFlat: the reference visits every server every tick.
func TestShardingMatchesFlat(t *testing.T) { runFigureCases(t, seed+3) }

// tracedPerfCloudRun runs a traced terasort under PerfCloud with an
// always-on fio antagonist and returns the Perfetto JSON, control-plane
// instants included; reference selects the reference cluster.
func tracedPerfCloudRun(t *testing.T, servers int, reference bool) []byte {
	pc := ControllerConfig()
	col := obs.NewCollector()
	pc.Events = col
	tr := trace.NewTracer()
	tb := NewTestbed(TestbedConfig{
		Seed:      7,
		Servers:   servers,
		PerfCloud: pc,
		Tracer:    tr,
		reference: reference,
	})
	tb.MustInput("input", 512<<20)
	tb.AddAntagonist(0, workloads.NewFioRandRead(workloads.AlwaysOn))
	tb.RunMR(mapreduce.Terasort("input", 4), 30*time.Minute)
	var b bytes.Buffer
	if err := tr.WritePerfetto(&b, col.Events()); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// traceMatchesReference fails the test unless a traced PerfCloud run on
// the given number of servers emits Perfetto JSON byte-identical to the
// reference — every span boundary, phase attribution and control-plane
// instant on the same timestamps, strides included.
func traceMatchesReference(t *testing.T, servers int) {
	got, want := tracedPerfCloudRun(t, servers, false), tracedPerfCloudRun(t, servers, true)
	if !bytes.Equal(got, want) {
		t.Error("traced run produced different trace bytes than the reference")
	}
}

// TestStrideTracingByteIdentical checks a traced one-server run.
func TestStrideTracingByteIdentical(t *testing.T) { traceMatchesReference(t, 1) }

// TestShardTracingByteIdentical checks a traced three-server run.
func TestShardTracingByteIdentical(t *testing.T) { traceMatchesReference(t, 3) }

// runJobUntil steps the testbed to simulated time targetSec and reports
// whether job j is still running there. The time target is folded into
// every step's stride bound, with the completion predicate, as RunUntil
// folds its predicate, so neither an optimised nor a reference run
// overshoots the target or the job's last tick.
func runJobUntil(tb *Testbed, j *mapreduce.Job, targetSec float64) bool {
	st := tb.Stepper()
	clk := tb.Eng.Clock()
	bound := func(c *sim.Clock) int64 {
		if j.Done() {
			return 0
		}
		return c.TicksBefore(targetSec, 1<<40)
	}
	for clk.Seconds() < targetSec && !j.Done() {
		st.Step(bound)
	}
	return !j.Done()
}

// TestStrideAcrossThrottleFlip pins the throttle event source: a static
// cap applied (and later lifted) between strides must yield the
// reference's job completion and antagonist I/O bit for bit — the
// cgroup's throttle sequence bump forces the elided ticks' pipeline to
// rebuild exactly as per-tick stepping does.
func TestStrideAcrossThrottleFlip(t *testing.T) {
	type outcome struct{ jct, ops float64 }
	run := func(reference bool) outcome {
		tb := NewTestbed(TestbedConfig{Seed: 11, Servers: 1, reference: reference})
		tb.MustInput("input", 2<<30)
		tb.AddAntagonist(0, workloads.NewFioRandRead(workloads.AlwaysOn))
		j, err := tb.JT.Submit(mapreduce.Terasort("input", 8), 0)
		if err != nil {
			t.Fatal(err)
		}
		// Let contention build, then cap the antagonist; lift the cap
		// later. The job runs ~42 s uncapped, so both flips land mid-run
		// and strides must rebuild against the new caps on either side.
		if !runJobUntil(tb, j, 10) {
			t.Fatal("job finished before the cap flip — scenario no longer exercises a mid-run throttle change")
		}
		tb.CapAntagonistIOPS("fio-randread", 0.2, FioSoloIOPS)
		if !runJobUntil(tb, j, 20) {
			t.Fatal("job finished before the cap lift — scenario no longer exercises a mid-run throttle change")
		}
		vm := tb.Clus.FindVM("fio-randread")
		vm.Cgroup().SetReadIOPS(0)
		vm.Server().MarkDirty()
		if !tb.Stepper().RunUntil(j.Done, time.Hour) {
			t.Fatal("job did not finish")
		}
		return outcome{j.JCT(), vm.Cgroup().Snapshot().Blkio.IoServiced}
	}
	got, want := run(false), run(true)
	if got.jct != want.jct {
		t.Errorf("JCT differs from the reference: optimised %v, reference %v", got.jct, want.jct)
	}
	if got.ops != want.ops {
		t.Errorf("antagonist ops differ from the reference: optimised %v, reference %v", got.ops, want.ops)
	}
}

// TestParkAndWakeMatchesReference covers what the figure cases cannot:
// Hadoop executors never report Done, so a server hosting workers never
// parks. Here a spare server hosts only antagonists. One finishes its
// finite work, the server parks out of the active set, and a second,
// until then workload-less VM wakes it mid-job. The elided idle ticks'
// disk jitter draws must be replayed exactly, so the job's JCT and both
// antagonists' cgroup counters must match the reference.
func TestParkAndWakeMatchesReference(t *testing.T) {
	type outcome struct {
		jct  float64
		cgs  []any
		last cluster.Grant
	}
	run := func(reference bool) outcome {
		tb := NewTestbed(TestbedConfig{Seed: 13, Servers: 2, reference: reference})
		tb.CM.ProvisionServers(1) // server-2: no Hadoop workers
		tb.MustInput("input", 4<<30)
		first := workloads.NewStreamWithWork(workloads.AlwaysOn, 40e9)
		tb.AddAntagonist(2, first)
		late, err := tb.CM.Boot(cloud.VMSpec{Name: "late-fio", Priority: cluster.LowPriority, ServerID: "server-2"})
		if err != nil {
			t.Fatal(err)
		}
		j, err := tb.JT.Submit(mapreduce.Terasort("input", 8), 0)
		if err != nil {
			t.Fatal(err)
		}
		if !runJobUntil(tb, j, 8) {
			t.Fatal("job finished before the wake — scenario no longer parks and wakes the spare server")
		}
		if !first.Done() || (!tb.Clus.Reference() && tb.Clus.ActiveServers() != 2) {
			t.Fatal("spare server did not park before the wake")
		}
		late.SetWorkload(workloads.NewFioRandRead(workloads.AlwaysOn))
		if !tb.Stepper().RunUntil(j.Done, time.Hour) {
			t.Fatal("job did not finish")
		}
		return outcome{
			jct:  j.JCT(),
			cgs:  []any{tb.Clus.FindVM("stream").Cgroup().Snapshot(), late.Cgroup().Snapshot()},
			last: late.LastGrant(),
		}
	}
	got, want := run(false), run(true)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("optimised run differs from the reference:\nopt: %+v\nref: %+v", got, want)
	}
}
