package experiments

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"perfcloud/internal/mapreduce"
	"perfcloud/internal/obs"
	"perfcloud/internal/trace"
	"perfcloud/internal/workloads"
)

// observedRun runs back-to-back terasort jobs for two simulated minutes
// next to bursty fio and STREAM antagonists, on a PerfCloud testbed
// carrying the observers sel selects, and returns the finished testbed
// with its bundle.
func observedRun(t *testing.T, sel Observe) (*Testbed, Observers) {
	t.Helper()
	cfg := TestbedConfig{Seed: 42, PerfCloud: ControllerConfig()}
	ob := sel.Attach(&cfg)
	tb := NewTestbed(cfg)
	t.Cleanup(tb.Close)
	ob.Bind(tb)
	tb.MustInput("input", 640<<20)
	tb.AddAntagonist(0, workloads.NewFioRandRead(
		workloads.BurstPattern{On: 20 * time.Second, Off: 10 * time.Second}))
	tb.AddAntagonist(0, workloads.NewStream(
		workloads.BurstPattern{On: 25 * time.Second, Off: 10 * time.Second}))
	for tb.Eng.Clock().Seconds() < 120 {
		j, err := tb.JT.Submit(mapreduce.Terasort("input", 10), tb.Eng.Clock().Seconds())
		if err != nil {
			t.Fatal(err)
		}
		if !tb.Stepper().RunUntil(j.Done, time.Hour) {
			t.Fatal("job did not finish")
		}
	}
	return tb, ob
}

// TestObserversShareOneEventLog turns every observer on and checks that
// the trace export, the scorecard and the alert engine all read one
// event log, and that Out receives the same events in the same order.
func TestObserversShareOneEventLog(t *testing.T) {
	t.Parallel()
	out := obs.NewCollector()
	tb, ob := observedRun(t, Observe{
		Trace: true, Scorecard: true,
		Rules: obs.DefaultRules(obs.DefaultRulesConfig{}),
		Out:   out,
	})
	events := ob.Events()
	if !reflect.DeepEqual(events, out.Events()) {
		t.Fatalf("Out got %d events, the bundle %d, or in another order", len(out.Events()), len(events))
	}
	var caps, firings int
	for _, e := range events {
		switch {
		case e.Type == obs.EventCap:
			caps++
		case e.Type == obs.EventAlert && e.State == obs.StateFiring:
			firings++
		}
	}
	if caps == 0 || firings == 0 {
		t.Fatalf("the run made %d caps and %d alert firings; the checks below would be vacuous", caps, firings)
	}

	var got, want bytes.Buffer
	if err := ob.WriteTrace(&got); err != nil {
		t.Fatal(err)
	}
	if err := ob.Tracer.WritePerfetto(&want, events); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Error("the trace export did not render the bundle's events")
	}

	sc := ob.Score(tb, "perfcloud")
	wantSc := obs.Score(events, tb.Truth, tb.Eng.Clock().Seconds())
	wantSc.Scheme = "perfcloud"
	if !reflect.DeepEqual(sc, wantSc) {
		t.Errorf("Score = %+v, want the grade of the bundle's events %+v", sc, wantSc)
	}
	if sc.TrueCaps+sc.FalseCaps != caps {
		t.Errorf("scorecard counts %d caps, the event log %d", sc.TrueCaps+sc.FalseCaps, caps)
	}

	if n := ob.Alerts.Summary().Firings; n != firings {
		t.Errorf("alert engine fired %d times, the event log holds %d firings", n, firings)
	}
}

// TestAttachNothingAllocatesNothing pins the zero-cost path every
// unobserved experiment run takes: with nothing selected Attach neither
// allocates nor touches the config.
func TestAttachNothingAllocatesNothing(t *testing.T) {
	cfg := TestbedConfig{Seed: 1, PerfCloud: ControllerConfig()}
	before := *cfg.PerfCloud
	var ob Observers
	if n := testing.AllocsPerRun(100, func() { ob = Observe{}.Attach(&cfg) }); n != 0 {
		t.Fatalf("Attach with nothing selected: %v allocs, want 0", n)
	}
	if ob != (Observers{}) || cfg.Tracer != nil || !reflect.DeepEqual(*cfg.PerfCloud, before) {
		t.Fatalf("Attach with nothing selected changed the config or built observers: %+v", ob)
	}
}

// failCloser is a trace file whose Close fails after the writes succeed.
type failCloser struct{ bytes.Buffer }

func (*failCloser) Close() error { return errors.New("close: disk quota exceeded") }

// TestWriteTraceReportsCloseError checks that a failed close of the
// trace file is reported, not dropped after a clean write, and that an
// unwritable path is an error rather than a panic.
func TestWriteTraceReportsCloseError(t *testing.T) {
	ob := Observers{Tracer: trace.NewTracer()}
	var f failCloser
	err := ob.writeAndClose(&f)
	if err == nil || !strings.Contains(err.Error(), "disk quota") {
		t.Fatalf("writeAndClose = %v, want the close error", err)
	}
	if f.Len() == 0 {
		t.Fatal("writeAndClose did not write the trace before closing")
	}
	if err := ob.ExportTrace(filepath.Join(t.TempDir(), "missing", "t.json")); err == nil {
		t.Fatal("ExportTrace into a missing directory returned nil")
	}
}

// TestObservedFig11Golden pins the stdout and the six trace files of
//
//	perfbench -fig 11 -quick -scorecard -alerts -tracedir traces > fig11.stdout
//
// at seed 42 against testdata/observed.sha256, which is in sha256sum
// format: run that command in a scratch directory, then
// `sha256sum -c <repo>/internal/experiments/testdata/observed.sha256`
// checks the same bytes from the command line (make golden).
func TestObservedFig11Golden(t *testing.T) {
	t.Parallel()
	want := map[string]string{}
	b, err := os.ReadFile("testdata/observed.sha256")
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(strings.TrimSuffix(string(b), "\n"), "\n") {
		sum, name, ok := strings.Cut(line, "  ")
		if !ok {
			t.Fatalf("observed.sha256: malformed line %q", line)
		}
		want[name] = sum
	}

	dir := t.TempDir()
	out := figure(t, "11").Run(42, Options{TraceDir: dir, Scorecards: true, AlertRules: obs.DefaultRules(obs.DefaultRulesConfig{})}, true)
	var stdout bytes.Buffer
	for _, tab := range out.Tables {
		fmt.Fprintln(&stdout, tab.String())
	}
	got := map[string][]byte{"fig11.stdout": stdout.Bytes()}
	files, err := filepath.Glob(filepath.Join(dir, "*"))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		if got["traces/"+filepath.Base(f)], err = os.ReadFile(f); err != nil {
			t.Fatal(err)
		}
	}
	if len(got) != len(want) {
		t.Errorf("run wrote %d outputs, observed.sha256 pins %d", len(got), len(want))
	}
	for name, b := range got {
		if sum := fmt.Sprintf("%x", sha256.Sum256(b)); sum != want[name] {
			t.Errorf("%s: sha256 %s, want %s", name, sum, want[name])
		}
	}
}
