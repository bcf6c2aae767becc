package trace

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"perfcloud/internal/obs"
)

func TestNilTracerIsNoOp(t *testing.T) {
	var tr *Tracer
	id := tr.Start(KindJob, "j", "", NoSpan, 0)
	if id != NoSpan {
		t.Fatalf("Start on nil tracer = %v, want NoSpan", id)
	}
	// None of these may panic.
	tr.End(id, 1)
	tr.AddPhase(id, PhaseCPU, 1)
	tr.MarkSpeculative(id)
	tr.MarkKilled(id)
	tr.MarkCachedInput(id, 1)
	tr.FirstLaunch(id, 1)
	if tr.Len() != 0 || tr.Spans() != nil {
		t.Error("nil tracer should report no spans")
	}
	if got := tr.Totals(); got != (PhaseTotals{}) {
		t.Errorf("nil tracer totals = %+v", got)
	}
	if tr.PhaseReport() == nil || tr.CriticalPathReport() == nil {
		t.Error("nil tracer reports should render empty tables")
	}
}

// buildTree records a small job: one task set with two tasks; task t0
// completes, its speculative backup is killed; t1 reads from cache.
func buildTree() *Tracer {
	tr := NewTracer()
	job := tr.Start(KindJob, "job-0", "", NoSpan, 0)
	set := tr.Start(KindTaskSet, "job-0/map", "", job, 0)
	t0 := tr.Start(KindTask, "t0", "", set, 0)
	t1 := tr.Start(KindTask, "t1", "", set, 0)

	a0 := tr.Start(KindAttempt, "t0", "vm-a/slot0", t0, 1)
	tr.FirstLaunch(t0, 1)
	tr.AddPhase(a0, PhaseDiskWait, 2)
	tr.AddPhase(a0, PhaseCPU, 3)
	tr.End(a0, 6)
	tr.End(t0, 6)

	spec := tr.Start(KindAttempt, "t0", "vm-b/slot0", t0, 3)
	tr.MarkSpeculative(spec)
	tr.AddPhase(spec, PhaseCPIStall, 3)
	tr.MarkKilled(spec)
	tr.End(spec, 6)

	a1 := tr.Start(KindAttempt, "t1", "vm-a/slot1", t1, 2)
	tr.FirstLaunch(t1, 2)
	tr.MarkCachedInput(a1, 0.5)
	tr.AddPhase(a1, PhaseCacheRead, 1)
	tr.AddPhase(a1, PhaseCPU, 6)
	tr.End(a1, 9)
	tr.End(t1, 9)

	tr.End(set, 9)
	tr.End(job, 9)
	return tr
}

func TestTotals(t *testing.T) {
	pt := buildTree().Totals()
	if pt.Attempts != 3 {
		t.Errorf("attempts = %d, want 3", pt.Attempts)
	}
	if pt.WallSec != 5+3+7 {
		t.Errorf("wall = %v, want 15", pt.WallSec)
	}
	if pt.QueueWaitSec != 1+2 {
		t.Errorf("queue wait = %v, want 3", pt.QueueWaitSec)
	}
	if pt.SpeculativeWasteSec != 3 || pt.KilledWasteSec != 0 {
		t.Errorf("waste = %v/%v, want 3/0", pt.SpeculativeWasteSec, pt.KilledWasteSec)
	}
	if pt.CacheSavedSec != 0.5 {
		t.Errorf("cache saved = %v", pt.CacheSavedSec)
	}
	if pt.Phases[PhaseCPU] != 9 || pt.Phases[PhaseDiskWait] != 2 ||
		pt.Phases[PhaseCPIStall] != 3 || pt.Phases[PhaseCacheRead] != 1 {
		t.Errorf("phase totals = %v", pt.Phases)
	}
}

func TestEndIsIdempotentAndQueueWaitLatches(t *testing.T) {
	tr := NewTracer()
	task := tr.Start(KindTask, "t", "", NoSpan, 10)
	tr.FirstLaunch(task, 12)
	tr.FirstLaunch(task, 99) // speculative relaunch must not reset it
	tr.End(task, 20)
	tr.End(task, 50) // late duplicate end must not move the span
	s := tr.Spans()[0]
	if s.QueueWaitSec != 2 {
		t.Errorf("queue wait = %v, want 2", s.QueueWaitSec)
	}
	if s.EndSec != 20 || s.Open {
		t.Errorf("span end = %v open=%v, want 20/closed", s.EndSec, s.Open)
	}
}

func TestPhaseReportAndCriticalPath(t *testing.T) {
	tr := buildTree()
	rep := tr.PhaseReport().String()
	if !strings.Contains(rep, "job-0") {
		t.Errorf("phase report missing job row:\n%s", rep)
	}
	cp := tr.CriticalPathReport()
	if len(cp.Rows) != 1 {
		t.Fatalf("critical path rows = %d, want 1:\n%s", len(cp.Rows), cp.String())
	}
	// t1's attempt ends last (9s) and the killed backup must not win.
	if cp.Rows[0][2] != "t1" {
		t.Errorf("critical attempt = %q, want t1", cp.Rows[0][2])
	}
}

func TestWritePerfettoIsValidAndDeterministic(t *testing.T) {
	events := []obs.Event{
		{T: 5, Type: obs.EventCap, Server: "server-0", VM: "fio", Res: "io", OldCap: 0, NewCap: 2000},
		{T: 7, Type: obs.EventSample, Server: "server-0"}, // not a control action: excluded
		{T: 9, Type: obs.EventRelease, Server: "server-0", VM: "fio", Res: "io"},
	}
	var a, b bytes.Buffer
	if err := buildTree().WritePerfetto(&a, events); err != nil {
		t.Fatal(err)
	}
	if err := buildTree().WritePerfetto(&b, events); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("same tree produced different bytes")
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(a.Bytes(), &doc); err != nil {
		t.Fatalf("output is not valid JSON: %v\n%s", err, a.String())
	}
	var attempts, instants, metas int
	for _, ev := range doc.TraceEvents {
		switch ev["ph"] {
		case "X":
			if ev["cat"] == "attempt" {
				attempts++
			}
		case "i":
			instants++
		case "M":
			metas++
		}
	}
	if attempts != 3 {
		t.Errorf("attempt events = %d, want 3", attempts)
	}
	if instants != 2 {
		t.Errorf("instant events = %d, want 2 (cap+release)", instants)
	}
	if metas == 0 {
		t.Error("expected process/thread metadata events")
	}
}

func TestQuoteJSONEscapes(t *testing.T) {
	got := string(appendQuoted(nil, "a\"b\\c\nd"))
	want := `"a\"b\\c\u000ad"`
	if got != want {
		t.Errorf("appendQuoted = %s, want %s", got, want)
	}
	var s string
	if err := json.Unmarshal([]byte(got), &s); err != nil || s != "a\"b\\c\nd" {
		t.Errorf("round trip = %q, err %v", s, err)
	}
}
