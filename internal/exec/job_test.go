package exec

import (
	"fmt"
	"testing"
	"time"

	"perfcloud/internal/trace"
)

// chainStages builds a stage function whose every stage is n small tasks,
// named <job>/sNN.
func chainStages(n int) func(id string, i int) (string, []TaskSpec) {
	return func(id string, i int) (string, []TaskSpec) {
		name := fmt.Sprintf("%s/s%02d", id, i)
		specs := make([]TaskSpec, n)
		for k := range specs {
			specs[k] = smallSpec(fmt.Sprintf("%s-t%03d", name, k))
		}
		return name, specs
	}
}

// TestStagedJobChain drives 1-, 2- and 5-stage chains through one
// Scheduler and checks the stage machine's contract: strict barriers,
// the next stage started in the tick its predecessor finishes,
// StrideQuiet refusing queued jobs and finished stages, Kill confined to
// the running stage, and JCT and Account summed over the stages.
func TestStagedJobChain(t *testing.T) {
	for _, stages := range []int{1, 2, 5} {
		t.Run(fmt.Sprintf("stages=%d", stages), func(t *testing.T) {
			h := newHarness(t, 2, 2)
			tr := trace.NewTracer()
			for _, e := range h.pool {
				e.SetTracer(tr)
			}
			s := NewScheduler(h.pool, nil)
			s.SetTracer(tr)
			h.eng.RegisterPriority(s, -1)

			j := s.Submit("chain", stages, chainStages(3), 0)
			if s.StrideQuiet() {
				t.Fatal("StrideQuiet with a queued job")
			}
			if j.ID() != "chain-0" || j.State() != JobQueued {
				t.Fatalf("submitted job %q in state %v", j.ID(), j.State())
			}
			doneAt := -1.0
			for i := 0; i < 100000 && !j.Done(); i++ {
				now := h.eng.Clock().Seconds()
				h.eng.Step()
				if j.Done() {
					doneAt = now
					break
				}
				sets := j.TaskSets()
				if len(sets) != j.StageIndex()+1 {
					t.Fatalf("tick %d: %d stages started, running stage %d", i, len(sets), j.StageIndex())
				}
				for k, ts := range sets[:len(sets)-1] {
					if !ts.Done() {
						t.Fatalf("tick %d: stage %d started before stage %d is done", i, len(sets)-1, k)
					}
				}
				// The stage machine chains within the tick, so the stage it
				// leaves running is never one that already finished.
				if sets[len(sets)-1].Done() {
					t.Fatalf("tick %d: stage %d done but its successor not started", i, len(sets)-1)
				}
			}
			if !j.Completed() || j.StageIndex() != stages || len(j.TaskSets()) != stages {
				t.Fatalf("state %v at stage %d with %d sets", j.State(), j.StageIndex(), len(j.TaskSets()))
			}
			if j.JCT() != doneAt {
				t.Errorf("JCT = %v, want the completing tick's time %v", j.JCT(), doneAt)
			}
			spans := tr.Spans()
			for k, ts := range j.TaskSets() {
				sp := spans[ts.Span()]
				if k > 0 && sp.StartSec != spans[j.TaskSets()[k-1].Span()].EndSec {
					t.Errorf("stage %d started at %v, stage %d ended at %v", k, sp.StartSec, k-1,
						spans[j.TaskSets()[k-1].Span()].EndSec)
				}
				if k == stages-1 && sp.EndSec != doneAt {
					t.Errorf("last stage ended at %v, job at %v", sp.EndSec, doneAt)
				}
			}
			now := h.eng.Clock().Seconds()
			var sum Accounting
			for _, ts := range j.TaskSets() {
				a := ts.Account(now)
				sum.SuccessfulSeconds += a.SuccessfulSeconds
				sum.TotalSeconds += a.TotalSeconds
			}
			if acc := j.Account(now); acc != sum || acc.TotalSeconds <= 0 {
				t.Errorf("Account = %+v, want the stages' sum %+v", acc, sum)
			}
			if !s.StrideQuiet() {
				t.Error("StrideQuiet false with every job finished")
			}

			// A second job, killed mid-chain: only its running stage dies.
			k := s.Submit("chain", stages, chainStages(3), now)
			if s.StrideQuiet() {
				t.Fatal("StrideQuiet with a queued job behind a finished one")
			}
			mid := stages / 2
			running := func() bool {
				sets := k.TaskSets()
				return len(sets) == mid+1 && len(sets[mid].RunningAttempts()) > 0
			}
			if !h.eng.RunUntil(running, time.Hour) {
				t.Fatalf("job never ran stage %d", mid)
			}
			k.Kill(h.eng.Clock().Seconds())
			sets := k.TaskSets()
			for i, ts := range sets {
				if ts.Killed() != (i == mid) {
					t.Errorf("stage %d killed = %v, want %v", i, ts.Killed(), i == mid)
				}
				if sp := tr.Spans()[ts.Span()]; sp.Killed != (i == mid) {
					t.Errorf("stage %d span killed = %v, want %v", i, sp.Killed, i == mid)
				}
			}
			if k.State() != JobKilled || h.pool.FreeSlots() != 4 {
				t.Errorf("after kill: state %v, free slots %d", k.State(), h.pool.FreeSlots())
			}
			if acc := k.Account(h.eng.Clock().Seconds()); acc.SuccessfulSeconds != 0 || acc.TotalSeconds <= 0 {
				t.Errorf("killed job Account = %+v, want only waste", acc)
			}
			h.eng.Run(20)
			if len(k.TaskSets()) != len(sets) {
				t.Error("a killed job started another stage")
			}
		})
	}
}

// TestStrideQuietOnFinishedStage: a running job whose current stage is
// done (here killed underneath the job) has a transition pending, so the
// scheduler is not quiet until its next Tick moves the job on.
func TestStrideQuietOnFinishedStage(t *testing.T) {
	h := newHarness(t, 2, 2)
	s := NewScheduler(h.pool, nil)
	h.eng.RegisterPriority(s, -1)
	j := s.Submit("chain", 2, chainStages(6), 0)
	h.eng.Run(3)
	if !s.StrideQuiet() {
		t.Fatal("a saturated running stage should be quiet")
	}
	j.TaskSets()[0].Kill(h.eng.Clock().Seconds())
	if s.StrideQuiet() {
		t.Fatal("StrideQuiet with the current stage done")
	}
	h.eng.Step()
	if j.StageIndex() != 1 || len(j.TaskSets()) != 2 {
		t.Fatalf("stage %d with %d sets after the tick", j.StageIndex(), len(j.TaskSets()))
	}
}

func TestJobStateString(t *testing.T) {
	for s, want := range map[JobState]string{
		JobQueued: "queued", JobRunning: "running", JobCompleted: "completed", JobKilled: "killed",
	} {
		if s.String() != want {
			t.Errorf("%d.String() = %q, want %q", s, s.String(), want)
		}
	}
}

func TestPad3(t *testing.T) {
	for n, want := range map[int]string{0: "000", 7: "007", 42: "042", 999: "999", 1000: "1000", -1: "-1"} {
		if got := Pad3(n); got != want {
			t.Errorf("Pad3(%d) = %q, want %q", n, got, want)
		}
	}
}
