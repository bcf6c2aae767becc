package mapreduce

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"perfcloud/internal/cluster"
	"perfcloud/internal/dfs"
	"perfcloud/internal/exec"
	"perfcloud/internal/sim"
	"perfcloud/internal/trace"
	"perfcloud/internal/workloads"
)

// harness builds a 6-VM single-server Hadoop cluster with a job tracker.
type harness struct {
	eng  *sim.Engine
	clus *cluster.Cluster
	srv  *cluster.Server
	pool exec.Pool
	fs   *dfs.FileSystem
	jt   *JobTracker
}

func newHarness(t *testing.T, nVMs int, spec exec.Speculator) *harness {
	t.Helper()
	h := &harness{}
	h.eng = sim.NewEngine(100*time.Millisecond, 7)
	h.clus = cluster.New()
	h.srv = h.clus.AddServer("s0", cluster.DefaultServerConfig(), h.eng.RNG())
	var names []string
	for i := 0; i < nVMs; i++ {
		id := fmt.Sprintf("hadoop-%d", i)
		vm := h.clus.AddVM(h.srv, id, 2, 8<<30, cluster.HighPriority, "hadoop")
		h.pool = append(h.pool, exec.NewExecutor(vm, 2))
		names = append(names, id)
	}
	h.fs = dfs.New(dfs.DefaultConfig(), names, rand.New(rand.NewSource(11)))
	h.jt = NewJobTracker(h.pool, h.fs, spec)
	h.eng.RegisterPriority(h.jt, -1)
	h.eng.RegisterPriority(h.clus, 0)
	return h
}

func (h *harness) runJob(t *testing.T, cfg JobConfig, limit time.Duration) *Job {
	t.Helper()
	j, err := h.jt.Submit(cfg, h.eng.Clock().Seconds())
	if err != nil {
		t.Fatal(err)
	}
	if !h.eng.RunUntil(j.Done, limit) {
		t.Fatalf("job %s stuck in state %v", j.ID(), j.State())
	}
	return j
}

func TestTerasortRunsToCompletion(t *testing.T) {
	h := newHarness(t, 6, nil)
	h.fs.Create("input", 640<<20)
	j := h.runJob(t, Terasort("input", 10), 30*time.Minute)
	if !j.Completed() {
		t.Fatalf("state = %v", j.State())
	}
	if maps := j.TaskSets()[0].NumTasks(); maps != 10 {
		t.Errorf("maps = %d, want 10", maps)
	}
	if j.JCT() <= 0 {
		t.Errorf("JCT = %v", j.JCT())
	}
	// All tasks have a winning attempt; no kills without speculation.
	for _, ts := range j.TaskSets() {
		for _, task := range ts.Tasks() {
			if !task.Done() {
				t.Errorf("task %s not done", task.Spec().ID)
			}
			if len(task.Attempts()) != 1 {
				t.Errorf("task %s attempts = %d", task.Spec().ID, len(task.Attempts()))
			}
		}
	}
	if eff := j.Account(h.eng.Clock().Seconds()).Efficiency(); eff != 1 {
		t.Errorf("efficiency without speculation = %v, want 1", eff)
	}
}

// TestStateStringAndPhases follows a job through its phases: queued,
// the map stage, the reduce stage, completed — with the task-set and
// task ids each stage is named by.
func TestStateStringAndPhases(t *testing.T) {
	h := newHarness(t, 6, nil)
	h.fs.Create("input", 320<<20)
	j, _ := h.jt.Submit(Terasort("input", 3), 0)
	if j.ID() != "terasort-0" || j.State().String() != "queued" || len(j.TaskSets()) != 0 {
		t.Fatalf("submitted: id %q state %v sets %d", j.ID(), j.State(), len(j.TaskSets()))
	}
	seen := map[int]bool{}
	for i := 0; i < 10000 && !j.Done(); i++ {
		h.eng.Step()
		if j.Done() {
			break
		}
		if j.State().String() != "running" {
			t.Fatalf("started job state = %v", j.State())
		}
		seen[j.StageIndex()] = true
	}
	if !seen[0] || !seen[1] || j.State().String() != "completed" || j.StageIndex() != 2 {
		t.Fatalf("stages seen %v, final state %v at stage %d", seen, j.State(), j.StageIndex())
	}
	sets := j.TaskSets()
	if len(sets) != 2 || sets[0].Name() != "terasort-0/map" || sets[1].Name() != "terasort-0/reduce" {
		t.Fatalf("task sets = %v", sets)
	}
	if id := sets[0].Tasks()[0].Spec().ID; id != "terasort-0/m000" {
		t.Errorf("first map id = %q", id)
	}
	if id := sets[1].Tasks()[2].Spec().ID; id != "terasort-0/r002" {
		t.Errorf("last reduce id = %q", id)
	}
	if s := exec.JobKilled.String(); s != "killed" {
		t.Errorf("JobKilled.String() = %q", s)
	}
}

func TestReduceBarrierOrdering(t *testing.T) {
	h := newHarness(t, 6, nil)
	h.fs.Create("input", 320<<20)
	j, _ := h.jt.Submit(Terasort("input", 5), 0)
	// While the map set is not done, no reduce set may exist.
	for i := 0; i < 10000 && !j.Done(); i++ {
		if sets := j.TaskSets(); len(sets) == 2 && !sets[0].Done() {
			t.Fatal("reduce set created before map barrier")
		}
		h.eng.Step()
	}
	if !j.Completed() {
		t.Fatalf("state = %v", j.State())
	}
}

func TestMapOnlyJob(t *testing.T) {
	h := newHarness(t, 4, nil)
	h.fs.Create("input", 128<<20)
	cfg := Wordcount("input", 0)
	j := h.runJob(t, cfg, 30*time.Minute)
	if !j.Completed() || len(j.TaskSets()) != 1 {
		t.Errorf("map-only job: state=%v task sets=%d", j.State(), len(j.TaskSets()))
	}
}

func TestSubmitErrors(t *testing.T) {
	h := newHarness(t, 2, nil)
	if _, err := h.jt.Submit(Terasort("missing", 2), 0); err == nil {
		t.Error("missing input: want error")
	}
	h.fs.Create("input", 64<<20)
	bad := Terasort("input", 2)
	bad.NumReduces = -1
	if _, err := h.jt.Submit(bad, 0); err == nil {
		t.Error("negative reduces: want error")
	}
}

func TestKillJob(t *testing.T) {
	h := newHarness(t, 4, nil)
	h.fs.Create("input", 640<<20)
	j, _ := h.jt.Submit(Terasort("input", 10), 0)
	h.eng.Run(20)
	j.Kill(h.eng.Clock().Seconds())
	if !j.Done() || j.Completed() || j.State() != exec.JobKilled {
		t.Fatalf("state = %v", j.State())
	}
	if j.JCT() <= 0 {
		t.Error("killed job should have a finish time")
	}
	// Slots freed.
	free := 0
	for _, e := range h.pool {
		free += e.FreeSlots()
	}
	if free != 8 {
		t.Errorf("free slots = %d, want all 8", free)
	}
	// Killing again is a no-op; efficiency reflects the waste.
	j.Kill(999)
	if eff := j.Account(h.eng.Clock().Seconds()).Efficiency(); eff != 0 {
		t.Errorf("efficiency of fully killed job = %v, want 0", eff)
	}
}

// TestKillDuringReduceSparesMapWave kills a job in its reduce wave: the
// reduce set and the job are killed, but the map wave had completed, so
// neither it nor its span is marked killed.
func TestKillDuringReduceSparesMapWave(t *testing.T) {
	h := newHarness(t, 4, nil)
	tr := trace.NewTracer()
	for _, e := range h.pool {
		e.SetTracer(tr)
	}
	h.jt.SetTracer(tr)
	h.fs.Create("input", 320<<20)
	j, _ := h.jt.Submit(Terasort("input", 4), 0)
	if !h.eng.RunUntil(func() bool { return j.StageIndex() == 1 }, time.Hour) {
		t.Fatal("job never reached its reduce wave")
	}
	h.eng.Run(5)
	if j.Done() {
		t.Fatal("job finished before the kill")
	}
	j.Kill(h.eng.Clock().Seconds())
	sets := j.TaskSets()
	if sets[0].Killed() || !sets[1].Killed() {
		t.Fatalf("killed: map %v reduce %v, want false true", sets[0].Killed(), sets[1].Killed())
	}
	killed := map[trace.SpanID]bool{}
	for _, s := range tr.Spans() {
		killed[s.ID] = s.Killed
	}
	if killed[sets[0].Span()] || !killed[sets[1].Span()] {
		t.Errorf("span killed marks: map %v reduce %v, want false true",
			killed[sets[0].Span()], killed[sets[1].Span()])
	}
	if acc := sets[0].Account(h.eng.Clock().Seconds()); acc.Efficiency() != 1 {
		t.Errorf("completed map wave efficiency = %v, want 1", acc.Efficiency())
	}
}

func TestFIFOAcrossJobs(t *testing.T) {
	h := newHarness(t, 2, nil) // 4 slots total
	h.fs.Create("a", 640<<20)
	h.fs.Create("b", 640<<20)
	j1, _ := h.jt.Submit(Terasort("a", 2), 0)
	j2, _ := h.jt.Submit(Terasort("b", 2), 0)
	h.eng.Run(2)
	// First job's maps grab the slots first.
	run1 := len(j1.TaskSets()[0].RunningAttempts())
	if run1 != 4 {
		t.Errorf("job1 running = %d, want all 4 slots", run1)
	}
	if sets := j2.TaskSets(); len(sets) > 0 && len(sets[0].RunningAttempts()) != 0 {
		t.Errorf("job2 should wait for slots")
	}
	if !h.eng.RunUntil(func() bool { return j1.Done() && j2.Done() }, time.Hour) {
		t.Fatal("jobs stuck")
	}
	if j2.JCT() <= j1.JCT() {
		t.Errorf("FIFO: j2 (%v) should finish after j1 (%v)", j2.JCT(), j1.JCT())
	}
}

func TestWorkloadShapesDiffer(t *testing.T) {
	// Terasort is I/O-dominant, wordcount compute-dominant: on the same
	// input, wordcount should take clearly longer alone (more instr/byte),
	// while terasort should suffer more from an I/O antagonist.
	jct := func(cfg func(string, int) JobConfig, withFio bool) float64 {
		h := newHarness(t, 6, nil)
		h.fs.Create("input", 640<<20)
		if withFio {
			fioVM := h.clus.AddVM(h.srv, "fio", 2, 8<<30, cluster.LowPriority, "")
			fioVM.SetWorkload(workloads.NewFioRandRead(workloads.AlwaysOn))
		}
		j := h.runJob(t, cfg("input", 10), time.Hour)
		return j.JCT()
	}
	tsAlone := jct(Terasort, false)
	tsFio := jct(Terasort, true)
	wcAlone := jct(Wordcount, false)
	wcFio := jct(Wordcount, true)

	tsDeg := tsFio / tsAlone
	wcDeg := wcFio / wcAlone
	if tsDeg < 1.3 {
		t.Errorf("terasort degradation = %vx, want >= 1.3x under fio", tsDeg)
	}
	if tsDeg <= wcDeg {
		t.Errorf("terasort (%vx) should degrade more than wordcount (%vx)", tsDeg, wcDeg)
	}
}

func TestInvertedIndexCompletes(t *testing.T) {
	h := newHarness(t, 6, nil)
	h.fs.Create("wiki", 320<<20)
	j := h.runJob(t, InvertedIndex("wiki", 5), time.Hour)
	if !j.Completed() {
		t.Fatalf("state = %v", j.State())
	}
}
