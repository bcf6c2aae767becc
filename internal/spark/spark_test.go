package spark

import (
	"fmt"
	"testing"
	"time"

	"perfcloud/internal/cluster"
	"perfcloud/internal/exec"
	"perfcloud/internal/sim"
	"perfcloud/internal/workloads"
)

type harness struct {
	eng    *sim.Engine
	clus   *cluster.Cluster
	srv    *cluster.Server
	pool   exec.Pool
	driver *Driver
}

func newHarness(t *testing.T, nVMs int) *harness {
	t.Helper()
	h := &harness{}
	h.eng = sim.NewEngine(100*time.Millisecond, 9)
	h.clus = cluster.New()
	h.srv = h.clus.AddServer("s0", cluster.DefaultServerConfig(), h.eng.RNG())
	for i := 0; i < nVMs; i++ {
		vm := h.clus.AddVM(h.srv, fmt.Sprintf("spark-%d", i), 2, 8<<30, cluster.HighPriority, "spark")
		h.pool = append(h.pool, exec.NewExecutor(vm, 2))
	}
	h.driver = NewDriver(h.pool, nil)
	h.eng.RegisterPriority(h.driver, -1)
	h.eng.RegisterPriority(h.clus, 0)
	return h
}

func (h *harness) runApp(t *testing.T, cfg AppConfig, limit time.Duration) *exec.Job {
	t.Helper()
	a, err := h.driver.Submit(cfg, h.eng.Clock().Seconds())
	if err != nil {
		t.Fatal(err)
	}
	if !h.eng.RunUntil(a.Done, limit) {
		t.Fatalf("app %s stuck at stage %d", a.ID(), a.StageIndex())
	}
	return a
}

func TestLogisticRegressionCompletes(t *testing.T) {
	h := newHarness(t, 6)
	a := h.runApp(t, LogisticRegression(10, 3, 640<<20), time.Hour)
	if !a.Completed() {
		t.Fatalf("state = %v", a.State())
	}
	if a.JCT() <= 0 {
		t.Errorf("JCT = %v", a.JCT())
	}
	// Load stage + 3 iterations = 4 task sets.
	if got := len(a.TaskSets()); got != 4 {
		t.Errorf("stages run = %d, want 4", got)
	}
}

func TestStageBarrier(t *testing.T) {
	h := newHarness(t, 4)
	cfg := LogisticRegression(8, 2, 320<<20)
	a, _ := h.driver.Submit(cfg, 0)
	prevIdx := -1
	for i := 0; i < 100000 && !a.Done(); i++ {
		if a.StageIndex() < prevIdx {
			t.Fatal("stage index went backwards")
		}
		// Only one stage's tasks may run at a time.
		if sets := a.TaskSets(); len(sets) > 0 {
			if len(sets) != a.StageIndex()+1 {
				t.Fatalf("%d stages started while stage %d runs", len(sets), a.StageIndex())
			}
			for si, ts := range sets[:a.StageIndex()] {
				if !ts.Done() {
					t.Fatalf("stage %d still active while stage %d runs", si, a.StageIndex())
				}
			}
		}
		prevIdx = a.StageIndex()
		h.eng.Step()
	}
	if !a.Completed() || a.StageIndex() != len(cfg.Stages) {
		t.Fatalf("state = %v at stage %d", a.State(), a.StageIndex())
	}
	for si, ts := range a.TaskSets() {
		if want := fmt.Sprintf("spark-logreg-0/s%02d", si); ts.Name() != want {
			t.Errorf("stage %d name = %q, want %q", si, ts.Name(), want)
		}
	}
	if id := a.TaskSets()[2].Tasks()[7].Spec().ID; id != "spark-logreg-0/s02-t007" {
		t.Errorf("last task id = %q", id)
	}
}

func TestSubmitErrors(t *testing.T) {
	h := newHarness(t, 2)
	if _, err := h.driver.Submit(AppConfig{Name: "x"}, 0); err == nil {
		t.Error("no stages: want error")
	}
	bad := LogisticRegression(4, 1, 64<<20)
	bad.Stages[0].NumTasks = 0
	if _, err := h.driver.Submit(bad, 0); err == nil {
		t.Error("zero tasks: want error")
	}
}

func TestKillApp(t *testing.T) {
	h := newHarness(t, 4)
	a, _ := h.driver.Submit(LogisticRegression(8, 5, 640<<20), 0)
	h.eng.Run(20)
	a.Kill(h.eng.Clock().Seconds())
	if !a.Done() || a.Completed() || a.State() != exec.JobKilled {
		t.Fatalf("state = %v", a.State())
	}
	free := 0
	for _, e := range h.pool {
		free += e.FreeSlots()
	}
	if free != 8 {
		t.Errorf("free slots = %d, want 8", free)
	}
	a.Kill(999) // idempotent
	// Ticking a killed app is a no-op.
	h.eng.Run(5)
}

func TestSparkSensitivityShape(t *testing.T) {
	// The paper's Fig. 1 vs Fig. 2 contrast: Spark suffers more from a
	// memory antagonist than from an I/O antagonist, because after the
	// load stage it is memory-resident.
	jct := func(antagonist string) float64 {
		h := newHarness(t, 6)
		switch antagonist {
		case "fio":
			vm := h.clus.AddVM(h.srv, "fio", 2, 8<<30, cluster.LowPriority, "")
			vm.SetWorkload(workloads.NewFioRandRead(workloads.AlwaysOn))
		case "stream":
			for i := 0; i < 2; i++ {
				vm := h.clus.AddVM(h.srv, fmt.Sprintf("stream-%d", i), 2, 8<<30, cluster.LowPriority, "")
				vm.SetWorkload(workloads.NewStream(workloads.AlwaysOn))
			}
		}
		a := h.runApp(t, LogisticRegression(10, 4, 640<<20), time.Hour)
		return a.JCT()
	}
	alone := jct("none")
	withFio := jct("fio")
	withStream := jct("stream")
	if withStream < alone*1.2 {
		t.Errorf("stream degradation = %vx, want >= 1.2x", withStream/alone)
	}
	if withStream <= withFio {
		t.Errorf("spark should suffer more from STREAM (%v) than fio (%v)", withStream, withFio)
	}
}

func TestPageRankAndSVMComplete(t *testing.T) {
	h := newHarness(t, 6)
	prCfg := PageRank(8, 2, 320<<20)
	pr := h.runApp(t, prCfg, time.Hour)
	if !pr.Completed() {
		t.Fatalf("pagerank state = %v", pr.State())
	}
	svm := h.runApp(t, SVM(8, 2, 320<<20), time.Hour)
	if !svm.Completed() {
		t.Fatalf("svm state = %v", svm.State())
	}
	// PageRank iterations spill to disk; its iteration stages carry IO.
	if prCfg.Stages[1].IOBytesPer == 0 {
		t.Error("pagerank iterations should spill")
	}
	if io := pr.TaskSets()[1].Tasks()[0].Spec().IOBytes; io != prCfg.Stages[1].IOBytesPer {
		t.Errorf("pagerank iteration task IO = %v, want the stage's spill %v", io, prCfg.Stages[1].IOBytesPer)
	}
	if lr := LogisticRegression(8, 2, 320<<20); lr.Stages[1].IOBytesPer != 0 {
		t.Error("logreg iterations should be memory-resident")
	}
}

func TestAccountingWithoutSpeculationIsEfficient(t *testing.T) {
	h := newHarness(t, 4)
	a := h.runApp(t, LogisticRegression(6, 2, 128<<20), time.Hour)
	if eff := a.Account(h.eng.Clock().Seconds()).Efficiency(); eff != 1 {
		t.Errorf("efficiency = %v, want 1", eff)
	}
}
