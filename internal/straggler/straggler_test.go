package straggler

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"perfcloud/internal/cluster"
	"perfcloud/internal/dfs"
	"perfcloud/internal/exec"
	"perfcloud/internal/mapreduce"
	"perfcloud/internal/sim"
	"perfcloud/internal/spark"
	"perfcloud/internal/workloads"
)

// mrHarness builds a two-server setup: worker VMs spread across both,
// with an optional fio antagonist on server 0 creating a slow node.
type mrHarness struct {
	eng  *sim.Engine
	clus *cluster.Cluster
	pool exec.Pool
	fs   *dfs.FileSystem
	jt   *mapreduce.JobTracker
}

func newMRHarness(t *testing.T, spec exec.Speculator, withAntagonist bool) *mrHarness {
	t.Helper()
	h := &mrHarness{}
	h.eng = sim.NewEngine(100*time.Millisecond, 21)
	h.clus = cluster.New()
	s0 := h.clus.AddServer("s0", cluster.DefaultServerConfig(), h.eng.RNG())
	s1 := h.clus.AddServer("s1", cluster.DefaultServerConfig(), h.eng.RNG())
	var names []string
	for i := 0; i < 6; i++ {
		srv := s0
		if i >= 3 {
			srv = s1
		}
		id := fmt.Sprintf("hadoop-%d", i)
		vm := h.clus.AddVM(srv, id, 2, cluster.HighPriority, "hadoop")
		h.pool = append(h.pool, exec.NewExecutor(vm, 2))
		names = append(names, id)
	}
	if withAntagonist {
		vm := h.clus.AddVM(s0, "fio", 2, cluster.LowPriority, "")
		vm.SetWorkload(workloads.NewFioRandRead(workloads.AlwaysOn))
	}
	h.fs = dfs.New(dfs.DefaultConfig(), names, rand.New(rand.NewSource(5)))
	h.fs.Create("input", 640<<20)
	h.jt = mapreduce.NewJobTracker(h.pool, h.fs, spec)
	h.eng.RegisterPriority(h.jt, -1)
	h.eng.RegisterPriority(h.clus, 0)
	return h
}

func runJob(t *testing.T, h *mrHarness, cfg mapreduce.JobConfig) *mapreduce.Job {
	t.Helper()
	j, err := h.jt.Submit(cfg, h.eng.Clock().Seconds())
	if err != nil {
		t.Fatal(err)
	}
	if !(&sim.Stepper{Eng: h.eng}).RunUntil(j.Done, time.Hour) {
		t.Fatalf("job stuck in %v", j.State())
	}
	return j
}

func TestLATESpeculatesUnderInterference(t *testing.T) {
	h := newMRHarness(t, NewLATE(), true)
	j := runJob(t, h, mapreduce.Terasort("input", 6))
	if !j.Completed() {
		t.Fatalf("state = %v", j.State())
	}
	spec := 0
	for _, ts := range j.TaskSets() {
		for _, task := range ts.Tasks() {
			task.EachAttempt(func(a *exec.Attempt) {
				if a.Speculative() {
					spec++
				}
			})
		}
	}
	if spec == 0 {
		t.Error("LATE launched no speculative attempts under interference")
	}
	// Speculation costs efficiency.
	if eff := j.Account(h.eng.Clock().Seconds()).Efficiency(); eff >= 1 {
		t.Errorf("efficiency = %v, want < 1 with speculation", eff)
	}
}

func TestLATEImprovesJCTUnderAsymmetricInterference(t *testing.T) {
	// The default 10% budget backs up one straggler at a time — often too
	// slow to move JCT when half the cluster is antagonized (exactly the
	// wait-and-speculate weakness the paper criticises). An aggressive
	// configuration shows the mechanism itself works: backups land on the
	// clean server and beat the originals.
	aggressive := &LATE{SpeculativeCap: 0.5, SlowTaskPercentile: 30, MinRuntimeSec: 1}
	none := runJob(t, newMRHarness(t, nil, true), mapreduce.Terasort("input", 6))
	late := runJob(t, newMRHarness(t, aggressive, true), mapreduce.Terasort("input", 6))
	if late.JCT() >= none.JCT() {
		t.Errorf("LATE JCT %v should beat no-mitigation %v with a slow node", late.JCT(), none.JCT())
	}
}

func TestLATEQuietWithoutInterference(t *testing.T) {
	h := newMRHarness(t, NewLATE(), false)
	j := runJob(t, h, mapreduce.Terasort("input", 6))
	spec := 0
	for _, ts := range j.TaskSets() {
		for _, task := range ts.Tasks() {
			task.EachAttempt(func(a *exec.Attempt) {
				if a.Speculative() {
					spec++
				}
			})
		}
	}
	// LATE's percentile rule always finds a "slowest" task, so a few
	// backups are expected even alone — but far fewer than task count.
	if spec > 6 {
		t.Errorf("speculative attempts alone = %d, want few", spec)
	}
}

func TestLATEBudgetRespected(t *testing.T) {
	h := newMRHarness(t, &LATE{SpeculativeCap: 0.1, SlowTaskPercentile: 25, MinRuntimeSec: 1}, true)
	j, _ := h.jt.Submit(mapreduce.Terasort("input", 6), 0)
	for i := 0; i < 3000 && !j.Done(); i++ {
		h.eng.Step()
		for _, ts := range j.TaskSets() {
			running := 0
			for _, a := range ts.RunningAttempts() {
				if a.Speculative() {
					running++
				}
			}
			// cap = max(1, 0.1*10 tasks) = 1 concurrent backup.
			if running > 1 {
				t.Fatalf("running speculative = %d, budget is 1", running)
			}
		}
	}
}

func TestCandidatesEmptySets(t *testing.T) {
	ts := exec.NewTaskSet("empty", nil, nil)
	if got := NewLATE().Candidates(ts, 10); got != nil {
		t.Errorf("LATE on empty set = %v", got)
	}
}

func TestDollyPicksFirstFinisherAndKillsRest(t *testing.T) {
	h := newMRHarness(t, nil, true)
	d := NewDolly()
	h.eng.RegisterPriority(d, 1)

	now := h.eng.Clock().Seconds()
	var clones []*exec.Job
	for i := 0; i < 3; i++ {
		j, err := h.jt.Submit(mapreduce.Terasort("input", 6), now)
		if err != nil {
			t.Fatal(err)
		}
		clones = append(clones, j)
	}
	g := d.Watch(clones...)
	if !(&sim.Stepper{Eng: h.eng}).RunUntil(g.Done, time.Hour) {
		t.Fatal("race not decided")
	}
	if g.winner == nil || !g.winner.Completed() {
		t.Fatal("no completed winner")
	}
	if g.JCT() != g.winner.JCT() {
		t.Errorf("group JCT %v != winner JCT %v", g.JCT(), g.winner.JCT())
	}
	losers := 0
	for _, cl := range g.clones {
		if cl != g.winner {
			if !cl.Done() || cl.Completed() {
				t.Error("loser should be killed")
			}
			losers++
		}
	}
	if losers != 2 {
		t.Errorf("losers = %d", losers)
	}
	if len(d.groups) != 1 {
		t.Errorf("groups = %d", len(d.groups))
	}
}

func TestDollyEfficiencyDropsWithClones(t *testing.T) {
	// Small I/O-heavy Spark jobs (3 tasks, no locality pinning) on a
	// 12-slot pool: clones run truly in parallel, as in the paper's
	// large-cluster setting. One clone's tasks land entirely on the
	// antagonized server, the next clone's on the clean one — the clean
	// clone wins and the losers are pure waste.
	stage := spark.AppConfig{Name: "smalljob", Stages: []spark.StageConfig{{
		Name: "load", NumTasks: 3, IOBytesPer: 64 << 20, InstrPerTask: 5e8,
		Shape: spark.StageConfig{}.Shape, // zero shape; CoreCPI defaults in exec
	}}}
	stage.Stages[0].Shape.CoreCPI = 0.9
	efficiency := func(n int) float64 {
		h := newMRHarness(t, nil, true)
		drv := spark.NewDriver(h.pool, nil)
		h.eng.RegisterPriority(drv, -1)
		d := NewDolly()
		h.eng.RegisterPriority(d, 1)
		var clones []*exec.Job

		for i := 0; i < n; i++ {
			a, err := drv.Submit(stage, 0)
			if err != nil {
				t.Fatal(err)
			}
			clones = append(clones, a)

		}
		g := d.Watch(clones...)
		if !(&sim.Stepper{Eng: h.eng}).RunUntil(g.Done, time.Hour) {
			t.Fatal("race not decided")
		}
		h.eng.Run(1) // let the kill settle

		return g.Account(h.eng.Clock().Seconds()).Efficiency()
	}
	e2 := efficiency(2)
	e6 := efficiency(6)
	if e6 >= e2 {
		t.Errorf("Dolly-6 efficiency %v should be below Dolly-2 %v", e6, e2)
	}
	if e2 > 0.9 {
		t.Errorf("Dolly-2 efficiency = %v, want meaningful waste", e2)
	}
}

func TestDollyWatchPanicsOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("want panic")
		}
	}()
	NewDolly().Watch()
}
