package exec

import (
	"fmt"
	"testing"
	"time"

	"perfcloud/internal/cluster"
	"perfcloud/internal/sim"
)

// harness wires an engine, a cluster with one server, n executor VMs and
// a task-set driver registered before the resource pipeline.
type harness struct {
	eng  *sim.Engine
	clus *cluster.Cluster
	pool Pool
	pl   *placement
	sets []*TaskSet
}

func newHarness(t *testing.T, nVMs, slots int) *harness {
	return newHarnessServers(t, 1, nVMs, slots)
}

// newHarnessServers builds a harness with VMs spread over several servers.
func newHarnessServers(t *testing.T, nServers, vmsPerServer, slots int) *harness {
	t.Helper()
	h := &harness{}
	h.eng = sim.NewEngine(100*time.Millisecond, 42)
	h.clus = cluster.New()
	for s := 0; s < nServers; s++ {
		srv := h.clus.AddServer(fmt.Sprintf("s%d", s), cluster.DefaultServerConfig(), h.eng.RNG())
		for i := 0; i < vmsPerServer; i++ {
			vm := h.clus.AddVM(srv, fmt.Sprintf("vm-%d-%d", s, i), 2, cluster.HighPriority, "app")
			h.pool = append(h.pool, NewExecutor(vm, slots))
		}
	}
	h.pl = &placement{pool: h.pool}
	h.eng.RegisterPriority(sim.TickFunc(func(c *sim.Clock) {
		now := c.Seconds()
		for _, ts := range h.sets {
			ts.tick(now, h.pl)
		}
	}), -1)
	h.eng.RegisterPriority(h.clus, 0)
	return h
}

func (h *harness) runUntilDone(t *testing.T, ts *TaskSet, limit time.Duration) {
	t.Helper()
	if !(&sim.Stepper{Eng: h.eng}).RunUntil(ts.Done, limit) {
		t.Fatalf("task set %q did not finish within %v", ts.Name(), limit)
	}
}

// smallSpec is a task with modest IO and compute: ~64 MiB read and
// ~2.3e9 instructions (1 core-second at CPI 1).
func smallSpec(id string) TaskSpec {
	return TaskSpec{
		ID:              id,
		IOBytes:         64 << 20,
		Instructions:    2.3e9,
		CoreCPI:         0.9,
		LLCRefsPerInstr: 0.02,
		BytesPerInstr:   0.3,
		WorkingSetBytes: 100 << 20,
	}
}

func TestSingleTaskCompletes(t *testing.T) {
	h := newHarness(t, 1, 2)
	ts := NewTaskSet("maps", []TaskSpec{smallSpec("t0")}, nil)
	h.sets = append(h.sets, ts)
	h.runUntilDone(t, ts, time.Minute)

	task := ts.Tasks()[0]
	if !task.Done() || task.Completed() == nil {
		t.Fatal("task should be done with a winning attempt")
	}
	a := task.Completed()
	if a.State() != AttemptCompleted || a.Progress() < 0.999 {
		t.Errorf("attempt state=%v progress=%v", a.State(), a.Progress())
	}
	if a.Runtime(0) <= 0 {
		t.Errorf("runtime = %v", a.Runtime(0))
	}
	// IO-bound lower bound: 64 MiB at 150 MB/s is ~0.45 s minimum.
	if rt := a.Runtime(0); rt < 0.4 {
		t.Errorf("runtime = %v, implausibly fast", rt)
	}
}

func TestPureComputeAndEmptyTasks(t *testing.T) {
	h := newHarness(t, 1, 2)
	ts := NewTaskSet("mixed", []TaskSpec{
		{ID: "compute", Instructions: 2.3e9, CoreCPI: 1},
		{ID: "empty"},
	}, nil)
	h.sets = append(h.sets, ts)
	h.runUntilDone(t, ts, time.Minute)
	for _, task := range ts.Tasks() {
		if !task.Done() {
			t.Errorf("task %s not done", task.Spec().ID)
		}
	}
}

func TestSlotsBoundConcurrency(t *testing.T) {
	h := newHarness(t, 1, 2)
	specs := make([]TaskSpec, 6)
	for i := range specs {
		specs[i] = smallSpec(fmt.Sprintf("t%d", i))
	}
	ts := NewTaskSet("maps", specs, nil)
	h.sets = append(h.sets, ts)
	h.eng.Run(3)
	if got := len(ts.RunningAttempts()); got != 2 {
		t.Errorf("running = %d, want 2 (slot bound)", got)
	}
	h.runUntilDone(t, ts, 5*time.Minute)
}

func TestLocalityPreference(t *testing.T) {
	h := newHarness(t, 4, 2)
	spec := smallSpec("t0")
	spec.PreferredVMs = []string{"vm-0-2"}
	ts := NewTaskSet("maps", []TaskSpec{spec}, nil)
	h.sets = append(h.sets, ts)
	h.eng.Run(2)
	run := ts.RunningAttempts()
	if len(run) != 1 || run[0].executor.vm.ID() != "vm-0-2" {
		t.Errorf("attempt placed on %v, want vm-2", run[0].executor.vm.ID())
	}
}

func TestWorkSpreadsAcrossExecutors(t *testing.T) {
	h := newHarness(t, 3, 2)
	specs := make([]TaskSpec, 6)
	for i := range specs {
		specs[i] = smallSpec(fmt.Sprintf("t%d", i))
	}
	ts := NewTaskSet("maps", specs, nil)
	h.sets = append(h.sets, ts)
	h.eng.Run(2)
	for _, e := range h.pool {
		if len(e.running) != 2 {
			t.Errorf("executor %s runs %d, want even spread of 2", e.Name(), len(e.running))
		}
	}
}

// fixedSpeculator always proposes the given tasks.
type fixedSpeculator struct{ tasks []*Task }

func (f *fixedSpeculator) Candidates(ts *TaskSet, now float64) []*Task { return f.tasks }

func TestSpeculativeCopyAndSiblingKill(t *testing.T) {
	h := newHarness(t, 2, 2)
	spec := &fixedSpeculator{}
	ts := NewTaskSet("maps", []TaskSpec{smallSpec("t0")}, spec)
	h.sets = append(h.sets, ts)
	h.eng.Run(2)
	task := ts.Tasks()[0]
	spec.tasks = []*Task{task}
	h.eng.Run(2)

	attempts := task.attempts
	if len(attempts) != 2 {
		t.Fatalf("attempts = %d, want original + speculative", len(attempts))
	}
	if !attempts[1].Speculative() {
		t.Error("second attempt should be speculative")
	}
	// The copy must land on the other executor.
	if attempts[0].executor == attempts[1].executor {
		t.Error("speculative copy placed on same executor")
	}
	h.runUntilDone(t, ts, time.Minute)
	// One attempt wins; the other is killed.
	winner := task.Completed()
	var killed int
	for _, a := range task.attempts {
		if a != winner && a.State() == AttemptKilled {
			killed++
		}
	}
	if winner == nil || killed != 1 {
		t.Errorf("winner=%v killed=%d", winner, killed)
	}
	acc := ts.Account(h.eng.Clock().Seconds())
	if acc.Efficiency() >= 1 {
		t.Errorf("efficiency = %v, want < 1 with a killed attempt", acc.Efficiency())
	}
	if acc.SuccessfulSeconds <= 0 || acc.TotalSeconds <= acc.SuccessfulSeconds {
		t.Errorf("accounting = %+v", acc)
	}
}

func TestKillTaskSet(t *testing.T) {
	h := newHarness(t, 1, 2)
	ts := NewTaskSet("maps", []TaskSpec{smallSpec("a"), smallSpec("b"), smallSpec("c")}, nil)
	h.sets = append(h.sets, ts)
	h.eng.Run(3)
	ts.Kill(h.eng.Clock().Seconds())
	if !ts.Done() || !ts.killed {
		t.Fatal("killed set should be done")
	}
	if n := len(ts.RunningAttempts()); n != 0 {
		t.Errorf("running after kill = %d", n)
	}
	for _, e := range h.pool {
		if e.FreeSlots() != 2 {
			t.Errorf("slots not freed: %d", e.FreeSlots())
		}
	}
	// Killing twice is safe; ticking a killed set is a no-op.
	ts.Kill(99)
	ts.tick(100, h.pl)
}

func TestProgressAndRate(t *testing.T) {
	h := newHarness(t, 1, 1)
	ts := NewTaskSet("maps", []TaskSpec{smallSpec("t0")}, nil)
	h.sets = append(h.sets, ts)
	h.eng.Run(1)
	a := ts.Tasks()[0].attempts[0]
	if p := a.Progress(); p <= 0 || p >= 1 {
		t.Errorf("early progress = %v, want in (0,1)", p)
	}
	if r := a.ProgressRate(0.5); r != 0 {
		t.Errorf("rate before 1s = %v, want 0", r)
	}
	h.eng.Run(20) // 2 s
	if r := a.ProgressRate(h.eng.Clock().Seconds()); r <= 0 {
		t.Errorf("rate = %v, want > 0", r)
	}
}

func TestInstructionProgressGatedByIO(t *testing.T) {
	h := newHarness(t, 1, 1)
	// Huge IO, tiny compute: even though CPU is plentiful, instructions
	// cannot finish before the input is read.
	spec := TaskSpec{ID: "t0", IOBytes: 150e6, Instructions: 1e6, CoreCPI: 1}
	ts := NewTaskSet("maps", []TaskSpec{spec}, nil)
	h.sets = append(h.sets, ts)
	h.eng.Run(3) // 0.3 s: at most ~30% of input read
	a := ts.Tasks()[0].attempts[0]
	if a.instrDone >= spec.Instructions {
		t.Error("instructions finished before input was read")
	}
	h.runUntilDone(t, ts, time.Minute)
}

func TestExecutorPanicsWithoutSlots(t *testing.T) {
	h := newHarness(t, 1, 1)
	ts := NewTaskSet("maps", []TaskSpec{smallSpec("a")}, nil)
	h.sets = append(h.sets, ts)
	h.eng.Run(1)
	defer func() {
		if recover() == nil {
			t.Error("want panic launching on full executor")
		}
	}()
	spare := NewTaskSet("spare", []TaskSpec{smallSpec("b")}, nil)
	h.pool[0].launch(spare.Tasks()[0], 0, false)
}

func TestNewExecutorPanicsOnZeroSlots(t *testing.T) {
	h := newHarness(t, 1, 1)
	vm := h.clus.AddVM(h.clus.FindServer("s0"), "extra", 2, cluster.LowPriority, "")
	defer func() {
		if recover() == nil {
			t.Error("want panic")
		}
	}()
	NewExecutor(vm, 0)
}

// TestNewTaskSetAllocsIndependentOfSize pins a stage's storage: the set
// owns its builder's specs and holds its tasks in one slab, so building
// it costs the same three allocations (the set, the task slab and the
// pending list) whatever the number of tasks.
func TestNewTaskSetAllocsIndependentOfSize(t *testing.T) {
	allocs := func(n int) float64 {
		specs := make([]TaskSpec, n)
		for i := range specs {
			specs[i] = smallSpec(fmt.Sprintf("t%d", i))
		}
		var ts *TaskSet
		a := testing.AllocsPerRun(20, func() { ts = NewTaskSet("maps", specs, nil) })
		if ts.NumTasks() != n {
			t.Fatalf("NewTaskSet built %d tasks from %d specs", ts.NumTasks(), n)
		}
		return a
	}
	one, many := allocs(1), allocs(64)
	if one > 3 || many != one {
		t.Errorf("NewTaskSet allocs: %v for 1 spec, %v for 64, want the same and at most 3", one, many)
	}
}

func TestAccountingEmptySet(t *testing.T) {
	ts := NewTaskSet("empty", nil, nil)
	if !ts.Done() {
		t.Error("empty set should be done")
	}
	if eff := ts.Account(0).Efficiency(); eff != 1 {
		t.Errorf("empty efficiency = %v, want 1", eff)
	}
}

func TestContentionSlowsTask(t *testing.T) {
	runtime := func(withHog bool) float64 {
		eng := sim.NewEngine(100*time.Millisecond, 42)
		clus := cluster.New()
		srv := clus.AddServer("s0", cluster.DefaultServerConfig(), eng.RNG())
		vm := clus.AddVM(srv, "worker", 2, cluster.HighPriority, "app")
		e := NewExecutor(vm, 2)
		pl := &placement{pool: Pool{e}}
		// I/O-bound task: ~150 MB to read, negligible compute.
		ioSpec := TaskSpec{ID: "t0", IOBytes: 150e6, Instructions: 2.3e8,
			CoreCPI: 0.9, LLCRefsPerInstr: 0.02, BytesPerInstr: 0.3, WorkingSetBytes: 100 << 20}
		ts := NewTaskSet("maps", []TaskSpec{ioSpec}, nil)
		if withHog {
			hogVM := clus.AddVM(srv, "hog", 2, cluster.LowPriority, "")
			hogVM.SetWorkload(&hogWorkload{})
		}
		eng.RegisterPriority(sim.TickFunc(func(c *sim.Clock) {
			ts.tick(c.Seconds(), pl)
		}), -1)
		eng.RegisterPriority(clus, 0)
		if !(&sim.Stepper{Eng: eng}).RunUntil(ts.Done, 10*time.Minute) {
			panic("did not finish")
		}
		return ts.Tasks()[0].Completed().Runtime(0)
	}
	alone := runtime(false)
	contended := runtime(true)
	if contended < alone*1.5 {
		t.Errorf("alone=%v contended=%v, want >= 1.5x slowdown", alone, contended)
	}
}

// hogWorkload saturates the disk.
type hogWorkload struct{}

func (h *hogWorkload) Name() string { return "hog" }
func (h *hogWorkload) Demand(tickSec float64) cluster.Demand {
	return cluster.Demand{
		CPUSeconds: 0.4 * tickSec, IOOps: 8000 * tickSec, IOBytes: 8000 * 4096 * tickSec,
		CoreCPI: 1.2, LLCRefsPerInstr: 0.005, BytesPerInstr: 0.05, WorkingSetBytes: 4 << 20,
	}
}

// Advance reports no change: the hog's demand never changes.
func (h *hogWorkload) Advance(nowSec, tickSec float64, g cluster.Grant) bool { return false }
func (h *hogWorkload) Done() bool                                            { return false }
