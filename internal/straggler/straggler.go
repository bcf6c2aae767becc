// Package straggler implements the application-level straggler-mitigation
// baselines the paper compares PerfCloud against (§IV-C):
//
//   - LATE [Zaharia et al., OSDI'08]: speculative execution that ranks
//     running tasks by estimated time to end and backs up the slowest
//     ones, capped at a fraction of slots;
//   - Dolly [Ananthanarayanan et al., NSDI'13]: proactive job-level
//     cloning — launch n identical clones, take the first finisher, kill
//     the rest. The paper uses job-level cloning (not task-level) since
//     the latter would require framework modification.
//
// LATE plugs into exec.TaskSet as a Speculator;
// Dolly watches clone groups from outside the frameworks, exactly as a
// user-level tool would.
package straggler

import (
	"sort"

	"perfcloud/internal/exec"
	"perfcloud/internal/sim"
	"perfcloud/internal/stats"
)

// LATE is the Longest-Approximate-Time-to-End speculator.
type LATE struct {
	// SpeculativeCap bounds concurrently running speculative attempts to
	// this fraction of the set's tasks (LATE's 10% of slots).
	SpeculativeCap float64
	// SlowTaskPercentile: only tasks with a progress rate below this
	// percentile of all running tasks' rates are considered (LATE's 25th).
	SlowTaskPercentile float64
	// MinRuntimeSec avoids speculating tasks that just launched — the
	// "wait" part of wait-and-speculate the paper criticises.
	MinRuntimeSec float64

	// Per-call scratch, reused across ticks (Candidates runs on the
	// single simulation goroutine) so a speculation round allocates only
	// its small result slice.
	rates   []float64
	running []*exec.Attempt
	cands   []lateCand
}

type lateCand struct {
	task *exec.Task
	ete  float64 // estimated time to end
}

// NewLATE returns a LATE speculator with the paper's defaults.
func NewLATE() *LATE {
	return &LATE{SpeculativeCap: 0.1, SlowTaskPercentile: 25, MinRuntimeSec: 3}
}

// Copy returns a LATE with l's parameters and scratch of its own. A LATE
// must not be shared by task sets that run concurrently, since every
// Candidates call writes its scratch; callers that reuse one configured
// speculator across independent simulations give each its own copy.
func (l *LATE) Copy() *LATE {
	return &LATE{SpeculativeCap: l.SpeculativeCap, SlowTaskPercentile: l.SlowTaskPercentile, MinRuntimeSec: l.MinRuntimeSec}
}

var _ exec.Speculator = (*LATE)(nil)

// Candidates implements exec.Speculator.
func (l *LATE) Candidates(ts *exec.TaskSet, nowSec float64) []*exec.Task {
	rates := l.rates[:0]
	running := l.running[:0]
	speculating := 0
	// Iterate the live structures directly (tasks are created in id
	// order, so this matches the sorted order RunningAttempts would
	// give) instead of allocating a sorted copy every tick.
	ts.EachTask(func(t *exec.Task) {
		t.EachAttempt(func(a *exec.Attempt) {
			if a.State() != exec.AttemptRunning {
				return
			}
			if a.Speculative() {
				speculating++
				return
			}
			running = append(running, a)
			rates = append(rates, a.ProgressRate(nowSec))
		})
	})
	l.rates, l.running = rates, running
	if len(running) == 0 {
		return nil
	}
	allowed := int(l.SpeculativeCap*float64(ts.NumTasks()) + 0.5)
	if allowed < 1 {
		allowed = 1
	}
	budget := allowed - speculating
	if budget <= 0 {
		return nil
	}
	// rates is scratch that nothing reads after the threshold, so it is
	// selected in place rather than copied.
	threshold := stats.PercentileInPlace(rates, l.SlowTaskPercentile)
	cands := l.cands[:0]
	for _, a := range running {
		if a.Runtime(nowSec) < l.MinRuntimeSec {
			continue
		}
		if runningCount(a.Task()) > 1 {
			continue // already has a backup
		}
		rate := a.ProgressRate(nowSec)
		if rate > threshold || rate <= 0 {
			continue
		}
		cands = append(cands, lateCand{task: a.Task(), ete: (1 - a.Progress()) / rate})
	}
	l.cands = cands
	// Longest estimated time to end first.
	sort.Slice(cands, func(i, j int) bool { return cands[i].ete > cands[j].ete })
	if len(cands) > budget {
		cands = cands[:budget]
	}
	out := make([]*exec.Task, len(cands))
	for i, c := range cands {
		out[i] = c.task
	}
	return out
}

// runningCount counts a task's running attempts without allocating the
// slice Task.Running builds.
func runningCount(t *exec.Task) int {
	n := 0
	t.EachAttempt(func(a *exec.Attempt) {
		if a.State() == exec.AttemptRunning {
			n++
		}
	})
	return n
}

// CloneGroup tracks the n clones of one logical job.
type CloneGroup struct {
	name   string
	clones []*exec.Job
	winner *exec.Job
}

// Name returns the group's logical-job name.
func (g *CloneGroup) Name() string { return g.name }

// Clones returns the clones being raced.
func (g *CloneGroup) Clones() []*exec.Job { return append([]*exec.Job(nil), g.clones...) }

// Winner returns the first clone to finish, or nil.
func (g *CloneGroup) Winner() *exec.Job { return g.winner }

// Done reports whether the race has been decided.
func (g *CloneGroup) Done() bool { return g.winner != nil }

// Account returns the group's resource accounting: all clones' attempt
// time counts toward the total, but only the winner's completed work is
// useful — a losing clone's output is discarded even if it happened to
// finish in the same instant as the winner (Fig. 11c's metric).
func (g *CloneGroup) Account(nowSec float64) exec.Accounting {
	var acc exec.Accounting
	for _, cl := range g.clones {
		acc.TotalSeconds += cl.Account(nowSec).TotalSeconds
	}
	if g.winner != nil {
		acc.SuccessfulSeconds = g.winner.Account(nowSec).SuccessfulSeconds
	}
	return acc
}

// JCT returns the logical job's completion time: the winner's JCT.
func (g *CloneGroup) JCT() float64 {
	if g.winner == nil {
		return 0
	}
	return g.winner.JCT()
}

// Dolly watches clone groups, settling each race as soon as one clone
// completes by killing the losers. It implements sim.Tickable; register
// it after the frameworks so completions are observed promptly.
type Dolly struct {
	groups []*CloneGroup
}

// NewDolly creates an empty watcher.
func NewDolly() *Dolly { return &Dolly{} }

// Watch registers a group of clones of one logical job — MapReduce jobs
// or Spark apps alike. The clones must already be submitted to their
// frameworks.
func (d *Dolly) Watch(name string, clones ...*exec.Job) *CloneGroup {
	if len(clones) == 0 {
		panic("straggler: clone group needs at least one clone")
	}
	g := &CloneGroup{name: name, clones: clones}
	d.groups = append(d.groups, g)
	return g
}

// Groups returns all watched groups.
func (d *Dolly) Groups() []*CloneGroup { return append([]*CloneGroup(nil), d.groups...) }

// StrideQuiet reports whether the watcher's next Tick is provably a
// no-op: every race is already settled or has no completed clone yet.
// Clones complete only on engine ticks (their framework's harvest), so
// the answer stays valid across a stride (DESIGN.md §5.6).
func (d *Dolly) StrideQuiet() bool {
	for _, g := range d.groups {
		if g.winner != nil {
			continue
		}
		for _, cl := range g.clones {
			if cl.Completed() {
				return false
			}
		}
	}
	return true
}

// Tick implements sim.Tickable.
func (d *Dolly) Tick(c *sim.Clock) {
	now := c.Seconds()
	for _, g := range d.groups {
		if g.winner != nil {
			continue
		}
		for _, cl := range g.clones {
			if cl.Completed() {
				g.winner = cl
				break
			}
		}
		if g.winner == nil {
			continue
		}
		for _, cl := range g.clones {
			if cl != g.winner {
				cl.Kill(now)
			}
		}
	}
}
