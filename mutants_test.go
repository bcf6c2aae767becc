package perfcloud_test

import (
	"os"
	"strings"
	"testing"
)

// mutant is one deliberate fault in a guard that a fast path or a state
// machine relies on: replacing anchor, which occurs exactly once in file,
// by replacement must make the tests of every package in pkgs fail.
// `make mutants` applies each row through go test -overlay, which leaves
// the tree untouched (mutants_run_test.go); tier-1 checks only that each
// anchor is still there, so a refactor that moves guarded code must
// update its row.
type mutant struct {
	name        string
	file        string // relative to the module root
	anchor      string
	replacement string
	pkgs        []string // import paths
}

var mutants = []mutant{
	{
		// A launch that refreshes the executor's demand but does not
		// dirty its server: a steady or parked server keeps replaying
		// the grants of the old running set.
		name:        "launch-without-MarkDirty",
		file:        "internal/exec/exec.go",
		anchor:      "\te.running = append(e.running, a)\n\te.changed()\n",
		replacement: "\te.running = append(e.running, a)\n\te.demandValid = false\n",
		pkgs:        []string{"perfcloud/internal/exec", "perfcloud/internal/experiments"},
	},
	{
		// The next stage starts a tick after its predecessor finishes,
		// through the queued state.
		name:        "next-stage-deferred-one-tick",
		file:        "internal/exec/job.go",
		anchor:      "\t\tcur = s.start(j, now)\n\t\tcur.tick(now, s.pl)\n",
		replacement: "\t\tj.state = JobQueued\n\t\treturn\n",
		pkgs:        []string{"perfcloud/internal/exec", "perfcloud/internal/mapreduce", "perfcloud/internal/spark"},
	},
	{
		// The next stage starts in the tick its predecessor finishes but
		// launches its first tasks a tick later.
		name:        "next-stage-first-round-deferred",
		file:        "internal/exec/job.go",
		anchor:      "\t\tcur = s.start(j, now)\n\t\tcur.tick(now, s.pl)\n",
		replacement: "\t\ts.start(j, now)\n\t\treturn\n",
		pkgs:        []string{"perfcloud/internal/exec", "perfcloud/internal/experiments", "perfcloud/cmd/perfbench"},
	},
	{
		// Job.Kill marks the job killed but leaves its running stage's
		// attempts running.
		name:        "kill-leaves-running-stage",
		file:        "internal/exec/job.go",
		anchor:      "\tif j.state == JobRunning {\n\t\tj.sets[j.idx].Kill(nowSec)\n\t}\n",
		replacement: "",
		pkgs:        []string{"perfcloud/internal/exec", "perfcloud/internal/mapreduce", "perfcloud/internal/spark"},
	},
	{
		// StrideQuiet lets a stride elide the tick that would start a
		// queued job.
		name:        "stride-quiet-ignores-queued-job",
		file:        "internal/exec/job.go",
		anchor:      "\t\tcase JobQueued:\n\t\t\treturn false\n",
		replacement: "\t\tcase JobQueued:\n",
		pkgs:        []string{"perfcloud/internal/exec"},
	},
	{
		// A launch that does not count toward its server's load: later
		// picks of the same round see the stale count and pile onto the
		// first server's emptier VMs.
		name:        "launch-not-counted-in-loads",
		file:        "internal/exec/exec.go",
		anchor:      "\t\t\tif pl.loadsValid {\n\t\t\t\tpl.loads[e.vm.Server().Index()]++\n\t\t\t}\n",
		replacement: "",
		pkgs:        []string{"perfcloud/internal/exec", "perfcloud/internal/experiments", "perfcloud/cmd/perfbench"},
	},
	{
		// A Revalidate that never clears: a steady replay after the AR(1)
		// compacted steps the jitter of whichever client now holds each
		// stale slot.
		name:        "revalidate-never-clears",
		file:        "internal/sim/ar1.go",
		anchor:      "\tif c.gen == a.gen {\n\t\treturn\n\t}\n",
		replacement: "\treturn\n",
		pkgs:        []string{"perfcloud/internal/cluster", "perfcloud/internal/disk", "perfcloud/internal/memsys"},
	},
	{
		// A SlotCache.Bind that ignores ids: a request vector of the same
		// length whose clients changed, with none new to the AR(1), keeps
		// the old binding and steps the luck factors of the wrong clients.
		name:        "bind-ignores-ids",
		file:        "internal/sim/ar1.go",
		anchor:      "\t\t\tif x != id(i) {\n",
		replacement: "\t\t\tif false && x != id(i) {\n",
		pkgs:        []string{"perfcloud/internal/sim", "perfcloud/internal/cluster"},
	},
	{
		// A VM whose cgroup is never bound to its server's throttle
		// counter: a cap set through the cgroup alone leaves the steady
		// replay armed, so the server replays grants solved under the
		// old caps.
		name:        "throttle-counter-never-bound",
		file:        "internal/cluster/cluster.go",
		anchor:      "\tv.cg.BindThrottleCounter(&s.throttles)\n",
		replacement: "",
		pkgs:        []string{"perfcloud/internal/cluster"},
	},
}

// TestMutantAnchors checks that every row of the mutant table still
// names code that exists: its anchor occurs exactly once in its file.
func TestMutantAnchors(t *testing.T) {
	names := make(map[string]bool)
	for _, m := range mutants {
		if names[m.name] {
			t.Errorf("mutant %s is listed twice", m.name)
		}
		names[m.name] = true
		src, err := os.ReadFile(m.file)
		if err != nil {
			t.Errorf("mutant %s: %v", m.name, err)
			continue
		}
		if n := strings.Count(string(src), m.anchor); n != 1 {
			t.Errorf("mutant %s: anchor occurs %d times in %s, want once", m.name, n, m.file)
		}
		if len(m.pkgs) == 0 {
			t.Errorf("mutant %s names no package whose tests must fail", m.name)
		}
	}
}
