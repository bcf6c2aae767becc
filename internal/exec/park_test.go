package exec

import (
	"reflect"
	"testing"
	"time"

	"perfcloud/internal/cgroup"
	"perfcloud/internal/cluster"
	"perfcloud/internal/sim"
)

// TestIdleExecutorParksAndWakes runs two task waves on an executor that
// has a server to itself, with a disk hog and a workload-less VM on a
// second server that never parks. Between the waves the executor holds no
// attempt, so its server parks; the second wave's launch must wake it.
// Task times, every cgroup's counters and every last grant must equal the
// reference cluster's, which never parks.
func TestIdleExecutorParksAndWakes(t *testing.T) {
	type outcome struct {
		done     []float64 // engine time at which each wave finished
		runtimes []float64 // each wave's attempt runtime
		cgs      []cgroup.Counters
		last     []cluster.Grant
	}
	run := func(reference bool) outcome {
		eng := sim.NewEngine(100*time.Millisecond, 42)
		clus := cluster.New()
		if reference {
			clus = cluster.NewReference()
		}
		s0 := clus.AddServer("s0", cluster.DefaultServerConfig(), eng.RNG())
		s1 := clus.AddServer("s1", cluster.DefaultServerConfig(), eng.RNG())
		worker := clus.AddVM(s0, "worker", 2, 8<<30, cluster.HighPriority, "app")
		hog := clus.AddVM(s1, "hog", 2, 8<<30, cluster.LowPriority, "")
		hog.SetWorkload(&hogWorkload{})
		spare := clus.AddVM(s1, "spare", 2, 8<<30, cluster.LowPriority, "")
		e := NewExecutor(worker, 2)
		pool := Pool{e}
		var sets []*TaskSet
		eng.RegisterPriority(sim.TickFunc(func(c *sim.Clock) {
			e.SyncClock(c.Seconds())
			for _, ts := range sets {
				ts.Tick(c.Seconds(), pool)
			}
		}), -1)
		eng.RegisterPriority(clus, 0)

		var out outcome
		wave := func(id string) {
			ts := NewTaskSet(id, []TaskSpec{smallSpec(id)}, nil)
			sets = append(sets, ts)
			eng.Step() // the launch
			if !reference && (s0.Quiescent() || clus.ActiveServers() != 2) {
				t.Fatalf("wave %s: launch did not wake the executor's server: quiescent %v, %d active servers",
					id, s0.Quiescent(), clus.ActiveServers())
			}
			if !eng.RunUntil(ts.Done, time.Minute) {
				t.Fatalf("wave %s did not finish", id)
			}
			out.done = append(out.done, eng.Clock().Seconds())
			out.runtimes = append(out.runtimes, ts.Tasks()[0].Completed().Runtime(0))
		}
		wave("first")
		eng.Run(20)
		if !reference && (!s0.Quiescent() || clus.ActiveServers() != 1) {
			t.Fatalf("idle executor's server did not park: quiescent %v, %d active servers",
				s0.Quiescent(), clus.ActiveServers())
		}
		wave("second")
		for _, v := range []*cluster.VM{worker, hog, spare} {
			out.cgs = append(out.cgs, v.Cgroup().Snapshot())
			out.last = append(out.last, v.LastGrant())
		}
		return out
	}
	got, want := run(false), run(true)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("parking run differs from the reference:\nopt: %+v\nref: %+v", got, want)
	}
}
