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
		worker := clus.AddVM(s0, "worker", 2, cluster.HighPriority, "app")
		hog := clus.AddVM(s1, "hog", 2, cluster.LowPriority, "")
		hog.SetWorkload(&hogWorkload{})
		spare := clus.AddVM(s1, "spare", 2, cluster.LowPriority, "")
		e := NewExecutor(worker, 2)
		pl := &placement{pool: Pool{e}}
		var sets []*TaskSet
		eng.RegisterPriority(sim.TickFunc(func(c *sim.Clock) {
			for _, ts := range sets {
				ts.tick(c.Seconds(), pl)
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
			if !(&sim.Stepper{Eng: eng}).RunUntil(ts.Done, time.Minute) {
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

// TestKillDuringSteadyReplayMatchesReference kills one of two attempts on
// an executor while its server replays steady ticks. The kill changes the
// executor's demand outside Advance, so only the MarkDirty that remove
// pushes can end the replay: the surviving attempt's completion time, the
// cgroup counters and the last grants must equal the reference
// cluster's, which rebuilds every tick.
func TestKillDuringSteadyReplayMatchesReference(t *testing.T) {
	type outcome struct {
		done    float64 // engine time at which the survivor finished
		runtime float64
		cgs     []cgroup.Counters
		last    []cluster.Grant
	}
	long := func(id string) TaskSpec {
		s := smallSpec(id)
		s.IOBytes, s.Instructions = 1.5e9, 2.3e10
		return s
	}
	run := func(reference bool) outcome {
		eng := sim.NewEngine(100*time.Millisecond, 42)
		clus := cluster.New()
		if reference {
			clus = cluster.NewReference()
		}
		s0 := clus.AddServer("s0", cluster.DefaultServerConfig(), eng.RNG())
		worker := clus.AddVM(s0, "worker", 2, cluster.HighPriority, "app")
		hog := clus.AddVM(s0, "hog", 2, cluster.LowPriority, "")
		hog.SetWorkload(&hogWorkload{})
		pl := &placement{pool: Pool{NewExecutor(worker, 2)}}
		keep := NewTaskSet("keep", []TaskSpec{long("keep")}, nil)
		doomed := NewTaskSet("doomed", []TaskSpec{long("doomed")}, nil)
		eng.RegisterPriority(sim.TickFunc(func(c *sim.Clock) {
			keep.tick(c.Seconds(), pl)
			doomed.tick(c.Seconds(), pl)
		}), -1)
		eng.RegisterPriority(clus, 0)

		eng.Run(30)
		if !reference {
			before := s0.FastPathStats().SteadyReuses
			eng.Run(1)
			if s0.FastPathStats().SteadyReuses == before {
				t.Fatal("the server is not in the steady replay at the kill")
			}
		} else {
			eng.Run(1)
		}
		doomed.Kill(eng.Clock().Seconds())
		if !(&sim.Stepper{Eng: eng}).RunUntil(keep.Done, 10*time.Minute) {
			t.Fatal("the surviving attempt did not finish")
		}
		out := outcome{done: eng.Clock().Seconds(), runtime: keep.Tasks()[0].Completed().Runtime(0)}
		for _, v := range []*cluster.VM{worker, hog} {
			out.cgs = append(out.cgs, v.Cgroup().Snapshot())
			out.last = append(out.last, v.LastGrant())
		}
		return out
	}
	got, want := run(false), run(true)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("run with a kill during the steady replay differs from the reference:\nopt: %+v\nref: %+v", got, want)
	}
}
