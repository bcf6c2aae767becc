package cluster

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"perfcloud/internal/cgroup"
	"perfcloud/internal/sim"
)

// scriptWorkload is a change-pushing workload driven by a fuzz script:
// its demand and its doneness change only through set and finish, which
// dirty its server, as Workload requires of a change made outside Advance.
type scriptWorkload struct {
	pushWorkload
	done bool
}

func (w *scriptWorkload) Done() bool { return w.done }

// set switches the workload to demand d, re-arming it if it finished.
func (w *scriptWorkload) set(d Demand) {
	w.done = false
	w.setDemand(d)
}

func (w *scriptWorkload) finish() {
	w.done = true
	w.vm.Server().MarkDirty()
}

// scriptProfiles are the demands a script can switch a workload to: busy,
// halved, zero (running but demanding nothing), memory-bound enough to
// congest the memory bus, random-I/O heavy, and CPU only.
var scriptProfiles = func() []Demand {
	busy := busyDemand()
	half := busy
	half.CPUSeconds /= 2
	half.IOOps /= 2
	half.IOBytes /= 2
	mem := busy
	mem.CPUSeconds, mem.BytesPerInstr = 0.8, 30
	rnd := busy
	rnd.IOOps, rnd.IOBytes = 800, 800*4096
	return []Demand{busy, half, {}, mem, rnd, {CPUSeconds: 0.3, CoreCPI: 1.1}}
}()

// scriptResult is everything a script run observes: every VM's last grant
// after every tick, every grant each workload was handed, and every VM's
// final cgroup counters.
type scriptResult struct {
	LastGrants [][]Grant
	Handed     [][]Grant
	Counters   []cgroup.Counters
}

// runScript decodes script into a scenario over two servers and up to six
// VMs and plays it on an optimised (ref false) cluster whose servers take
// and release their kits through spares, or on a reference cluster. It
// releases the cluster and its streams once the results are taken. The
// first byte picks the VM count, the second the seed; then each pair of
// bytes is one step (opcode, argument): change a VM's demand (attaching a
// workload to a bare VM), call MarkDirty with the demand unchanged, set a
// throttle through the cgroup without MarkDirty, detach a workload,
// finish a workload, migrate a VM to the other server, or tick.
func runScript(script []byte, ref bool, spares *kitList) scriptResult {
	var nVMs, seed byte
	if len(script) >= 2 {
		nVMs, seed, script = script[0], script[1], script[2:]
	}
	const maxSteps = 64
	if len(script) > 2*maxSteps {
		script = script[:2*maxSteps]
	}
	eng := sim.NewEngine(100*time.Millisecond, int64(seed))
	c := newCluster(ref)
	if !ref {
		c.spares = spares
	}
	eng.Register(c)
	servers := []*Server{
		c.AddServer("s0", DefaultServerConfig(), eng.RNG()),
		c.AddServer("s1", DefaultServerConfig(), eng.RNG()),
	}
	var vms []*VM
	for i := 0; i < 1+int(nVMs)%6; i++ {
		vms = append(vms, c.AddVM(servers[i%2], fmt.Sprintf("vm-%d", i), 2, 8<<30, LowPriority, ""))
	}
	var res scriptResult
	var works []*scriptWorkload
	tick := func() {
		eng.Run(1)
		row := make([]Grant, len(vms))
		for i, v := range vms {
			row[i] = v.LastGrant()
		}
		res.LastGrants = append(res.LastGrants, row)
	}
	for k := 0; k+1 < len(script); k += 2 {
		op, arg := script[k]%7, int(script[k+1])
		vm := vms[arg%len(vms)]
		w, _ := vm.Workload().(*scriptWorkload)
		switch op {
		case 0: // change demand
			d := scriptProfiles[arg/8%len(scriptProfiles)]
			if w == nil {
				w = &scriptWorkload{pushWorkload: pushWorkload{fakeWorkload: fakeWorkload{name: vm.ID(), demand: d}, vm: vm}}
				works = append(works, w)
				vm.SetWorkload(w)
			} else {
				w.set(d)
			}
		case 1: // MarkDirty, demand unchanged: a rebuild the memos serve
			vm.Server().MarkDirty()
		case 2: // throttle through the cgroup alone
			level := arg / 24 % 3
			switch arg / 8 % 3 {
			case 0:
				vm.Cgroup().SetCPUCores([]float64{0, 0.5, 1.5}[level])
			case 1:
				vm.Cgroup().SetReadIOPS([]float64{0, 200, 2000}[level])
			case 2:
				vm.Cgroup().SetReadBPS([]float64{0, 1 << 20, 64 << 20}[level])
			}
		case 3: // detach
			vm.SetWorkload(nil)
		case 4: // finish
			if w != nil {
				w.finish()
			}
		case 5: // migrate
			dst := servers[0]
			if vm.Server() == dst {
				dst = servers[1]
			}
			if err := c.MoveVM(vm.ID(), dst.ID()); err != nil {
				panic(err)
			}
		case 6: // tick
			for n := 1 + arg%8; n > 0; n-- {
				tick()
			}
		}
	}
	for n := 0; n < 3; n++ {
		tick()
	}
	for _, w := range works {
		res.Handed = append(res.Handed, w.grants)
	}
	for _, v := range vms {
		res.Counters = append(res.Counters, v.Cgroup().Snapshot())
	}
	c.Release()
	eng.RNG().Release()
	return res
}

// FuzzClusterMatchesReference plays a random script of demand changes,
// MarkDirty calls, throttle changes, detaches, finishes, migrations and ticks
// on an optimised and a reference cluster and requires identical grants
// and cgroup counters: the steady replay, the memo hits, quiescence and
// the skip-set replay must each be invisible in the results. It plays the
// script a second time on a cluster whose servers re-arm the kits the
// first optimised run released, so recycled storage must be invisible too.
func FuzzClusterMatchesReference(f *testing.F) {
	f.Add([]byte{5, 7, 0, 0, 0, 1, 0, 10, 6, 7, 1, 1, 6, 3, 2, 0, 6, 5, 5, 2, 6, 4})
	f.Fuzz(func(t *testing.T, script []byte) {
		var kits kitList
		opt, ref := runScript(script, false, &kits), runScript(script, true, nil)
		if !reflect.DeepEqual(opt, ref) {
			t.Fatalf("optimised run differs from the reference:\nopt: %+v\nref: %+v", opt, ref)
		}
		recycled := runScript(script, false, &kits)
		if kits.misses != 2 {
			t.Fatalf("the second run built %d servers on fresh kits, want none", kits.misses-2)
		}
		if !reflect.DeepEqual(recycled, ref) {
			t.Fatalf("run on recycled kits differs from the reference:\nrecycled: %+v\nref: %+v", recycled, ref)
		}
	})
}
