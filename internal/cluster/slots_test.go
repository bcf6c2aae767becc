package cluster

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"perfcloud/internal/sim"
)

// slotScenario changes a server's client list in the ways the disk and
// memory system must notice before they step their AR(1) luck factors by
// cached slot, on an optimised (ref false) or reference cluster:
//   - every VM of both servers is swapped for the same number of other
//     ids between two rebuilds;
//   - a VM leaves, the server rebuilds without it, and it returns;
//   - thirty short-lived VMs pass through one server, so both of its
//     AR(1)s track far more than 4n+16 clients once one VM is left, and
//     compact; a departed VM then returns to the compacted state.
//
// The memory-bound and random-I/O profiles congest the memory bus and the
// disk, so every grant depends on the draws. It returns every VM's last
// grant after every tick, every grant each workload was handed, and every
// VM's final counters.
func slotScenario(ref bool) scriptResult {
	eng := sim.NewEngine(100*time.Millisecond, 17)
	c := newCluster(ref)
	eng.RegisterPriority(c, 0)
	s0 := c.AddServer("s0", DefaultServerConfig(), eng.RNG())
	s1 := c.AddServer("s1", DefaultServerConfig(), eng.RNG())
	var vms []*VM
	var works []*pushWorkload
	add := func(srv *Server, id string) *VM {
		vm := c.AddVM(srv, id, 2, LowPriority, "")
		d := scriptProfiles[[]int{3, 4, 0}[len(vms)%3]]
		works = append(works, attachPush(vm, d))
		vms = append(vms, vm)
		return vm
	}
	var res scriptResult
	tick := func(n int) {
		for ; n > 0; n-- {
			eng.Run(1)
			row := make([]Grant, len(vms))
			for i, v := range vms {
				row[i] = v.LastGrant()
			}
			res.LastGrants = append(res.LastGrants, row)
		}
	}
	move := func(v *VM, srv *Server) {
		if err := c.MoveVM(v.ID(), srv.ID()); err != nil {
			panic(err)
		}
	}
	var a, b []*VM
	for i := 0; i < 3; i++ {
		a = append(a, add(s0, fmt.Sprintf("a%d", i)))
		b = append(b, add(s1, fmt.Sprintf("b%d", i)))
	}
	tick(4)
	for i := range a {
		move(a[i], s1)
		move(b[i], s0)
	}
	tick(4)
	move(b[1], s1)
	tick(3)
	move(b[1], s0)
	tick(3)
	for batch := 0; batch < 6; batch++ {
		var churn []*VM
		for i := 0; i < 5; i++ {
			churn = append(churn, add(s0, fmt.Sprintf("d%d-%d", batch, i)))
		}
		tick(2)
		for _, v := range churn {
			c.RemoveVM(v.ID())
		}
	}
	move(b[1], s1)
	move(b[2], s1)
	tick(3)
	move(b[2], s0)
	tick(3)
	for _, w := range works {
		res.Handed = append(res.Handed, w.grants)
	}
	for _, v := range vms {
		res.Counters = append(res.Counters, v.Cgroup().Snapshot())
	}
	return res
}

// TestClientSlotsMatchReference checks the allocators' per-client-list
// slot caches against the reference cluster, which drops them before
// every tick and so looks every client up by id.
func TestClientSlotsMatchReference(t *testing.T) {
	opt, ref := slotScenario(false), slotScenario(true)
	if !reflect.DeepEqual(opt, ref) {
		for i := range ref.LastGrants {
			if !reflect.DeepEqual(opt.LastGrants[i], ref.LastGrants[i]) {
				t.Fatalf("tick %d: last grants differ from the reference:\nopt: %+v\nref: %+v",
					i+1, opt.LastGrants[i], ref.LastGrants[i])
			}
		}
		t.Fatal("handed grants or counters differ from the reference")
	}
}
