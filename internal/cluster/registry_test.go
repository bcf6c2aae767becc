package cluster

import (
	"fmt"
	"testing"

	"perfcloud/internal/sim"
)

// FuzzVMRegistry drives a cluster's VM registry through a random sequence
// of adds, finds, moves and removes and checks it against a
// map[string]*VM model after every step: the same VMs are found, missing
// ids stay missing, a duplicate AddVM panics and a duplicate TryAddVM
// fails without touching the placement, NumVMs agrees, and every
// registered VM remains reachable — which backward-shift deletion must
// preserve across the probe runs it compacts. Each op is two bytes
// (opcode, id); ids come from a small pool so that adds collide,
// removes hit and miss, and the table grows through several doublings.
func FuzzVMRegistry(f *testing.F) {
	f.Add([]byte{0, 1, 0, 2, 0, 3, 1, 2, 3, 2, 1, 2, 2, 1})
	f.Fuzz(func(t *testing.T, ops []byte) {
		const ids = 96
		rng := sim.NewRNG(1)
		c := New()
		servers := []*Server{
			c.AddServer("s0", DefaultServerConfig(), rng),
			c.AddServer("s1", DefaultServerConfig(), rng),
		}
		model := map[string]*VM{}
		for k := 0; k+1 < len(ops); k += 2 {
			id := fmt.Sprintf("vm-%d", int(ops[k+1])%ids)
			switch ops[k] % 4 {
			case 0: // add
				srv := servers[int(ops[k+1])%2]
				if model[id] != nil && ops[k]&4 != 0 {
					seq := c.PlacementSeq()
					if v, err := c.TryAddVM(srv, id, 1, HighPriority, ""); v != nil || err == nil {
						t.Fatalf("op %d: duplicate TryAddVM of %s = %p, %v", k/2, id, v, err)
					}
					if c.PlacementSeq() != seq || model[id].Server().FindVM(id) != model[id] {
						t.Fatalf("op %d: rejected TryAddVM of %s changed the placement", k/2, id)
					}
					continue
				}
				if model[id] != nil {
					func() {
						defer func() {
							if recover() == nil {
								t.Fatalf("op %d: duplicate add of %s did not panic", k/2, id)
							}
						}()
						c.AddVM(srv, id, 1, HighPriority, "")
					}()
					continue
				}
				model[id] = c.AddVM(srv, id, 1, HighPriority, "")
			case 1: // find
				if got := c.FindVM(id); got != model[id] {
					t.Fatalf("op %d: FindVM(%s) = %p, model has %p", k/2, id, got, model[id])
				}
			case 2: // move
				err := c.MoveVM(id, servers[int(ops[k])/4%2].ID())
				if (err == nil) != (model[id] != nil) {
					t.Fatalf("op %d: MoveVM(%s) error %v with model VM %p", k/2, id, err, model[id])
				}
			case 3: // remove
				c.RemoveVM(id)
				delete(model, id)
			}
			if c.NumVMs() != len(model) {
				t.Fatalf("op %d: NumVMs %d, model holds %d", k/2, c.NumVMs(), len(model))
			}
			for mid, v := range model {
				if c.FindVM(mid) != v {
					t.Fatalf("op %d: registered VM %s unreachable", k/2, mid)
				}
			}
		}
		for i := 0; i < ids; i++ {
			id := fmt.Sprintf("vm-%d", i)
			if c.FindVM(id) != model[id] {
				t.Fatalf("final: FindVM(%s) = %p, model has %p", id, c.FindVM(id), model[id])
			}
		}
	})
}

// TestVMRegistryWrapAround pins backward-shift deletion across the end of
// the slot array: VMs whose probe runs wrap from the last slot to the
// first must stay reachable when a VM earlier in the run is removed.
func TestVMRegistryWrapAround(t *testing.T) {
	var r vmRegistry
	r.grow() // 8 slots
	mask := uint64(len(r.slots) - 1)
	var last []*VM
	for i := 0; len(last) < 3; i++ {
		v := &VM{}
		v.cg.Init(fmt.Sprintf("vm-%d", i))
		if hashID(v.ID())&mask == mask {
			last = append(last, v)
		}
	}
	for _, v := range last {
		if !r.insert(v) {
			t.Fatalf("insert %s failed", v.ID())
		}
	}
	if r.slots[0] == nil || r.slots[1] == nil {
		t.Fatalf("three VMs homed at the last slot did not wrap: %v", r.slots)
	}
	if r.remove(last[0].ID()) != last[0] {
		t.Fatalf("remove %s failed", last[0].ID())
	}
	for _, v := range last[1:] {
		if r.find(v.ID()) != v {
			t.Fatalf("%s unreachable after removing the head of its wrapped run", v.ID())
		}
	}
	if r.slots[1] != nil {
		t.Fatalf("backward shift left slot 1 occupied: %v", r.slots)
	}
}
