package cloud

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"perfcloud/internal/cluster"
	"perfcloud/internal/sim"
)

// scanLeastLoaded is the reference placement the heap must reproduce:
// the first server in creation order with strictly fewest placed vcpus,
// exactly the linear rescan the manager shipped with before the index.
func scanLeastLoaded(c *cluster.Cluster, exclude *cluster.Server) *cluster.Server {
	return scanLeastLoadedWhere(c, func(s *cluster.Server) bool { return s != exclude })
}

// scanLeastLoadedWhere is scanLeastLoaded over the servers keep admits.
func scanLeastLoadedWhere(c *cluster.Cluster, keep func(*cluster.Server) bool) *cluster.Server {
	var best *cluster.Server
	bestLoad := -1.0
	c.EachServer(func(s *cluster.Server) {
		if !keep(s) {
			return
		}
		var load float64
		s.EachVM(func(v *cluster.VM) { load += v.VCPUs() })
		if best == nil || load < bestLoad {
			best, bestLoad = s, load
		}
	})
	return best
}

// checkIndex asserts the manager's incremental placed totals — per
// server, per rack, per zone — against a fresh recount of the cluster.
func checkIndex(t *testing.T, m *Manager) {
	t.Helper()
	m.Cluster().EachServer(func(s *cluster.Server) {
		var want float64
		s.EachVM(func(v *cluster.VM) { want += v.VCPUs() })
		got, ok := m.PlacedVCPUs(s.ID())
		if !ok || got != want {
			t.Fatalf("server %s placed = %v (ok=%v), want %v", s.ID(), got, ok, want)
		}
	})
	for _, z := range m.Zones() {
		var zSum float64
		for _, r := range z.Racks() {
			var rSum float64
			r.EachServer(func(s *cluster.Server) {
				p, _ := m.PlacedVCPUs(s.ID())
				rSum += p
			})
			if r.PlacedVCPUs() != rSum {
				t.Fatalf("rack %s placed = %v, want %v", r.ID(), r.PlacedVCPUs(), rSum)
			}
			zSum += rSum
		}
		if z.PlacedVCPUs() != zSum {
			t.Fatalf("zone %s placed = %v, want %v", z.ID(), z.PlacedVCPUs(), zSum)
		}
	}
	// Entries sit at their server's cluster index, and every server holds
	// exactly one heap key.
	if len(m.srvs) != m.Cluster().NumServers() || len(m.heap) != len(m.srvs) {
		t.Fatalf("%d entries, %d keys for %d servers", len(m.srvs), len(m.heap), m.Cluster().NumServers())
	}
	for i, e := range m.srvs {
		if e.srv.Index() != i {
			t.Fatalf("entry %d holds server %s at cluster index %d", i, e.srv.ID(), e.srv.Index())
		}
	}
	// Heap order: every node at most its children under (placed, seq),
	// and every key's entry points back at it.
	for i, k := range m.heap {
		if m.srvs[k.seq].heapIdx != i {
			t.Fatalf("heap[%d] back-pointer = %d", i, m.srvs[k.seq].heapIdx)
		}
		for _, ch := range []int{2*i + 1, 2*i + 2} {
			if ch < len(m.heap) && m.heap[ch].less(k) {
				t.Fatalf("heap violated at %d/%d", i, ch)
			}
		}
	}
}

// TestHeapMatchesLinearScan drives a long random sequence of spread and
// zone-constrained boots, migrations, terminations and rebalance-style
// exclusions, checking at
// every step that the heap's choice equals the old linear rescan's and
// that all incremental totals stay exact.
func TestHeapMatchesLinearScan(t *testing.T) {
	eng := sim.NewEngine(100*time.Millisecond, 3)
	c := cluster.New()
	m := NewManager(c, eng.RNG())
	m.SetTopology(Topology{ServersPerRack: 4, RacksPerZone: 2})
	srvs := m.ProvisionServers(13)
	r := rand.New(rand.NewSource(99))
	var live []string
	nextVM := 0
	for step := 0; step < 400; step++ {
		switch op := r.Intn(10); {
		case op < 5 || len(live) == 0: // boot, random vcpus: spread placement, 1 in 4 zone-constrained
			spec := VMSpec{Name: fmt.Sprintf("vm-%d", nextVM), VCPUs: float64(1 + r.Intn(4))}
			nextVM++
			want := scanLeastLoaded(c, nil)
			if r.Intn(4) == 0 {
				spec.Zone = fmt.Sprintf("zone-%d", r.Intn(2))
				want = scanLeastLoadedWhere(c, func(s *cluster.Server) bool {
					z, _, _ := m.ServerLocation(s.ID())
					return z == spec.Zone
				})
			}
			v, err := m.Boot(spec)
			if err != nil {
				t.Fatal(err)
			}
			if v.Server() != want {
				t.Fatalf("step %d: boot %+v placed on %s, scan wants %s", step, spec, v.Server().ID(), want.ID())
			}
			live = append(live, spec.Name)
		case op < 7: // terminate a random VM
			i := r.Intn(len(live))
			m.Terminate(live[i])
			live = append(live[:i], live[i+1:]...)
		case op < 9: // migrate a random VM to a random server
			v := live[r.Intn(len(live))]
			if err := m.Migrate(v, srvs[r.Intn(len(srvs))].ID()); err != nil {
				t.Fatal(err)
			}
		default: // least-loaded excluding a random src (the rebalance query)
			src := srvs[r.Intn(len(srvs))]
			got := m.leastLoadedExcluding(src)
			want := scanLeastLoaded(c, src)
			if got != want {
				t.Fatalf("step %d: excluding %s heap says %v, scan says %v",
					step, src.ID(), got, want)
			}
		}
		checkIndex(t, m)
	}
}

// TestTopologyAssignment checks the creation-order zone/rack grid and
// the zone-constrained boot path.
func TestTopologyAssignment(t *testing.T) {
	eng := sim.NewEngine(100*time.Millisecond, 1)
	c := cluster.New()
	m := NewManager(c, eng.RNG())
	m.SetTopology(Topology{ServersPerRack: 2, RacksPerZone: 2})
	m.ProvisionServers(10) // 5 racks -> zones of 2 racks: z0{r0,r1} z1{r2,r3} z2{r4}
	zones := m.Zones()
	if len(zones) != 3 {
		t.Fatalf("zones = %d, want 3", len(zones))
	}
	wants := map[string][2]string{
		"server-0": {"zone-0", "rack-0-0"},
		"server-3": {"zone-0", "rack-0-1"},
		"server-4": {"zone-1", "rack-1-0"},
		"server-7": {"zone-1", "rack-1-1"},
		"server-9": {"zone-2", "rack-2-0"},
	}
	for id, want := range wants {
		z, r, ok := m.ServerLocation(id)
		if !ok || z != want[0] || r != want[1] {
			t.Errorf("%s at (%s,%s,%v), want %v", id, z, r, ok, want)
		}
	}
	if _, _, ok := m.ServerLocation("nope"); ok {
		t.Error("unknown server located")
	}
	// Zone-constrained boot lands in zone-1 (servers 4-7) even though the
	// whole fleet is empty and the global spread would pick server-0.
	v, err := m.Boot(VMSpec{Name: "pinned", Zone: "zone-1"})
	if err != nil {
		t.Fatal(err)
	}
	if v.Server().ID() != "server-4" {
		t.Errorf("zone boot placed on %s, want server-4", v.Server().ID())
	}
	if _, err := m.Boot(VMSpec{Name: "x", Zone: "zone-99"}); err == nil {
		t.Error("unknown zone: want error")
	}
	checkIndex(t, m)
}

// TestIndexResyncsAfterDirectClusterMutation mutates the cluster behind
// the manager's back; the placement-sequence check must catch it and the
// next placement must account for the out-of-band VM.
func TestIndexResyncsAfterDirectClusterMutation(t *testing.T) {
	eng := sim.NewEngine(100*time.Millisecond, 1)
	c := cluster.New()
	m := NewManager(c, eng.RNG())
	srvs := m.ProvisionServers(2)
	// Load server-0 directly through the cluster, bypassing Boot.
	c.AddVM(srvs[0], "backdoor", 8, 8<<30, cluster.LowPriority, "")
	v := mustBoot(t, m, VMSpec{Name: "after"})
	if v.Server().ID() != "server-1" {
		t.Errorf("post-resync boot placed on %s, want the empty server-1", v.Server().ID())
	}
	if p, ok := m.PlacedVCPUs("server-0"); !ok || p != 8 {
		t.Errorf("resynced placed for server-0 = %v, want 8", p)
	}
	checkIndex(t, m)
}
