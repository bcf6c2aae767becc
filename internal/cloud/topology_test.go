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
	var best *cluster.Server
	bestLoad := -1.0
	c.EachServer(func(s *cluster.Server) {
		if s == exclude {
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

// placed returns the manager's incrementally maintained placed-vCPU
// total for a server: its heap key.
func placed(m *Manager, s *cluster.Server) float64 {
	return m.heap[m.srvs[s.Index()].heapIdx].placed
}

// checkIndex asserts the manager's incremental placed totals — per
// server and per zone — and each zone's server count against a fresh
// recount of the cluster.
func checkIndex(t *testing.T, m *Manager) {
	t.Helper()
	zonePlaced := map[*Zone]float64{}
	zoneServers := map[*Zone]int{}
	m.cluster.EachServer(func(s *cluster.Server) {
		var want float64
		s.EachVM(func(v *cluster.VM) { want += v.VCPUs() })
		if got := placed(m, s); got != want {
			t.Fatalf("server %s placed = %v, want %v", s.ID(), got, want)
		}
		z := m.srvs[s.Index()].zone
		zonePlaced[z] += want
		zoneServers[z]++
	})
	for _, z := range m.Zones() {
		if z.PlacedVCPUs() != zonePlaced[z] {
			t.Fatalf("zone %s placed = %v, want %v", z.ID(), z.PlacedVCPUs(), zonePlaced[z])
		}
		if z.NumServers() != zoneServers[z] {
			t.Fatalf("zone %s servers = %d, want %d", z.ID(), z.NumServers(), zoneServers[z])
		}
	}
	// Entries sit at their server's cluster index, and every server holds
	// exactly one heap key.
	if len(m.srvs) != m.cluster.NumServers() || len(m.heap) != len(m.srvs) {
		t.Fatalf("%d entries, %d keys for %d servers", len(m.srvs), len(m.heap), m.cluster.NumServers())
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

// TestHeapMatchesLinearScan drives a long random sequence of spread
// boots, migrations and rebalance-style exclusions, checking at every
// step that the heap's choice equals the old linear rescan's and that
// all incremental totals stay exact.
func TestHeapMatchesLinearScan(t *testing.T) {
	eng := sim.NewEngine(100*time.Millisecond, 3)
	c := cluster.New()
	m := NewManager(c, eng.RNG())
	srvs := m.ProvisionServers(13)
	r := rand.New(rand.NewSource(99))
	var live []string
	for step := 0; step < 400; step++ {
		switch op := r.Intn(10); {
		case op < 5 || len(live) == 0: // spread boot
			spec := VMSpec{Name: fmt.Sprintf("vm-%d", len(live))}
			want := scanLeastLoaded(c, nil)
			v, err := m.Boot(spec)
			if err != nil {
				t.Fatal(err)
			}
			if v.Server() != want {
				t.Fatalf("step %d: boot %+v placed on %s, scan wants %s", step, spec, v.Server().ID(), want.ID())
			}
			live = append(live, spec.Name)
		case op < 8: // migrate a random VM to a random server
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

// TestTopologyAssignment checks the creation-order zone grid: 320
// consecutive servers fill a zone, the 321st opens the next.
func TestTopologyAssignment(t *testing.T) {
	eng := sim.NewEngine(100*time.Millisecond, 1)
	c := cluster.New()
	m := NewManager(c, eng.RNG())
	srvs := m.ProvisionServers(321)
	zones := m.Zones()
	if len(zones) != 2 || zones[0].NumServers() != 320 || zones[1].NumServers() != 1 {
		t.Fatalf("zones = %d, want 2 of 320 and 1 servers", len(zones))
	}
	for i, want := range map[int]string{0: "zone-0", 319: "zone-0", 320: "zone-1"} {
		if got := m.srvs[srvs[i].Index()].zone.ID(); got != want {
			t.Errorf("%s in %s, want %s", srvs[i].ID(), got, want)
		}
	}
	mustBoot(t, m, VMSpec{Name: "last", ServerID: srvs[320].ID()})
	if zones[0].PlacedVCPUs() != 0 || zones[1].PlacedVCPUs() != vmVCPUs {
		t.Errorf("zone placed = %v, %v; want 0, %v", zones[0].PlacedVCPUs(), zones[1].PlacedVCPUs(), vmVCPUs)
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
	c.AddVM(srvs[0], "backdoor", 8, cluster.LowPriority, "")
	v := mustBoot(t, m, VMSpec{Name: "after"})
	if v.Server().ID() != "server-1" {
		t.Errorf("post-resync boot placed on %s, want the empty server-1", v.Server().ID())
	}
	if p := placed(m, srvs[0]); p != 8 {
		t.Errorf("resynced placed for server-0 = %v, want 8", p)
	}
	checkIndex(t, m)
}
