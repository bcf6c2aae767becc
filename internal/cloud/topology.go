package cloud

import (
	"fmt"

	"perfcloud/internal/cluster"
)

// serversPerZone sizes the zone→server grid the manager assigns servers
// into: consecutive provisioned servers fill a zone. Each zone carries an
// incrementally maintained placed-vCPU total, so zone load queries never
// rescan VMs.
const serversPerZone = 320

// Zone is one availability zone: a run of consecutively provisioned
// servers with a running placed-vCPU total.
type Zone struct {
	id      string
	placed  float64
	servers int
}

// ID returns the zone's identifier ("zone-<k>").
func (z *Zone) ID() string { return z.id }

// PlacedVCPUs returns the vCPUs currently placed across the zone.
func (z *Zone) PlacedVCPUs() float64 { return z.placed }

// NumServers returns the number of servers assigned to the zone.
func (z *Zone) NumServers() int { return z.servers }

// srvEntry is the manager's per-server index record: the server, its
// zone, and the position of its key in the load heap. Entries are stored
// by value in Manager.srvs at the server's creation sequence, which is
// also its cluster index (Server.Index): servers are never removed, and
// the manager indexes them in cluster order.
type srvEntry struct {
	srv     *cluster.Server
	zone    *Zone
	heapIdx int
}

// loadKey is one node of the load heap: a server's placed vCPUs and its
// creation sequence. The keys sit inline in one contiguous, pointer-free
// slice, so a sift compares neighbouring words instead of dereferencing
// an entry per comparison, and the garbage collector neither scans the
// heap nor runs write barriers on its moves.
type loadKey struct {
	placed float64
	seq    int
}

// less orders keys by (placed vCPUs, creation sequence) — the strict
// total order under which the heap minimum reproduces the old "first
// server with strictly fewest placed vcpus" scan bit for bit.
func (a loadKey) less(b loadKey) bool {
	if a.placed != b.placed {
		return a.placed < b.placed
	}
	return a.seq < b.seq
}

// The load index is a hand-rolled indexed binary min-heap: each entry
// records its key's heap position, so a placed-vCPU change re-establishes
// heap order in O(log n) with heapFix instead of a rebuild, and Boot's
// least-loaded lookup is O(1) at the root. The sifts move a hole rather
// than swapping, so each level costs one key copy and one position write.

// put stores k at heap position i and records the position in k's entry.
func (m *Manager) put(i int, k loadKey) {
	m.heap[i] = k
	m.srvs[k.seq].heapIdx = i
}

func (m *Manager) siftUp(i int) {
	k := m.heap[i]
	for i > 0 {
		p := (i - 1) / 2
		if !k.less(m.heap[p]) {
			break
		}
		m.put(i, m.heap[p])
		i = p
	}
	m.put(i, k)
}

func (m *Manager) siftDown(i int) {
	h := m.heap
	k := h[i]
	for {
		c := 2*i + 1
		if c >= len(h) {
			break
		}
		if r := c + 1; r < len(h) && h[r].less(h[c]) {
			c = r
		}
		if !h[c].less(k) {
			break
		}
		m.put(i, h[c])
		i = c
	}
	m.put(i, k)
}

// heapFix restores heap order after the key at position i changed in
// either direction: a key that beats its parent can only move up, any
// other only down.
func (m *Manager) heapFix(i int) {
	if i > 0 && m.heap[i].less(m.heap[(i-1)/2]) {
		m.siftUp(i)
	} else {
		m.siftDown(i)
	}
}

// leastLoaded returns the globally least-loaded server (the heap root),
// or nil with no servers provisioned.
func (m *Manager) leastLoaded() *cluster.Server {
	if len(m.heap) == 0 {
		return nil
	}
	return m.srvs[m.heap[0].seq].srv
}

// leastLoadedExcluding returns the least-loaded server other than src.
// The second-smallest element of a binary min-heap is one of the root's
// children, so excluding the root costs two comparisons, not a scan.
func (m *Manager) leastLoadedExcluding(src *cluster.Server) *cluster.Server {
	h := m.heap
	switch {
	case len(h) == 0:
		return nil
	case m.srvs[h[0].seq].srv != src:
		return m.srvs[h[0].seq].srv
	case len(h) == 1:
		return nil
	}
	best := h[1]
	if len(h) > 2 && h[2].less(best) {
		best = h[2]
	}
	return m.srvs[best.seq].srv
}

// indexServer adds a freshly provisioned (or re-discovered) server to
// the load index and its zone, folding any VMs already placed on it into
// the totals. Servers must arrive in cluster order.
func (m *Manager) indexServer(s *cluster.Server) {
	seq := len(m.srvs)
	var placed float64
	s.EachVM(func(v *cluster.VM) { placed += v.VCPUs() })
	z := m.zoneFor(seq)
	z.servers++
	z.placed += placed
	m.srvs = append(m.srvs, srvEntry{srv: s, zone: z})
	m.heap = append(m.heap, loadKey{placed: placed, seq: seq})
	m.siftUp(len(m.heap) - 1)
}

// zoneFor returns the zone of the zone→server grid that holds creation
// sequence seq, creating zones on demand.
func (m *Manager) zoneFor(seq int) *Zone {
	k := seq / serversPerZone
	for len(m.zones) <= k {
		m.zones = append(m.zones, &Zone{id: fmt.Sprintf("zone-%d", len(m.zones))})
	}
	return m.zones[k]
}

// addPlaced applies a placed-vCPU delta to a server's heap key and its
// zone total, and re-establishes the heap order.
func (m *Manager) addPlaced(s *cluster.Server, delta float64) {
	e := &m.srvs[s.Index()]
	m.heap[e.heapIdx].placed += delta
	e.zone.placed += delta
	m.heapFix(e.heapIdx)
}

// rebuild re-derives the whole index — entries, heap, zones and totals —
// from the cluster's current state. Run at construction and whenever the
// cluster's placement sequence shows out-of-band mutations (VMs added or
// removed through the cluster directly); manager-mediated changes keep
// the index current incrementally and never pay this. Servers are never
// removed, so the zones are kept and recounted: callers holding a *Zone
// (fleet telemetry) keep reading live totals.
func (m *Manager) rebuild() {
	m.srvs = m.srvs[:0]
	m.heap = m.heap[:0]
	for _, z := range m.zones {
		z.placed, z.servers = 0, 0
	}
	m.cluster.EachServer(m.indexServer)
	m.syncedSeq = m.cluster.PlacementSeq()
}

// syncIndex revalidates the index against the cluster before any use.
func (m *Manager) syncIndex() {
	if m.syncedSeq != m.cluster.PlacementSeq() {
		m.rebuild()
	}
}

// Zones returns the zones in creation order (a copy).
func (m *Manager) Zones() []*Zone {
	m.syncIndex()
	return append([]*Zone(nil), m.zones...)
}

// EachZone calls fn for every zone in creation order without copying —
// the top level of the fleet telemetry.
func (m *Manager) EachZone(fn func(*Zone)) {
	m.syncIndex()
	for _, z := range m.zones {
		fn(z)
	}
}
