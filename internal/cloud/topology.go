package cloud

import (
	"fmt"

	"perfcloud/internal/cluster"
)

// Topology sizes the zone→rack→server hierarchy the manager assigns
// servers into: consecutive provisioned servers fill a rack, consecutive
// racks fill a zone. The hierarchy carries incrementally-maintained
// placed-vCPU totals, so zone/rack load queries and zone-constrained
// placement never rescan VMs.
type Topology struct {
	ServersPerRack int // 0 = 40
	RacksPerZone   int // 0 = 8
}

// DefaultTopology returns the default hierarchy sizing: 40-server racks,
// 8-rack (320-server) zones.
func DefaultTopology() Topology { return Topology{ServersPerRack: 40, RacksPerZone: 8} }

func (t Topology) serversPerRack() int {
	if t.ServersPerRack <= 0 {
		return 40
	}
	return t.ServersPerRack
}

func (t Topology) racksPerZone() int {
	if t.RacksPerZone <= 0 {
		return 8
	}
	return t.RacksPerZone
}

// Zone is one availability zone: an ordered set of racks with a running
// placed-vCPU total.
type Zone struct {
	id     string
	placed float64
	racks  []*Rack
}

// ID returns the zone's identifier ("zone-<k>").
func (z *Zone) ID() string { return z.id }

// PlacedVCPUs returns the vCPUs currently placed across the zone.
func (z *Zone) PlacedVCPUs() float64 { return z.placed }

// Racks returns the zone's racks in creation order (a copy).
func (z *Zone) Racks() []*Rack { return append([]*Rack(nil), z.racks...) }

// NumServers returns the number of servers assigned to the zone.
// O(racks in the zone), cheap enough for per-sample telemetry.
func (z *Zone) NumServers() int {
	n := 0
	for _, r := range z.racks {
		n += len(r.servers)
	}
	return n
}

// Rack is one rack: an ordered set of servers with a running placed-vCPU
// total.
type Rack struct {
	id      string
	zone    *Zone
	placed  float64
	servers []*cluster.Server
}

// ID returns the rack's identifier ("rack-<zone>-<k>").
func (r *Rack) ID() string { return r.id }

// Zone returns the zone containing the rack.
func (r *Rack) Zone() *Zone { return r.zone }

// PlacedVCPUs returns the vCPUs currently placed across the rack.
func (r *Rack) PlacedVCPUs() float64 { return r.placed }

// EachServer calls fn for every server in the rack in creation order.
func (r *Rack) EachServer(fn func(*cluster.Server)) {
	for _, s := range r.servers {
		fn(s)
	}
}

// srvEntry is the manager's per-server index record: the server, its
// rack, and the position of its key in the load heap. Entries are stored
// by value in Manager.srvs at the server's creation sequence, which is
// also its cluster index (Server.Index): servers are never removed, and
// the manager indexes them in cluster order.
type srvEntry struct {
	srv     *cluster.Server
	rack    *Rack
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

// leastLoadedInZone returns the least-loaded server within the named
// zone, or nil if the zone is unknown or empty. O(zone size) — zone
// placement is a constrained query the global heap cannot answer.
func (m *Manager) leastLoadedInZone(zoneID string) *cluster.Server {
	var best *cluster.Server
	var bestKey loadKey
	for _, z := range m.zones {
		if z.id != zoneID {
			continue
		}
		for _, r := range z.racks {
			for _, s := range r.servers {
				if k := m.key(s); best == nil || k.less(bestKey) {
					best, bestKey = s, k
				}
			}
		}
	}
	return best
}

// key returns an indexed server's current heap key.
func (m *Manager) key(s *cluster.Server) loadKey {
	return m.heap[m.srvs[s.Index()].heapIdx]
}

// indexServer adds a freshly provisioned (or re-discovered) server to
// the load index and the topology, folding any VMs already placed on it
// into the totals. Servers must arrive in cluster order.
func (m *Manager) indexServer(s *cluster.Server) {
	seq := len(m.srvs)
	var placed float64
	s.EachVM(func(v *cluster.VM) { placed += v.VCPUs() })
	r := m.rackFor(seq)
	r.servers = append(r.servers, s)
	r.placed += placed
	r.zone.placed += placed
	m.srvs = append(m.srvs, srvEntry{srv: s, rack: r})
	m.heap = append(m.heap, loadKey{placed: placed, seq: seq})
	m.siftUp(len(m.heap) - 1)
}

// rackFor returns the rack of the zone→rack grid that holds creation
// sequence seq: rack seq/ServersPerRack, zone rack/RacksPerZone, creating
// levels on demand.
func (m *Manager) rackFor(seq int) *Rack {
	rackIdx := seq / m.topo.serversPerRack()
	zoneIdx := rackIdx / m.topo.racksPerZone()
	for len(m.zones) <= zoneIdx {
		m.zones = append(m.zones, &Zone{id: fmt.Sprintf("zone-%d", len(m.zones))})
	}
	z := m.zones[zoneIdx]
	local := rackIdx % m.topo.racksPerZone()
	for len(z.racks) <= local {
		z.racks = append(z.racks, &Rack{id: fmt.Sprintf("rack-%d-%d", zoneIdx, len(z.racks)), zone: z})
	}
	return z.racks[local]
}

// addPlaced applies a placed-vCPU delta to a server's heap key and its
// rack and zone totals, and re-establishes the heap order.
func (m *Manager) addPlaced(s *cluster.Server, delta float64) {
	e := &m.srvs[s.Index()]
	m.heap[e.heapIdx].placed += delta
	e.rack.placed += delta
	e.rack.zone.placed += delta
	m.heapFix(e.heapIdx)
}

// rebuild re-derives the whole index — entries, heap, topology and
// totals — from the cluster's current state. Run at construction and
// whenever the cluster's placement sequence shows out-of-band mutations
// (tests adding VMs through cluster.AddVM directly); manager-mediated
// changes keep the index current incrementally and never pay this.
func (m *Manager) rebuild() {
	m.srvs = m.srvs[:0]
	m.heap = m.heap[:0]
	m.zones = nil
	m.cluster.EachServer(m.indexServer)
	m.syncedSeq = m.cluster.PlacementSeq()
}

// syncIndex revalidates the index against the cluster before any use.
func (m *Manager) syncIndex() {
	if m.syncedSeq != m.cluster.PlacementSeq() {
		m.rebuild()
	}
}

// SetTopology replaces the hierarchy sizing and re-assigns every server
// to its zone and rack. Call it before provisioning for the intended
// layout; calling later relabels existing servers in creation order.
func (m *Manager) SetTopology(t Topology) {
	m.topo = t
	m.rebuild()
}

// Topology returns the hierarchy sizing in effect.
func (m *Manager) Topology() Topology { return m.topo }

// Zones returns the zones in creation order (a copy).
func (m *Manager) Zones() []*Zone {
	m.syncIndex()
	return append([]*Zone(nil), m.zones...)
}

// EachZone calls fn for every zone in creation order without copying —
// the telemetry rollup key for the fleet's top level.
func (m *Manager) EachZone(fn func(*Zone)) {
	m.syncIndex()
	for _, z := range m.zones {
		fn(z)
	}
}

// ServerLocation returns the zone and rack ids hosting the given server.
func (m *Manager) ServerLocation(serverID string) (zone, rack string, ok bool) {
	s := m.cluster.FindServer(serverID)
	if s == nil {
		return "", "", false
	}
	m.syncIndex()
	r := m.srvs[s.Index()].rack
	return r.zone.id, r.id, true
}

// PlacedVCPUs returns the manager's incrementally maintained placed-vCPU
// total for a server.
func (m *Manager) PlacedVCPUs(serverID string) (float64, bool) {
	s := m.cluster.FindServer(serverID)
	if s == nil {
		return 0, false
	}
	m.syncIndex()
	return m.key(s).placed, true
}
