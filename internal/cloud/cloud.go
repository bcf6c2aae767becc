// Package cloud is the OpenStack-Nova-like cloud manager of the
// reproduction: the authority on VM placement, instance priority and
// application membership. PerfCloud's node managers periodically query it
// (as the paper's agents do through the Nova API) to learn which VMs on
// their server are high priority and which high-priority VMs form one
// scale-out application — staying current across VM arrivals, departures
// and migrations (§III-D2, Algorithm 1).
package cloud

import (
	"fmt"
	"sort"

	"perfcloud/internal/cluster"
	"perfcloud/internal/sim"
)

// VMSpec describes an instance to boot. Every instance has the paper's
// VM shape: 2 vcpus and 8 GB of memory.
type VMSpec struct {
	Name     string
	Priority cluster.Priority
	AppID    string // "" for standalone VMs
	ServerID string // "" lets the scheduler pick the least-loaded server
}

// The shape of every booted VM.
const (
	vmVCPUs    = 2
	vmMemBytes = 8 << 30
)

// VMInfo is what the cloud manager tells node managers about a VM.
type VMInfo struct {
	ID       string
	Priority cluster.Priority
	AppID    string
	ServerID string
}

// Manager tracks placement over a cluster. Placement state lives in an
// incrementally maintained index (topology.go): per-server entries
// grouped into zones, plus an indexed min-heap of inline (placed vcpus,
// creation order) keys. Boot, Migrate and RebalanceHighPriority update
// the index in O(log servers) and never rescan the fleet's VMs.
type Manager struct {
	cluster *cluster.Cluster
	rng     *sim.RNG
	nextSrv int

	srvs  []srvEntry // by creation sequence, which is the cluster index
	heap  []loadKey
	zones []*Zone
	// syncedSeq mirrors the cluster's placement sequence as of the last
	// index update; a mismatch means some mutation bypassed the manager
	// (cluster.AddVM or RemoveVM called directly) and forces a rebuild.
	syncedSeq uint64
}

// NewManager creates a cloud manager over a (possibly pre-populated)
// cluster.
func NewManager(c *cluster.Cluster, rng *sim.RNG) *Manager {
	m := &Manager{cluster: c, rng: rng}
	m.rebuild()
	return m
}

// ProvisionServers adds n bare-metal servers with the default config and
// returns them, naming them server-<k> with a monotonically increasing k.
func (m *Manager) ProvisionServers(n int) []*cluster.Server {
	return m.ProvisionServersWith(n, cluster.DefaultServerConfig())
}

// ProvisionServersWith adds n servers with an explicit hardware config —
// heterogeneous fleets mix calls with different configs.
func (m *Manager) ProvisionServersWith(n int, cfg cluster.ServerConfig) []*cluster.Server {
	m.syncIndex()
	out := make([]*cluster.Server, 0, n)
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("server-%d", m.nextSrv)
		m.nextSrv++
		s := m.cluster.AddServer(id, cfg, m.rng)
		m.indexServer(s)
		out = append(out, s)
	}
	m.syncedSeq = m.cluster.PlacementSeq()
	return out
}

// Boot creates a VM per spec. With an empty ServerID the scheduler picks
// the server with the fewest placed vcpus (a simple spread placement,
// matching how the paper's testbed distributes Hadoop VMs) — the heap
// root, in O(1) plus an O(log servers) update, regardless of fleet size.
func (m *Manager) Boot(spec VMSpec) (*cluster.VM, error) {
	if spec.Name == "" {
		return nil, fmt.Errorf("cloud: VM spec needs a name")
	}
	// The cluster's registry insert is the duplicate check; a taken name
	// is looked up only on the placement error paths, where it still
	// takes precedence.
	m.syncIndex()
	var srv *cluster.Server
	var err error
	switch {
	case spec.ServerID != "":
		if srv = m.cluster.FindServer(spec.ServerID); srv == nil {
			err = fmt.Errorf("cloud: no server %q", spec.ServerID)
		}
	default:
		if srv = m.leastLoaded(); srv == nil {
			err = fmt.Errorf("cloud: no servers provisioned")
		}
	}
	if err != nil {
		if m.cluster.FindVM(spec.Name) != nil {
			return nil, errTaken(spec.Name)
		}
		return nil, err
	}
	vm, err := m.cluster.TryAddVM(srv, spec.Name, vmVCPUs, vmMemBytes, spec.Priority, spec.AppID)
	if err != nil {
		return nil, errTaken(spec.Name)
	}
	m.addPlaced(srv, vmVCPUs)
	m.syncedSeq = m.cluster.PlacementSeq()
	return vm, nil
}

// errTaken is Boot's error for a VM name already in use.
func errTaken(name string) error { return fmt.Errorf("cloud: VM %q already exists", name) }

// VMsOnServer answers the node manager's periodic query: every VM hosted
// on the given server with its priority and application membership.
func (m *Manager) VMsOnServer(serverID string) ([]VMInfo, error) {
	srv := m.cluster.FindServer(serverID)
	if srv == nil {
		return nil, fmt.Errorf("cloud: no server %q", serverID)
	}
	out := make([]VMInfo, 0, srv.NumVMs())
	srv.EachVM(func(v *cluster.VM) {
		out = append(out, VMInfo{ID: v.ID(), Priority: v.Priority(), AppID: v.AppID(), ServerID: serverID})
	})
	return out, nil
}

// EachVMOnServer is the non-copying VMsOnServer: it calls fn once per VM
// on the server, in placement order, without building a slice. Node
// managers poll placement every interval, so their hot path uses this.
func (m *Manager) EachVMOnServer(serverID string, fn func(VMInfo)) error {
	srv := m.cluster.FindServer(serverID)
	if srv == nil {
		return fmt.Errorf("cloud: no server %q", serverID)
	}
	srv.EachVM(func(v *cluster.VM) {
		fn(VMInfo{ID: v.ID(), Priority: v.Priority(), AppID: v.AppID(), ServerID: serverID})
	})
	return nil
}

// HighPriorityApps groups the high-priority VMs on a server by
// application id, sorted for deterministic iteration.
func (m *Manager) HighPriorityApps(serverID string) (map[string][]string, error) {
	infos, err := m.VMsOnServer(serverID)
	if err != nil {
		return nil, err
	}
	apps := make(map[string][]string)
	for _, in := range infos {
		if in.Priority == cluster.HighPriority && in.AppID != "" {
			apps[in.AppID] = append(apps[in.AppID], in.ID)
		}
	}
	for id := range apps {
		sort.Strings(apps[id])
	}
	return apps, nil
}

// Migrate live-migrates a VM to another server, preserving its identity
// (cgroup, caps, workload, framework references). The paper lists
// migration as the cloud manager's complement to node-level throttling
// when multiple high-priority apps collide (§III-D2, §IV-D2).
func (m *Manager) Migrate(vmID, toServerID string) error {
	m.syncIndex()
	v := m.cluster.FindVM(vmID)
	var src *cluster.Server
	if v != nil {
		src = v.Server()
	}
	if err := m.cluster.MoveVM(vmID, toServerID); err != nil {
		return fmt.Errorf("cloud: %w", err)
	}
	if dst := v.Server(); dst != src {
		m.addPlaced(src, -v.VCPUs())
		m.addPlaced(dst, v.VCPUs())
		m.syncedSeq = m.cluster.PlacementSeq()
	}
	return nil
}

// RebalanceHighPriority handles a node manager's escalation: when two or
// more high-priority applications collide on one server and throttling
// low-priority VMs cannot help, move one VM of the smaller colocated app
// to the server currently hosting the fewest vcpus. It returns the id of
// the migrated VM ("" if nothing could be improved).
func (m *Manager) RebalanceHighPriority(serverID string) (string, error) {
	apps, err := m.HighPriorityApps(serverID)
	if err != nil {
		return "", err
	}
	if len(apps) < 2 {
		return "", nil
	}
	// Pick the app with the fewest VMs on this server (cheapest to move),
	// deterministically by name on ties.
	var pick string
	for id, vms := range apps {
		if pick == "" || len(vms) < len(apps[pick]) || (len(vms) == len(apps[pick]) && id < pick) {
			pick = id
		}
	}
	m.syncIndex()
	src := m.cluster.FindServer(serverID)
	dst := m.leastLoadedExcluding(src)
	if dst == nil {
		return "", nil
	}
	vmID := apps[pick][0]
	if err := m.Migrate(vmID, dst.ID()); err != nil {
		return "", err
	}
	return vmID, nil
}
