package cluster

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"
	"time"

	"perfcloud/internal/sim"
)

// TestShardPartition checks the partition arithmetic: ceil(servers/64)
// contiguous ranges covering every server with near-equal sizes.
func TestShardPartition(t *testing.T) {
	build := func(servers int) *Cluster {
		eng := sim.NewEngine(100*time.Millisecond, 1)
		c := New()
		for i := 0; i < servers; i++ {
			c.AddServer(fmt.Sprintf("s%03d", i), DefaultServerConfig(), eng.RNG())
		}
		return c
	}
	cases := []struct {
		servers, wantShards int
	}{
		{0, 0},     // empty cluster: no shards
		{6, 1},     // small cluster collapses to one shard
		{64, 1},    // exactly one full shard
		{65, 2},    // one server over: a second shard
		{130, 3},   // ceil(130/64)
		{1000, 16}, // planet-style fleets: ~64 per shard
	}
	for _, tc := range cases {
		c := build(tc.servers)
		if got := c.ShardCount(); got != tc.wantShards {
			t.Errorf("servers=%d: ShardCount = %d, want %d", tc.servers, got, tc.wantShards)
			continue
		}
		// Ranges must tile [0, servers) in order, sizes within 1.
		next, min, max := 0, tc.servers, 0
		for i := range c.shards {
			sh := &c.shards[i]
			if sh.start != next || sh.end <= sh.start {
				t.Errorf("servers=%d: shard %d range [%d,%d) after %d",
					tc.servers, i, sh.start, sh.end, next)
			}
			next = sh.end
			if sz := sh.end - sh.start; sz < min {
				min = sz
			} else if sz > max {
				max = sz
			}
			// Every index in range must map back to this shard.
			for j := sh.start; j < sh.end; j++ {
				if c.shardIndex(j) != i {
					t.Fatalf("shardIndex(%d) = %d, want %d", j, c.shardIndex(j), i)
				}
			}
		}
		if next != tc.servers {
			t.Errorf("servers=%d: shards cover [0,%d), want [0,%d)", tc.servers, next, tc.servers)
		}
		if tc.servers > 0 && max-min > 1 {
			t.Errorf("servers=%d: shard sizes range %d..%d, want near-equal", tc.servers, min, max)
		}
	}
}

// shardScenario drives one 200-server cluster — four shards of 50 — through
// the life cycle the sharded tick must get right: busy servers in every
// shard finishing into quiescence, a long parked stretch, a cross-shard
// migration off a parked server, wake-ups in other shards, a mid-run
// server addition forcing a repartition, and a fleet of always-empty
// servers. Only every 20th server hosts VMs; the rest are idle from birth
// and cost nothing. It returns every observable output: cgroup counters
// and last grants.
func shardScenario(c *Cluster) (snaps []any) {
	eng := sim.NewEngine(100*time.Millisecond, 42)
	eng.RegisterPriority(c, 0)
	var vms []*VM
	for s := 0; s < 200; s++ {
		srv := c.AddServer(fmt.Sprintf("server-%03d", s), DefaultServerConfig(), eng.RNG())
		if s%20 != 0 {
			continue
		}
		for i := 0; i < 2; i++ {
			vms = append(vms, c.AddVM(srv, fmt.Sprintf("vm-%03d-%d", s, i), 2, LowPriority, ""))
		}
	}
	// Wave 1: servers 0, 40, ..., 160 — every shard — run finite
	// workloads, then everything idles.
	for s := 0; s < 200; s += 40 {
		c.FindVM(fmt.Sprintf("vm-%03d-0", s)).SetWorkload(
			&fakeWorkload{name: "w1", demand: busyDemand(), maxWork: 0.5})
	}
	eng.Run(30)
	// Cross-shard migration off a parked server (shard 1 to shard 2), then
	// wave 2 on both the migrated VM and a never-woken server in shard 0.
	if err := c.MoveVM("vm-060-1", "server-140"); err != nil {
		panic(err)
	}
	c.FindVM("vm-060-1").SetWorkload(&fakeWorkload{name: "w2", demand: busyDemand(), maxWork: 0.4})
	c.FindVM("vm-020-0").SetWorkload(&fakeWorkload{name: "w3", demand: busyDemand(), maxWork: 0.4})
	eng.Run(30)
	// Mid-run provisioning repartitions the cluster.
	srv := c.AddServer("server-200", DefaultServerConfig(), eng.RNG())
	nv := c.AddVM(srv, "vm-200-0", 2, LowPriority, "")
	nv.SetWorkload(&fakeWorkload{name: "w4", demand: busyDemand(), maxWork: 0.3})
	vms = append(vms, nv)
	eng.Run(20)
	for _, v := range vms {
		snaps = append(snaps, v.Cgroup().Snapshot(), v.LastGrant())
	}
	return snaps
}

// TestShardedMatchesFlat is the cluster-level bit-for-bit equivalence
// check of the sharded tick: the scenario must produce the reference
// cluster's cgroup counters and grants, and it must park servers.
func TestShardedMatchesFlat(t *testing.T) {
	want := shardScenario(NewReference())
	c := New()
	if got := shardScenario(c); !reflect.DeepEqual(got, want) {
		t.Error("sharded outputs diverge from the reference cluster")
	}
	if fp := c.FastPathStats(); fp.QuiescentSkips == 0 || fp.ShardSkips == 0 {
		t.Errorf("scenario parked nothing: %+v", fp)
	}
}

// TestShardActiveSetBookkeeping checks the O(active) contract directly:
// parked servers leave the active set, wholly inactive shards are
// skipped, and dirtying events restore exactly the touched servers. A
// reference cluster keeps every server active.
func TestShardActiveSetBookkeeping(t *testing.T) {
	build := func(c *Cluster) (*sim.Engine, []*VM) {
		eng := sim.NewEngine(100*time.Millisecond, 7)
		eng.RegisterPriority(c, 0)
		var vms []*VM
		for s := 0; s < 130; s++ { // three shards: 44, 43, 43 servers
			srv := c.AddServer(fmt.Sprintf("server-%03d", s), DefaultServerConfig(), eng.RNG())
			vms = append(vms, c.AddVM(srv, fmt.Sprintf("vm-%03d", s), 2, LowPriority, ""))
		}
		return eng, vms
	}
	c := New()
	eng, vms := build(c)
	if got := c.ActiveServers(); got != 130 {
		t.Fatalf("fresh cluster ActiveServers = %d, want 130", got)
	}
	eng.Run(3) // all idle: every server parks after its first processed tick
	if got := c.ActiveServers(); got != 0 {
		t.Fatalf("all-idle cluster ActiveServers = %d, want 0", got)
	}
	skipsBefore := c.FastPathStats().ShardSkips
	eng.Run(4)
	if got := c.FastPathStats().ShardSkips - skipsBefore; got != 12 {
		t.Errorf("4 parked ticks skipped %d shards, want 12 (3 shards x 4 ticks)", got)
	}
	// Wake one server; only it returns to the active set, and only its
	// shard is visited.
	vms[100].SetWorkload(&fakeWorkload{name: "w", demand: busyDemand(), maxWork: 1e9})
	skipsBefore = c.FastPathStats().ShardSkips
	eng.Step()
	if got := c.ActiveServers(); got != 1 {
		t.Errorf("after one wake ActiveServers = %d, want 1", got)
	}
	if got := c.FastPathStats().ShardSkips - skipsBefore; got != 2 {
		t.Errorf("tick with one busy shard skipped %d shards, want 2", got)
	}
	if vms[100].LastGrant().CPUSeconds == 0 {
		t.Error("woken workload received no grant")
	}

	ref := NewReference()
	eng, _ = build(ref)
	eng.Run(3)
	if got := ref.ActiveServers(); got != 130 {
		t.Errorf("reference cluster ActiveServers = %d, want 130", got)
	}
	if got := ref.FastPathStats(); got.QuiescentSkips != 0 || got.ShardSkips != 0 {
		t.Errorf("reference cluster skipped work: %+v", got)
	}
}

// TestWakeQueueAllocatesNothing: the wake queue is a bitset allocated
// with the active bitset at each partition build, so waking a parked
// fleet allocates nothing, and wakes still pending when a new server
// forces a repartition survive it.
func TestWakeQueueAllocatesNothing(t *testing.T) {
	eng := sim.NewEngine(100*time.Millisecond, 5)
	c := New()
	eng.RegisterPriority(c, 0)
	var vms []*VM
	var works []Workload
	for s := 0; s < 70; s++ {
		srv := c.AddServer(fmt.Sprintf("server-%02d", s), DefaultServerConfig(), eng.RNG())
		vms = append(vms, c.AddVM(srv, fmt.Sprintf("vm-%02d", s), 2, LowPriority, ""))
		works = append(works, endless(vms[s].ID()))
	}
	eng.Run(2) // every VM idle: all servers park
	if got := c.ActiveServers(); got != 0 {
		t.Fatalf("ActiveServers = %d after an idle tick, want 0", got)
	}
	// Counted by hand: testing.AllocsPerRun measures a repeated call,
	// which would find every wake already queued.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i, v := range vms {
		v.SetWorkload(works[i])
	}
	runtime.ReadMemStats(&after)
	if allocs := after.Mallocs - before.Mallocs; allocs != 0 {
		t.Errorf("waking %d parked servers allocated %d times, want 0", len(vms), allocs)
	}
	c.AddServer("server-70", DefaultServerConfig(), eng.RNG())
	eng.Step()
	if got := c.ActiveServers(); got != 70 {
		t.Errorf("ActiveServers = %d after the repartitioning tick, want the 70 woken", got)
	}
	for _, v := range vms {
		if v.LastGrant().CPUSeconds == 0 {
			t.Fatalf("%s was granted nothing after its wake", v.ID())
		}
	}
}
