package cluster

import (
	"math/bits"

	"perfcloud/internal/obs"
)

// Sharded ticking (DESIGN.md §5.1). The server slice is partitioned into
// contiguous, near-equal shards; an active bitset over the slice records
// which servers still need per-tick visits. Servers whose last processed
// tick proved quiescent leave the active set entirely — the tick loop
// never touches them — and the cluster tick counter plus the replay
// machinery (Disk.AdvanceIdle via catchUp) settles the elided ticks in
// O(1) bookkeeping when a dirtying event wakes them. The tick walks the
// bitset a word at a time, so it costs O(active servers + servers/64),
// and stats reads sum per-shard aggregates in O(active servers + shards),
// not O(total servers).
//
// Determinism: per-server RNG streams are derived from (master seed,
// server id) alone, so the partition cannot perturb any random sequence;
// and the grant and advance sweeps walk the active servers in ascending
// index — creation order, exactly the reference cluster's order with the
// provably-no-op servers removed.

// autoShardSize is the target servers-per-shard of the partition: small
// clusters collapse to one shard, planet-scale ones get total/64 shards,
// the granularity of fleet telemetry and stats aggregation.
const autoShardSize = 64

// shard is one contiguous server range plus its active-set bookkeeping.
type shard struct {
	start, end int // server index range [start, end)

	active   int // servers in range currently in the active set
	inactive int // == (end-start) - active, maintained for stats

	// sumSkipFrom accumulates the deactivation ticks of the range's
	// inactive servers, so the shard's pending elided-tick total is
	// inactive*cluster.ticks - sumSkipFrom without visiting any of them.
	sumSkipFrom uint64

	// agg is the sum of the range's servers' pulled fast-path counters;
	// invariant: agg == Σ server.pulled over the range.
	agg obs.FastPathSnapshot
}

// pull folds a server's fresh counter deltas into the shard aggregate.
// Called between ticks (stats reads) and at deactivation.
func (sh *shard) pull(s *Server) {
	cur := s.fastPathRaw()
	d := cur
	d.Sub(s.pulled)
	sh.agg.Add(d)
	s.pulled = cur
}

// ShardCount returns the number of shards the current partition holds
// (building it if needed): ceil(servers/64).
func (c *Cluster) ShardCount() int {
	c.ensureShards()
	return len(c.shards)
}

// partitionCurrent reports whether the shard partition matches the
// current server count.
func (c *Cluster) partitionCurrent() bool {
	return c.shards != nil && c.partServers == len(c.servers)
}

// ensureShards (re)builds the partition after servers were added: shard
// ranges, the active bitset (from the per-server active flags, the single
// source of truth), and the per-shard bookkeeping. O(total servers), paid
// once per topology change, not per tick.
func (c *Cluster) ensureShards() {
	if c.partitionCurrent() {
		return
	}
	n := len(c.servers)
	ns := (n + autoShardSize - 1) / autoShardSize
	c.shards = make([]shard, ns)
	c.shardBase, c.shardRem = 0, 0
	if ns > 0 {
		c.shardBase, c.shardRem = n/ns, n%ns
	}
	start := 0
	for i := range c.shards {
		size := c.shardBase
		if i < c.shardRem {
			size++
		}
		c.shards[i] = shard{start: start, end: start + size}
		start += size
	}
	words := (n + 63) / 64
	if cap(c.activeBits) < words {
		c.activeBits = make([]uint64, words)
	}
	c.activeBits = c.activeBits[:words]
	for i := range c.activeBits {
		c.activeBits[i] = 0
	}
	c.inactive, c.busyShards = 0, 0
	for i, s := range c.servers {
		sh := &c.shards[c.shardIndex(i)]
		sh.agg.Add(s.pulled)
		if s.active {
			c.activeBits[i>>6] |= 1 << uint(i&63)
			sh.active++
			if sh.active == 1 {
				c.busyShards++
			}
		} else {
			sh.inactive++
			sh.sumSkipFrom += s.skipFrom
			c.inactive++
		}
	}
	c.partServers = n
}

// ShardStats is one shard's telemetry key and occupancy — the
// granularity at which fleet-scale exporters aggregate, so a 10k-server
// cluster exposes ~160 shard series instead of 10k server series.
type ShardStats struct {
	Index   int // shard index, stable for a given partition
	Servers int // servers in the shard's range
	Active  int // of those, currently in the active set
}

// EachShardStats calls fn once per shard in index order, building the
// partition if needed. O(shards) per call; a no-op for an empty cluster.
// Call between ticks, like FastPathStats.
func (c *Cluster) EachShardStats(fn func(ShardStats)) {
	c.ensureShards()
	for i := range c.shards {
		sh := &c.shards[i]
		fn(ShardStats{Index: i, Servers: sh.end - sh.start, Active: sh.active})
	}
}

// shardIndex maps a server index to its shard: the first shardRem shards
// hold shardBase+1 servers, the rest shardBase.
func (c *Cluster) shardIndex(i int) int {
	big := c.shardRem * (c.shardBase + 1)
	if i < big {
		return i / (c.shardBase + 1)
	}
	return c.shardRem + (i-big)/c.shardBase
}

// eachActive calls fn for every active server in ascending index
// (creation) order.
func (c *Cluster) eachActive(fn func(*Server)) {
	for w, word := range c.activeBits {
		base := w << 6
		for word != 0 {
			i := base + bits.TrailingZeros64(word)
			word &= word - 1
			fn(c.servers[i])
		}
	}
}

// wake returns a server to the active set. completed is the number of
// fully processed cluster ticks the server did not participate in since
// deactivating; the difference to its deactivation tick is exactly the
// elided grant phases, credited to the skipped count that catchUp replays
// on the server's next grant phase.
func (c *Cluster) wake(s *Server, completed uint64) {
	if n := completed - s.skipFrom; n > 0 {
		s.skipped += int(n)
		s.statSkipped += n
	}
	s.active = true
	c.inactive--
	c.activeBits[s.index>>6] |= 1 << uint(s.index&63)
	sh := &c.shards[c.shardIndex(s.index)]
	sh.active++
	sh.inactive--
	sh.sumSkipFrom -= s.skipFrom
	if sh.active == 1 {
		c.busyShards++
	}
}

// deactivate removes a freshly quiescent server from the active set at
// the end of the advance sweep: record the deactivation tick and pull the
// server's counters into its shard so stats reads need not visit it. The
// VM set of the upcoming skipped stretch is not copied; a placement change
// during the stretch freezes it first (Server.freezeSkipSet).
func (c *Cluster) deactivate(s *Server) {
	s.active = false
	c.inactive++
	c.activeBits[s.index>>6] &^= 1 << uint(s.index&63)
	s.skipFrom = c.ticks
	sh := &c.shards[c.shardIndex(s.index)]
	sh.active--
	sh.inactive++
	sh.sumSkipFrom += s.skipFrom
	sh.pull(s)
	if sh.active == 0 {
		c.busyShards--
	}
}

// drainWakes processes the reactivation queue at the tick boundary, after
// ensureShards. c.ticks has already advanced for the current tick, so the
// woken server missed exactly ticks-1 completed ticks minus its
// deactivation tick.
func (c *Cluster) drainWakes() {
	for _, s := range c.wakes {
		s.wakePending = false
		if !s.active {
			c.wake(s, c.ticks-1)
		}
	}
	c.wakes = c.wakes[:0]
}

// shardedTick is the optimised tick, O(active servers + servers/64): it
// gathers the active servers from the bitset, runs their grant phases,
// then advances the same servers in creation order — the reference sweep
// minus the servers for which it would provably no-op — and retires
// freshly quiescent ones from the active set. Wakes queued during the
// tick only take effect at the next tick boundary, so the advance sweep
// walks exactly the servers the grant sweep visited.
func (c *Cluster) shardedTick(tickSec float64) {
	c.ticks++
	c.ensureShards()
	c.drainWakes()
	c.statShardSkips += uint64(len(c.shards) - c.busyShards)
	c.live = c.live[:0]
	c.eachActive(func(s *Server) { c.live = append(c.live, s) })
	tg := c.tGrant.Begin()
	for _, s := range c.live {
		s.grantPhase(tickSec)
	}
	c.tGrant.End(tg)
	ta := c.tAdvance.Begin()
	for _, s := range c.live {
		s.advancePhase(tickSec)
		if s.quiescent {
			c.deactivate(s)
		}
	}
	c.tAdvance.End(ta)
}
