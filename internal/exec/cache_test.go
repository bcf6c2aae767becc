package exec

import (
	"fmt"
	"testing"
	"time"

	"perfcloud/internal/cluster"
)

// ioHeavySpec is a disk-dominated task reading shared content.
func ioHeavySpec(id, key string) TaskSpec {
	return TaskSpec{
		ID:           id,
		IOBytes:      128 << 20,
		Instructions: 1e8,
		CoreCPI:      0.9,
		InputKey:     key,
	}
}

func TestSecondReaderServedFromCache(t *testing.T) {
	h := newHarness(t, 1, 2)
	// First reader cold; second launched after completion hits the cache.
	ts1 := NewTaskSet("first", []TaskSpec{ioHeavySpec("a", "input/b0")}, nil)
	h.sets = append(h.sets, ts1)
	h.runUntilDone(t, ts1, time.Minute)
	coldRT := ts1.Tasks()[0].Completed().Runtime(0)

	ts2 := NewTaskSet("second", []TaskSpec{ioHeavySpec("b", "input/b0")}, nil)
	h.sets = append(h.sets, ts2)
	h.runUntilDone(t, ts2, time.Minute)
	a2 := ts2.Tasks()[0].Completed()
	if !a2.cachedInput {
		t.Fatal("second reader should be cache-served")
	}
	if a2.Runtime(0) >= coldRT {
		t.Errorf("cached runtime %v should beat cold %v", a2.Runtime(0), coldRT)
	}
	// Cached reads do not touch the disk: blkio counters unchanged during
	// the second run is hard to isolate here, but the attempt must not
	// have demanded I/O — its progress came entirely from the cache path.
	if a2.Progress() < 0.999 {
		t.Errorf("progress = %v", a2.Progress())
	}
}

func TestConcurrentReadersCoalesce(t *testing.T) {
	h := newHarness(t, 1, 2)
	ts := NewTaskSet("pair", []TaskSpec{
		ioHeavySpec("a", "input/b1"),
		ioHeavySpec("b", "input/b1"),
	}, nil)
	h.sets = append(h.sets, ts)
	h.eng.Run(1)
	attempts := ts.RunningAttempts()
	if len(attempts) != 2 {
		t.Fatalf("running = %d", len(attempts))
	}
	cached := 0
	for _, a := range attempts {
		if a.cachedInput {
			cached++
		}
	}
	if cached != 1 {
		t.Errorf("cached readers = %d, want exactly the second of the pair", cached)
	}
	h.runUntilDone(t, ts, time.Minute)
}

func TestNoKeyNoCaching(t *testing.T) {
	h := newHarness(t, 1, 2)
	spec := ioHeavySpec("a", "")
	ts1 := NewTaskSet("first", []TaskSpec{spec}, nil)
	h.sets = append(h.sets, ts1)
	h.runUntilDone(t, ts1, time.Minute)
	spec.ID = "b"
	ts2 := NewTaskSet("second", []TaskSpec{spec}, nil)
	h.sets = append(h.sets, ts2)
	h.runUntilDone(t, ts2, time.Minute)
	if ts2.Tasks()[0].Completed().cachedInput {
		t.Error("keyless tasks must not be cache-served")
	}
}

func TestCacheIsPerServer(t *testing.T) {
	// A read on one server must not warm another server's cache.
	h := newHarnessServers(t, 2, 1, 2)
	key := "input/bX"
	servers := []*cluster.Server{h.clus.FindServer("s0"), h.clus.FindServer("s1")}
	servers[0].Cache().Put(key, 1000, 0)
	if !servers[0].Cache().Has(key, 1) {
		t.Fatal("own cache should hit")
	}
	if servers[1].Cache().Has(key, 1) {
		t.Fatal("other server's cache must miss")
	}
}

func TestSpreadAcrossServers(t *testing.T) {
	// Pool spanning 3 servers, 2 VMs each: six fresh tasks must land one
	// per VM with server counts balanced 2/2/2.
	h := newHarnessServers(t, 3, 2, 2)
	specs := make([]TaskSpec, 6)
	for i := range specs {
		specs[i] = smallSpec(fmt.Sprintf("t%d", i))
	}
	ts := NewTaskSet("spread", specs, nil)
	h.sets = append(h.sets, ts)
	h.eng.Run(1)
	perServer := map[string]int{}
	for _, a := range ts.RunningAttempts() {
		perServer[a.executor.vm.Server().ID()]++
	}
	for srv, n := range perServer {
		if n != 2 {
			t.Errorf("server %s runs %d attempts, want 2 (spread)", srv, n)
		}
	}
	if len(perServer) != 3 {
		t.Errorf("attempts on %d servers, want 3", len(perServer))
	}
}

// TestOneRoundSpreadsAcrossServers checks that every launch of a round
// counts toward its server's load for the picks after it: three fresh
// tasks launched in one round on three servers of two VMs each must land
// one per server. A launch left out of the count would send the second
// task to the first server's other (emptier) VM.
func TestOneRoundSpreadsAcrossServers(t *testing.T) {
	h := newHarnessServers(t, 3, 2, 2)
	specs := make([]TaskSpec, 3)
	for i := range specs {
		specs[i] = smallSpec(fmt.Sprintf("t%d", i))
	}
	ts := NewTaskSet("spread", specs, nil)
	h.sets = append(h.sets, ts)
	h.eng.Run(1)
	perServer := map[string]int{}
	for _, a := range ts.RunningAttempts() {
		perServer[a.executor.vm.Server().ID()]++
	}
	if len(perServer) != 3 {
		t.Errorf("attempts per server = %v, want one on each of 3 servers", perServer)
	}
}
