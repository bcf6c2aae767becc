package cluster

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"perfcloud/internal/sim"
)

// kitScenario builds, on c, two servers of three busy VMs each: one
// memory-bound VM and two random-I/O-heavy ones, so the memory bus
// congests and the disk overloads. It returns the engine ticking c.
func kitScenario(c *Cluster, seed int64) (*sim.Engine, []*Server) {
	eng := sim.NewEngine(100*time.Millisecond, seed)
	eng.RegisterPriority(c, 0)
	servers := []*Server{
		c.AddServer("s0", DefaultServerConfig(), eng.RNG()),
		c.AddServer("s1", DefaultServerConfig(), eng.RNG()),
	}
	for i := 0; i < 6; i++ {
		v := c.AddVM(servers[i%2], fmt.Sprintf("vm-%d", i), 2, LowPriority, "")
		profile := 4
		if i < 2 {
			profile = 3
		}
		attachPush(v, scriptProfiles[profile])
	}
	return eng, servers
}

// mallocs returns how many heap objects fn allocates. Run it from a test
// that is not parallel: the counter is the process's.
func mallocs(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// TestRecycledKitFirstRebuildAllocatesNothing: a server built on a kit
// that a released cluster handed back allocates nothing on its first
// rebuilt grant phase, where a server on a fresh kit grows every vector,
// replay list and jitter map. Both rebuild with congested memory and an
// overloaded disk, so every solver path runs.
func TestRecycledKitFirstRebuildAllocatesNothing(t *testing.T) {
	var kits kitList
	firstRebuild := func() uint64 {
		c := New()
		c.spares = &kits
		eng, servers := kitScenario(c, 7)
		n := mallocs(func() {
			for _, s := range servers {
				s.grantPhase(eng.Clock().TickSeconds())
			}
		})
		if s := servers[0]; s.statRebuilds != 1 || s.mem.Pressure() <= 1 || s.disk.Utilization() <= 1 {
			t.Fatalf("first grant phase: %d rebuilds, memory pressure %v, disk utilization %v; want a congested rebuild",
				s.statRebuilds, s.mem.Pressure(), s.disk.Utilization())
		}
		eng.Run(5)
		c.Release()
		eng.RNG().Release()
		return n
	}
	if n := firstRebuild(); n == 0 {
		t.Fatal("a first rebuild on fresh kits allocated nothing; the test cannot tell recycling apart")
	}
	if len(kits.kits) != 2 {
		t.Fatalf("release left %d kits on the list, want 2", len(kits.kits))
	}
	if n := firstRebuild(); n != 0 {
		t.Errorf("a first rebuild on recycled kits allocated %d objects, want 0", n)
	}
	if kits.misses != 2 {
		t.Errorf("%d takes missed, want the first cluster's 2", kits.misses)
	}
}

// TestReleasedClusterFreezes: Release freezes FastPathStats at its value
// then, unbinds the VMs' throttle counters, and makes a later tick,
// stride or placement panic with ReleasedCluster. A second Release is a
// no-op.
func TestReleasedClusterFreezes(t *testing.T) {
	c := New()
	c.spares = new(kitList)
	eng, servers := kitScenario(c, 3)
	eng.Run(4)
	servers[1].EachVM(func(v *VM) { v.SetWorkload(nil) }) // s1 parks, accruing skips
	eng.Run(6)
	want := c.FastPathStats()
	if want.QuiescentSkips == 0 || want.SteadyReuses == 0 || want.Rebuilds == 0 {
		t.Fatalf("scenario exercised too little: %+v", want)
	}
	vm := c.FindVM("vm-0")
	c.Release()
	c.Release()
	if got := c.FastPathStats(); got != want {
		t.Errorf("FastPathStats after Release = %+v, want %+v", got, want)
	}
	mark := servers[0].throttles.Load()
	vm.Cgroup().SetReadIOPS(100)
	if servers[0].throttles.Load() != mark {
		t.Error("a cap change after Release still bumps the released server's throttle counter")
	}
	for name, fn := range map[string]func(){
		"Tick":      func() { c.Tick(eng.Clock()) },
		"Stride":    func() { c.Stride(eng.Clock(), 4, func() bool { return false }) },
		"AddServer": func() { c.AddServer("s2", DefaultServerConfig(), eng.RNG()) },
		"AddVM":     func() { c.AddVM(servers[0], "late", 2, LowPriority, "") },
	} {
		func() {
			defer func() {
				if got := recover(); got != ReleasedCluster {
					t.Errorf("%s after Release recovered %v, want %q", name, got, ReleasedCluster)
				}
			}()
			fn()
		}()
	}
}

// TestRearmedKitMatchesFresh: a kit re-armed from a released server is,
// field for field through every model it holds, the kit AddServer builds
// from nothing — equal up to the capacity of its slices and maps, the
// storage it carries over. A re-arm that kept replay state, a counter or
// a tracked client would differ here even where no output shows it.
func TestRearmedKitMatchesFresh(t *testing.T) {
	var kits kitList
	c := New()
	c.spares = &kits
	eng, servers := kitScenario(c, 5)
	servers[0].Cache().Put("file/b000", 64<<20, 0)
	c.FindVM("vm-2").Cgroup().SetCPUCores(0.5)
	eng.Run(5)
	servers[1].EachVM(func(v *VM) { v.SetWorkload(nil) })
	eng.Run(3)
	if err := c.MoveVM("vm-1", "s0"); err != nil { // freezes s1's skip set
		t.Fatal(err)
	}
	eng.Run(3)
	c.Release()

	rng := sim.NewRNG(11)
	recycled, fresh := New(), New()
	recycled.spares, fresh.spares = &kits, new(kitList)
	for _, id := range []string{"s0", "s1"} {
		r := recycled.AddServer(id, DefaultServerConfig(), rng)
		f := fresh.AddServer(id, DefaultServerConfig(), rng)
		if d := diffUpToStorage(reflect.ValueOf(r.kit), reflect.ValueOf(f.kit), "kit"); d != "" {
			t.Errorf("server %s: re-armed kit differs from a fresh one at %s", id, d)
		}
	}
	if len(kits.kits) != 0 {
		t.Fatalf("%d kits left on the list, want both taken", len(kits.kits))
	}
}

// diffUpToStorage returns the path of the first difference between a and
// b, or "" if there is none. Slices compare by length and elements and
// maps by their entries, so capacity — the storage a re-armed kit keeps —
// is ignored; identical pointers are equal without a walk.
func diffUpToStorage(a, b reflect.Value, path string) string {
	switch a.Kind() {
	case reflect.Pointer, reflect.Interface:
		if a.IsNil() || b.IsNil() {
			if a.IsNil() != b.IsNil() {
				return path + " (nil)"
			}
			return ""
		}
		if a.Kind() == reflect.Pointer && a.Pointer() == b.Pointer() {
			return ""
		}
		return diffUpToStorage(a.Elem(), b.Elem(), path)
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if d := diffUpToStorage(a.Field(i), b.Field(i), path+"."+a.Type().Field(i).Name); d != "" {
				return d
			}
		}
	case reflect.Slice, reflect.Array:
		if a.Len() != b.Len() {
			return fmt.Sprintf("%s (len %d, want %d)", path, a.Len(), b.Len())
		}
		for i := 0; i < a.Len(); i++ {
			if d := diffUpToStorage(a.Index(i), b.Index(i), fmt.Sprintf("%s[%d]", path, i)); d != "" {
				return d
			}
		}
	case reflect.Map:
		if a.Len() != b.Len() {
			return fmt.Sprintf("%s (len %d, want %d)", path, a.Len(), b.Len())
		}
		for _, k := range a.MapKeys() {
			bv := b.MapIndex(k)
			if !bv.IsValid() {
				return fmt.Sprintf("%s[%v] (missing)", path, k)
			}
			if d := diffUpToStorage(a.MapIndex(k), bv, fmt.Sprintf("%s[%v]", path, k)); d != "" {
				return d
			}
		}
	case reflect.Float32, reflect.Float64:
		if math.Float64bits(a.Float()) != math.Float64bits(b.Float()) {
			return fmt.Sprintf("%s (%v, want %v)", path, a.Float(), b.Float())
		}
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		if a.Int() != b.Int() {
			return fmt.Sprintf("%s (%d, want %d)", path, a.Int(), b.Int())
		}
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		if a.Uint() != b.Uint() {
			return fmt.Sprintf("%s (%d, want %d)", path, a.Uint(), b.Uint())
		}
	case reflect.Bool:
		if a.Bool() != b.Bool() {
			return fmt.Sprintf("%s (%v, want %v)", path, a.Bool(), b.Bool())
		}
	case reflect.String:
		if a.String() != b.String() {
			return fmt.Sprintf("%s (%q, want %q)", path, a.String(), b.String())
		}
	default:
		return fmt.Sprintf("%s (unhandled kind %v)", path, a.Kind())
	}
	return ""
}

// TestKitFootprint checks spareKitSlots' premise that a kit holds about
// 1.3 KB of storage per slot it counts: the bytes a fresh server with 16
// busy VMs allocates for its kit — AddServer, then rebuilt, replayed and
// congested ticks — stay under 1.5 KB per slot. A first pass loads the
// streams' state vectors and seeds, so the measured pass takes them from
// the free list and the seed cache and counts the kit alone. The race
// detector's runtime allocates more, so the test runs without it.
func TestKitFootprint(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation sizes differ under the race detector")
	}
	footprint := func() (bytes uint64, srv *Server) {
		c := New()
		c.spares = new(kitList)
		eng := sim.NewEngine(100*time.Millisecond, 2)
		defer eng.RNG().Release()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		srv = c.AddServer("s0", DefaultServerConfig(), eng.RNG())
		runtime.ReadMemStats(&after)
		bytes = after.TotalAlloc - before.TotalAlloc
		for i := 0; i < 16; i++ {
			attachPush(c.AddVM(srv, fmt.Sprintf("vm-%d", i), 2, LowPriority, ""), scriptProfiles[3+i%2])
		}
		runtime.ReadMemStats(&before)
		for tick := 0; tick < 4; tick++ {
			srv.grantPhase(eng.Clock().TickSeconds())
			if tick == 1 {
				srv.MarkDirty() // a rebuild of unchanged vectors
			}
		}
		runtime.ReadMemStats(&after)
		return bytes + after.TotalAlloc - before.TotalAlloc, srv
	}
	footprint()
	bytes, srv := footprint()
	if per := float64(bytes) / float64(srv.kit.slots()); per > 1536 {
		t.Errorf("a %d-VM kit holds %d bytes, %.0f per slot; spareKitSlots assumes about 1.3 KB", len(srv.vms), bytes, per)
	}
}

// TestKitsConcurrent plays one script on several goroutines at once, each
// building, ticking and releasing clusters through one shared free list,
// as parallel experiment repetitions do: every run must still match the
// reference, so no kit serves two servers at a time.
func TestKitsConcurrent(t *testing.T) {
	script := []byte{5, 7, 0, 0, 0, 1, 0, 10, 6, 7, 1, 1, 6, 3, 2, 0, 6, 5, 5, 2, 6, 4}
	want := runScript(script, true, nil)
	var kits kitList
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for rep := 0; rep < 10; rep++ {
				if got := runScript(script, false, &kits); !reflect.DeepEqual(got, want) {
					t.Errorf("goroutine %d rep %d differs from the reference", g, rep)
					return
				}
			}
		}()
	}
	wg.Wait()
	if kits.misses > 8 {
		t.Errorf("%d of 80 servers were built on fresh kits, want at most the 8 of the first concurrent runs", kits.misses)
	}
}
