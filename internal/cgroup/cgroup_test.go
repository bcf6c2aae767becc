package cgroup

import (
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestAccumulationAndSnapshot(t *testing.T) {
	c := newCgroup("vm-0")
	if c.Name() != "vm-0" {
		t.Errorf("name = %q", c.Name())
	}
	c.AddTick(10, 4096, 5, 0, 0, 0, 0, 0)
	c.AddTick(5, 2048, 2.5, 0.2, 2e9, 1e9, 1e6, 5e5)
	s := c.Snapshot()
	if s.Blkio.IoServiced != 15 || s.Blkio.IoServiceBytes != 6144 || s.Blkio.IoWaitTimeMs != 7.5 {
		t.Errorf("blkio = %+v", s.Blkio)
	}
	if s.CPU.UsageSeconds != 0.2 {
		t.Errorf("cpu = %+v", s.CPU)
	}
	if s.Perf.Cycles != 2e9 || s.Perf.Instructions != 1e9 {
		t.Errorf("perf = %+v", s.Perf)
	}
}

// newCgroup returns a fresh cgroup named name, as a VM's embedded one
// starts.
func newCgroup(name string) *Cgroup {
	c := new(Cgroup)
	c.Init(name)
	return c
}

func TestDelta(t *testing.T) {
	c := newCgroup("vm-0")
	c.AddTick(10, 1000, 4, 0, 0, 0, 0, 0)
	prev := c.Snapshot()
	c.AddTick(20, 3000, 16, 0.5, 100, 50, 10, 5)
	d := Delta(c.Snapshot(), prev)
	if d.Blkio.IoServiced != 20 || d.Blkio.IoServiceBytes != 3000 || d.Blkio.IoWaitTimeMs != 16 {
		t.Errorf("blkio delta = %+v", d.Blkio)
	}
	if d.CPU.UsageSeconds != 0.5 {
		t.Errorf("cpu delta = %+v", d.CPU)
	}
	if d.Perf.Cycles != 100 || d.Perf.LLCMisses != 5 {
		t.Errorf("perf delta = %+v", d.Perf)
	}
}

func TestIowaitRatio(t *testing.T) {
	d := Counters{Blkio: BlkioCounters{IoServiced: 4, IoWaitTimeMs: 20}}
	if got := d.IowaitRatio(); got != 5 {
		t.Errorf("ratio = %v, want 5", got)
	}
	idle := Counters{}
	if idle.IowaitRatio() != 0 {
		t.Error("idle interval ratio should be 0")
	}
}

func TestThrottleKnobs(t *testing.T) {
	c := newCgroup("vm-0")
	if th := c.Throttle(); th.ReadIOPS != 0 || th.ReadBPS != 0 || th.CPUCores != 0 {
		t.Errorf("default throttle should be unlimited: %+v", th)
	}
	c.SetReadIOPS(500)
	c.SetReadBPS(1 << 20)
	c.SetCPUCores(1.5)
	th := c.Throttle()
	if th.ReadIOPS != 500 || th.ReadBPS != 1<<20 || th.CPUCores != 1.5 {
		t.Errorf("throttle = %+v", th)
	}
	// Individual setters must not clobber other knobs.
	c.SetReadIOPS(100)
	th = c.Throttle()
	if th.ReadBPS != 1<<20 || th.CPUCores != 1.5 {
		t.Errorf("setter clobbered other knobs: %+v", th)
	}
}

// TestInitNamesZeroCgroup checks the embedding contract: a zero Cgroup
// named with Init starts exactly like one from New.
func TestInitNamesZeroCgroup(t *testing.T) {
	var c Cgroup
	c.Init("vm-7")
	if c.Name() != "vm-7" || c.Throttle() != (Throttle{}) || c.Snapshot() != (Counters{}) {
		t.Fatalf("fresh cgroup: name %q, throttle %+v, counters %+v",
			c.Name(), c.Throttle(), c.Snapshot())
	}
	c.SetCPUCores(2) // no counter bound: nothing to bump
	if c.Throttle().CPUCores != 2 {
		t.Errorf("after SetCPUCores: throttle %+v", c.Throttle())
	}
}

// TestBoundThrottleCounter checks that every cap setter bumps the bound
// counter once, that rebinding moves the bumps to the new counter, and
// that unbinding stops them.
func TestBoundThrottleCounter(t *testing.T) {
	var a, b atomic.Uint64
	c := newCgroup("vm-0")
	c.BindThrottleCounter(&a)
	c.SetReadIOPS(100)
	c.SetReadBPS(1 << 20)
	c.SetCPUCores(1)
	c.SetThrottle(Throttle{})
	c.BindThrottleCounter(&b)
	c.SetCPUCores(2)
	c.BindThrottleCounter(nil)
	c.SetCPUCores(3)
	if a.Load() != 4 || b.Load() != 1 {
		t.Errorf("counters %d and %d, want 4 and 1", a.Load(), b.Load())
	}
}

// TestSetThrottleStoresACopy: the caps in force must not alias the
// caller's value.
func TestSetThrottleStoresACopy(t *testing.T) {
	c := newCgroup("vm-0")
	th := Throttle{ReadIOPS: 100}
	c.SetThrottle(th)
	th.ReadIOPS = 5
	if got := c.Throttle().ReadIOPS; got != 100 {
		t.Errorf("ReadIOPS = %v after the caller's copy changed, want 100", got)
	}
}

// TestConcurrentThrottleReadsSeeWholeCaps races lock-free Throttle reads
// against SetThrottle writers (meaningful under -race): every read must
// return one write's caps whole, never a mix of two.
func TestConcurrentThrottleReadsSeeWholeCaps(t *testing.T) {
	c := newCgroup("vm-0")
	var sets atomic.Uint64
	c.BindThrottleCounter(&sets)
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := 1; k <= 500; k++ {
				v := float64(2*k + w)
				c.SetThrottle(Throttle{ReadIOPS: v, ReadBPS: v, CPUCores: v})
			}
		}(w)
	}
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				if th := c.Throttle(); th.ReadIOPS != th.ReadBPS || th.ReadBPS != th.CPUCores {
					t.Errorf("torn caps %+v", th)
					return
				}
			}
		}()
	}
	wg.Wait()
	if n := sets.Load(); n != 1000 {
		t.Errorf("bound counter = %d, want 1000", n)
	}
}

func TestNegativeThrottlePanics(t *testing.T) {
	c := newCgroup("vm-0")
	defer func() {
		if recover() == nil {
			t.Error("want panic for negative throttle")
		}
	}()
	c.SetThrottle(Throttle{ReadIOPS: -1})
}

// TestCountersAccumulateInCallOrder: the counters are plain float sums
// owned by one goroutine, so AddTick must leave each counter
// bit-identical to adding the same values in the same order in a plain
// float loop.
func TestCountersAccumulateInCallOrder(t *testing.T) {
	c := newCgroup("vm-0")
	var want [8]float64
	for i := 0; i < 1000; i++ {
		x := 0.1 * float64(i%7+1) / 3
		v := [8]float64{x, x * 4096, x / 7, x / 1000, x * 2.3e9, x * 1.1e9, x * 3e7, x * 1e6}
		c.AddTick(v[0], v[1], v[2], v[3], v[4], v[5], v[6], v[7])
		for k := range want {
			want[k] += v[k]
		}
	}
	s := c.Snapshot()
	got := [8]float64{s.Blkio.IoServiced, s.Blkio.IoServiceBytes, s.Blkio.IoWaitTimeMs, s.CPU.UsageSeconds,
		s.Perf.Cycles, s.Perf.Instructions, s.Perf.LLCReferences, s.Perf.LLCMisses}
	if got != want {
		t.Errorf("counters %v, want %v", got, want)
	}
}

// Property: counters are monotonically nondecreasing under Add operations,
// and Delta of successive snapshots is always nonnegative.
func TestPropertyMonotoneCounters(t *testing.T) {
	f := func(ops, bytes, wait []uint16) bool {
		c := newCgroup("p")
		prev := c.Snapshot()
		n := len(ops)
		if len(bytes) < n {
			n = len(bytes)
		}
		if len(wait) < n {
			n = len(wait)
		}
		for i := 0; i < n; i++ {
			c.AddTick(float64(ops[i]), float64(bytes[i]), float64(wait[i]), 0, 0, 0, 0, 0)
			now := c.Snapshot()
			d := Delta(now, prev)
			if d.Blkio.IoServiced < 0 || d.Blkio.IoServiceBytes < 0 || d.Blkio.IoWaitTimeMs < 0 {
				return false
			}
			prev = now
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
