package cgroup

import (
	"sync"
	"testing"
	"testing/quick"
)

func TestAccumulationAndSnapshot(t *testing.T) {
	c := New("vm-0")
	if c.Name() != "vm-0" {
		t.Errorf("name = %q", c.Name())
	}
	c.AddBlkio(10, 4096, 5)
	c.AddBlkio(5, 2048, 2.5)
	c.AddCPU(0.2)
	c.AddPerf(2e9, 1e9, 1e6, 5e5)
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
	if got := s.Perf.CPI(); got != 2 {
		t.Errorf("CPI = %v, want 2", got)
	}
}

func TestCPIZeroInstructions(t *testing.T) {
	var p PerfCounters
	if p.CPI() != 0 {
		t.Error("CPI with zero instructions should be 0")
	}
}

func TestDelta(t *testing.T) {
	c := New("vm-0")
	c.AddBlkio(10, 1000, 4)
	prev := c.Snapshot()
	c.AddBlkio(20, 3000, 16)
	c.AddCPU(0.5)
	c.AddPerf(100, 50, 10, 5)
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
	c := New("vm-0")
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
	if c.Name() != "vm-7" || c.Throttle() != (Throttle{}) || c.ThrottleSeq() != 0 || c.Snapshot() != (Counters{}) {
		t.Fatalf("fresh cgroup: name %q, throttle %+v, seq %d, counters %+v",
			c.Name(), c.Throttle(), c.ThrottleSeq(), c.Snapshot())
	}
	c.SetCPUCores(2)
	if c.Throttle().CPUCores != 2 || c.ThrottleSeq() != 1 {
		t.Errorf("after SetCPUCores: throttle %+v, seq %d", c.Throttle(), c.ThrottleSeq())
	}
}

// TestSetThrottleStoresACopy: the caps in force must not alias the
// caller's value.
func TestSetThrottleStoresACopy(t *testing.T) {
	c := New("vm-0")
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
	c := New("vm-0")
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
	if seq := c.ThrottleSeq(); seq != 1000 {
		t.Errorf("ThrottleSeq = %d, want 1000", seq)
	}
}

func TestNegativeThrottlePanics(t *testing.T) {
	c := New("vm-0")
	defer func() {
		if recover() == nil {
			t.Error("want panic for negative throttle")
		}
	}()
	c.SetThrottle(Throttle{ReadIOPS: -1})
}

func TestConcurrentAccess(t *testing.T) {
	c := New("vm-0")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.AddBlkio(1, 10, 0.5)
				c.AddCPU(0.001)
				_ = c.Snapshot()
			}
		}()
	}
	wg.Wait()
	s := c.Snapshot()
	if s.Blkio.IoServiced != 8000 {
		t.Errorf("IoServiced = %v, want 8000", s.Blkio.IoServiced)
	}
}

// Property: counters are monotonically nondecreasing under Add operations,
// and Delta of successive snapshots is always nonnegative.
func TestPropertyMonotoneCounters(t *testing.T) {
	f := func(ops, bytes, wait []uint16) bool {
		c := New("p")
		prev := c.Snapshot()
		n := len(ops)
		if len(bytes) < n {
			n = len(bytes)
		}
		if len(wait) < n {
			n = len(wait)
		}
		for i := 0; i < n; i++ {
			c.AddBlkio(float64(ops[i]), float64(bytes[i]), float64(wait[i]))
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
