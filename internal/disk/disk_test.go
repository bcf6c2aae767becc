package disk

import (
	"math"
	"testing"
	"testing/quick"

	"perfcloud/internal/sim"
	"perfcloud/internal/stats"
)

const tick = 0.1 // seconds

func newTestDisk() *Disk {
	return New(DefaultConfig(), sim.NewSource(1))
}

// seqReq is a Hadoop-like sequential reader: 256 KiB ops.
func seqReq(id string, ops float64) Request {
	return Request{ClientID: id, Ops: ops, Bytes: ops * (256 << 10)}
}

// fioReq is the fio 4 KiB random-read antagonist at 8000 IOPS.
func fioReq(ops float64) Request {
	return Request{ClientID: "fio", Ops: ops, Bytes: ops * 4096}
}

func TestUncontendedDemandFullyServed(t *testing.T) {
	d := newTestDisk()
	g := d.Allocate(tick, []Request{seqReq("a", 10), seqReq("b", 5)})
	if math.Abs(g[0].Ops-10) > 1e-9 || math.Abs(g[1].Ops-5) > 1e-9 {
		t.Errorf("grants = %v, %v", g[0].Ops, g[1].Ops)
	}
	if math.Abs(g[0].Bytes-10*(256<<10)) > 1 {
		t.Errorf("bytes = %v", g[0].Bytes)
	}
	if d.Utilization() >= 1 {
		t.Errorf("utilization = %v, want < 1", d.Utilization())
	}
}

func TestFioSoloGetsFullRate(t *testing.T) {
	d := newTestDisk()
	g := d.Allocate(tick, []Request{fioReq(800)})
	if g[0].Ops < 799 {
		t.Errorf("solo fio ops = %v, want 800", g[0].Ops)
	}
	if d.RandomLoad() < 0.7 {
		t.Errorf("random load = %v, want high", d.RandomLoad())
	}
}

func TestSequentialOverloadSharedFairly(t *testing.T) {
	d := newTestDisk()
	// Each stream demands ~150 MB/s; six streams oversubscribe 400 MiB/s.
	reqs := make([]Request, 6)
	for i := range reqs {
		reqs[i] = seqReq(string(rune('a'+i)), 57)
	}
	g := d.Allocate(tick, reqs)
	var tot float64
	for i := 1; i < 6; i++ {
		if math.Abs(g[i].Ops-g[0].Ops) > 1e-6 {
			t.Errorf("unequal shares: %v vs %v", g[i].Ops, g[0].Ops)
		}
	}
	for _, gr := range g {
		tot += gr.Bytes
	}
	maxBytes := DefaultConfig().BandwidthCapacity * tick
	if tot > maxBytes*1.05 {
		t.Errorf("total bytes %v exceed streaming capacity %v", tot, maxBytes)
	}
	if d.Utilization() <= 1 {
		t.Errorf("utilization = %v, want > 1", d.Utilization())
	}
	// No random load: purely sequential.
	if d.RandomLoad() != 0 {
		t.Errorf("random load = %v, want 0", d.RandomLoad())
	}
}

func TestRandomAntagonistDegradesSequentialClients(t *testing.T) {
	seqOps := func(withFio bool) float64 {
		d := New(DefaultConfig(), sim.NewSource(2))
		reqs := make([]Request, 0, 7)
		for i := 0; i < 6; i++ {
			reqs = append(reqs, seqReq(string(rune('a'+i)), 114))
		}
		if withFio {
			reqs = append(reqs, fioReq(800))
		}
		var acc float64
		for i := 0; i < 50; i++ {
			g := d.Allocate(tick, reqs)
			acc += g[0].Ops
		}
		return acc
	}
	alone := seqOps(false)
	contended := seqOps(true)
	if contended > alone*0.6 {
		t.Errorf("seq throughput alone=%v with fio=%v, want <= 60%%", alone, contended)
	}
}

func TestThrottleCapRestoresVictims(t *testing.T) {
	// Capping fio reduces the random load and so restores sequential
	// throughput — the mechanism PerfCloud relies on.
	seqOps := func(capIOPS float64) float64 {
		d := New(DefaultConfig(), sim.NewSource(3))
		reqs := make([]Request, 0, 7)
		for i := 0; i < 6; i++ {
			reqs = append(reqs, seqReq(string(rune('a'+i)), 114))
		}
		f := fioReq(800)
		f.CapIOPS = capIOPS
		reqs = append(reqs, f)
		var acc float64
		for i := 0; i < 50; i++ {
			g := d.Allocate(tick, reqs)
			acc += g[0].Ops
		}
		return acc
	}
	uncapped := seqOps(0)
	cap50 := seqOps(4000)
	cap20 := seqOps(1600)
	if !(cap20 > cap50 && cap50 > uncapped) {
		t.Errorf("victim ops should rise as fio cap tightens: uncapped=%v cap50=%v cap20=%v",
			uncapped, cap50, cap20)
	}
}

func TestCapIOPSBindsClient(t *testing.T) {
	d := newTestDisk()
	f := fioReq(800)
	f.CapIOPS = 2000 // 200 ops per tick
	g := d.Allocate(tick, []Request{f})
	if g[0].Ops > 200.01 {
		t.Errorf("capped ops = %v, want <= 200", g[0].Ops)
	}
}

func TestCapBPSBindsClient(t *testing.T) {
	d := newTestDisk()
	// 4 KiB ops, 409600 B/s cap -> 100 ops/s -> 10 ops per tick.
	f := fioReq(800)
	f.CapBPS = 409600
	g := d.Allocate(tick, []Request{f})
	if g[0].Ops > 10.01 {
		t.Errorf("ops = %v, want <= 10 under bps cap", g[0].Ops)
	}
	if g[0].Bytes > 40960*1.01 {
		t.Errorf("bytes = %v, want <= 40960", g[0].Bytes)
	}
}

func TestBytesOnlyDemandSynthesizesOps(t *testing.T) {
	d := newTestDisk()
	g := d.Allocate(tick, []Request{{ClientID: "a", Bytes: 10 << 20}})
	if g[0].Bytes <= 0 || g[0].Ops <= 0 {
		t.Errorf("grant = %+v", g[0])
	}
}

func TestWaitQuietUnderSymmetricSelfContention(t *testing.T) {
	d := New(DefaultConfig(), sim.NewSource(4))
	reqs := make([]Request, 6)
	for i := range reqs {
		reqs[i] = seqReq(string(rune('a'+i)), 114)
	}
	var wait, ops float64
	for i := 0; i < 100; i++ {
		for _, g := range d.Allocate(tick, reqs) {
			wait += g.WaitMs
			ops += g.Ops
		}
	}
	perOp := wait / ops
	if perOp > 15 {
		t.Errorf("self-contended wait/op = %v ms, want modest", perOp)
	}
}

func TestSpreadSeparatesAntagonistFromSelfContention(t *testing.T) {
	// The detector's core property at device level: std-dev of wait/op
	// across six symmetric sequential clients, measured over 5 s windows.
	spread := func(withFio bool, seed int64) float64 {
		d := New(DefaultConfig(), sim.NewSource(seed))
		var sds []float64
		for w := 0; w < 20; w++ {
			wait := make([]float64, 6)
			ops := make([]float64, 6)
			for i := 0; i < 50; i++ {
				reqs := make([]Request, 0, 7)
				for k := 0; k < 6; k++ {
					reqs = append(reqs, seqReq(string(rune('a'+k)), 114))
				}
				if withFio {
					reqs = append(reqs, fioReq(800))
				}
				g := d.Allocate(tick, reqs)
				for k := 0; k < 6; k++ {
					wait[k] += g[k].WaitMs
					ops[k] += g[k].Ops
				}
			}
			ratios := make([]float64, 6)
			for k := range ratios {
				ratios[k] = wait[k] / ops[k]
			}
			sds = append(sds, stats.StdDev(ratios))
		}
		return stats.Mean(sds)
	}
	alone := spread(false, 5)
	contended := spread(true, 5)
	if alone > 10 {
		t.Errorf("alone spread = %v, must stay under the paper's H_io=10", alone)
	}
	if contended < 3*10 {
		t.Errorf("contended spread = %v, want well above threshold", contended)
	}
	if contended < 5*alone {
		t.Errorf("contended/alone = %v/%v, want >= 5x separation", contended, alone)
	}
}

func TestQueueIntensityShape(t *testing.T) {
	if q := queueIntensity(0, 25); q != 0 {
		t.Errorf("q(0) = %v", q)
	}
	q5 := queueIntensity(0.5, 25)
	q9 := queueIntensity(0.9, 25)
	if q9 <= q5 {
		t.Errorf("intensity must grow with utilization: q(.5)=%v q(.9)=%v", q5, q9)
	}
	if q := queueIntensity(5, 25); q != 25 {
		t.Errorf("overload q = %v, want clipped at 25", q)
	}
}

func TestZeroRequests(t *testing.T) {
	d := newTestDisk()
	if g := d.Allocate(tick, nil); len(g) != 0 {
		t.Errorf("grants = %v", g)
	}
	if d.Utilization() != 0 || d.RandomLoad() != 0 {
		t.Errorf("utilization=%v randomLoad=%v", d.Utilization(), d.RandomLoad())
	}
}

func TestPanicsOnBadInput(t *testing.T) {
	cases := []func(){
		func() { New(Config{IOPSCapacity: 0, BandwidthCapacity: 1}, sim.NewSource(1)) },
		func() { New(Config{IOPSCapacity: 1, BandwidthCapacity: 1, JitterCorr: 1}, sim.NewSource(1)) },
		func() { newTestDisk().Allocate(0, nil) },
		func() { newTestDisk().Allocate(tick, []Request{{ClientID: "x", Ops: -1}}) },
	}
	for i, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: want panic", i)
				}
			}()
			fn()
		}()
	}
}

func TestJitterStateGarbageCollected(t *testing.T) {
	d := newTestDisk()
	for i := 0; i < 200; i++ {
		id := string(rune('a'+i%26)) + string(rune('0'+i/26))
		d.Allocate(tick, []Request{{ClientID: id, Ops: 1, Bytes: 4096}})
	}
	// WouldCompact(21) reports more than 4*21+16 = 100 tracked clients.
	if d.jitter.WouldCompact(21) {
		t.Error("jitter map grew beyond 100 entries")
	}
}

// Property: no client receives more ops than it demanded, waits are
// nonnegative, and total granted bytes respect streaming capacity.
func TestPropertyCapacityAndDemandRespected(t *testing.T) {
	cfg := DefaultConfig()
	d := New(cfg, sim.NewSource(7))
	f := func(demands []uint16, small []bool) bool {
		if len(demands) == 0 {
			return true
		}
		if len(demands) > 12 {
			demands = demands[:12]
		}
		reqs := make([]Request, len(demands))
		for i, dm := range demands {
			size := float64(256 << 10)
			if i < len(small) && small[i] {
				size = 4096
			}
			reqs[i] = Request{ClientID: string(rune('a' + i)), Ops: float64(dm), Bytes: float64(dm) * size}
		}
		grants := d.Allocate(tick, reqs)
		var totBytes float64
		for i, g := range grants {
			if g.Ops > reqs[i].Ops+1e-6 {
				return false
			}
			if g.WaitMs < 0 {
				return false
			}
			totBytes += g.Bytes
		}
		return totBytes <= cfg.BandwidthCapacity*tick*1.01
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: max-min fairness on device time — equal demands, equal grants.
func TestPropertyEqualDemandsEqualGrants(t *testing.T) {
	d := New(DefaultConfig(), sim.NewSource(8))
	f := func(dm uint16, n uint8) bool {
		count := int(n%6) + 2
		reqs := make([]Request, count)
		for i := range reqs {
			reqs[i] = seqReq(string(rune('a'+i)), float64(dm))
		}
		g := d.Allocate(tick, reqs)
		for i := 1; i < count; i++ {
			if math.Abs(g[i].Ops-g[0].Ops) > 1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDeterministicForSeed(t *testing.T) {
	run := func() []float64 {
		d := New(DefaultConfig(), sim.NewSource(99))
		var out []float64
		for i := 0; i < 20; i++ {
			g := d.Allocate(tick, []Request{seqReq("a", 100), fioReq(800)})
			out = append(out, g[0].WaitMs, g[1].WaitMs, g[0].Ops)
		}
		return out
	}
	x, y := run(), run()
	for i := range x {
		if x[i] != y[i] {
			t.Fatal("same seed must reproduce identical grants")
		}
	}
}
