package sim

import (
	"fmt"
	"math"
	"slices"
	"testing"
)

func TestAR1StationaryMoments(t *testing.T) {
	a := NewAR1(0.9, 2.0, NewSource(1))
	var sum, sumsq float64
	n := 50000
	for i := 0; i < n; i++ {
		v := a.Step("x")
		sum += v
		sumsq += v * v
	}
	mean := sum / float64(n)
	sd := math.Sqrt(sumsq/float64(n) - mean*mean)
	if math.Abs(mean) > 0.1 {
		t.Errorf("mean = %v, want ~0", mean)
	}
	if math.Abs(sd-2.0) > 0.2 {
		t.Errorf("stddev = %v, want ~2", sd)
	}
}

func TestAR1Autocorrelation(t *testing.T) {
	a := NewAR1(0.95, 1.0, NewSource(2))
	var prev float64
	var num, den float64
	n := 50000
	for i := 0; i < n; i++ {
		v := a.Step("x")
		if i > 0 {
			num += prev * v
			den += prev * prev
		}
		prev = v
	}
	rho := num / den
	if math.Abs(rho-0.95) > 0.05 {
		t.Errorf("autocorrelation = %v, want ~0.95", rho)
	}
}

func TestAR1IndependentClients(t *testing.T) {
	a := NewAR1(0.9, 1.0, NewSource(3))
	var cov, va, vb float64
	n := 20000
	for i := 0; i < n; i++ {
		x := a.Step("a")
		y := a.Step("b")
		cov += x * y
		va += x * x
		vb += y * y
	}
	r := cov / math.Sqrt(va*vb)
	if math.Abs(r) > 0.1 {
		t.Errorf("cross-client correlation = %v, want ~0", r)
	}
}

func TestAR1ZeroStdDevIsConstantZero(t *testing.T) {
	a := NewAR1(0.5, 0, NewSource(4))
	for i := 0; i < 10; i++ {
		if v := a.Step("x"); v != 0 {
			t.Fatalf("step = %v, want 0", v)
		}
	}
}

func TestAR1GC(t *testing.T) {
	a := NewAR1(0.9, 1.0, NewSource(5))
	for i := 0; i < 300; i++ {
		a.Step(string(rune('a'+i%26)) + string(rune('0'+i/26)))
	}
	a.Retain(1, func(int) string { return "a0" })
	if len(a.idx) != 1 {
		t.Errorf("after GC len = %d, want 1", len(a.idx))
	}
	// GC is a no-op while small.
	b := NewAR1(0.9, 1.0, NewSource(6))
	b.Step("x")
	b.Retain(0, func(int) string { return "" })
	if len(b.idx) != 1 {
		t.Errorf("small-map GC should be no-op, len = %d", len(b.idx))
	}
}

func TestAR1Panics(t *testing.T) {
	for i, fn := range []func(){
		func() { NewAR1(1, 1, NewSource(1)) },
		func() { NewAR1(-0.1, 1, NewSource(1)) },
		func() { NewAR1(0.5, -1, NewSource(1)) },
	} {
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

// TestSlotCacheMatchesStepByID solves a sequence of client lists twice
// from one seed: by id with a Retain after every solve, and through a
// SlotCache's kernel. Each solve steps only its listed positions, as
// memsys steps only its active clients. The lists repeat, swap every id for the same
// count of new ones, return to an earlier list, and shrink far enough to
// compact, and every draw and the tracked count must match.
func TestSlotCacheMatchesStepByID(t *testing.T) {
	type solve struct {
		ids  []string
		step []int
	}
	abc := []string{"a", "b", "c"}
	var crowd []string
	var all []int
	for i := 0; i < 40; i++ {
		crowd = append(crowd, fmt.Sprintf("c%d", i))
		all = append(all, i)
	}
	solves := []solve{
		{abc, []int{0, 1, 2}},
		{abc, []int{0, 1, 2}},
		{abc, []int{2}},
		{[]string{"x", "y", "z"}, []int{0, 2}},
		{[]string{"x", "y", "z"}, []int{0, 1, 2}},
		{abc, []int{0, 1, 2}},
		{crowd, []int{0, 5, 39}},
		{crowd, all},
		{crowd, []int{1, 2, 3, 4}},
		{crowd[:1], []int{0}},
		{crowd[:1], []int{0}},
		{crowd[:1], nil},
		{abc, []int{1}},
	}
	byID := NewAR1(0.9, 1.0, NewSource(9))
	cached := NewAR1(0.9, 1.0, NewSource(9))
	var c SlotCache
	for n, s := range solves {
		kept := c.Bind(cached, len(s.ids), func(i int) string { return s.ids[i] })
		if n == 1 && !kept {
			t.Error("an unchanged list did not keep its binding")
		}
		if n == 3 && kept {
			t.Error("a swapped list kept its binding")
		}
		// A solve stepping every client in order goes through StepAll,
		// as the disk's do; any other through StepAt, as memsys's do.
		if slices.Equal(s.step, all[:len(s.ids)]) {
			c.StepAll(cached)
		} else {
			pos := make([]int32, len(s.step))
			for k, i := range s.step {
				pos[k] = int32(i)
			}
			c.StepAt(cached, pos)
		}
		for _, i := range s.step {
			slots, vals := c.Values(cached)
			if want, got := byID.Step(s.ids[i]), vals[slots[i]]; got != want {
				t.Fatalf("solve %d, client %s: cached draw %v, by id %v", n, s.ids[i], got, want)
			}
		}
		byID.Retain(len(s.ids), func(i int) string { return s.ids[i] })
		c.Settle(cached)
		if len(byID.idx) != len(cached.idx) || byID.gen != cached.gen {
			t.Fatalf("solve %d: tracked %d clients (gen %d), by id %d (gen %d)",
				n, len(cached.idx), cached.gen, len(byID.idx), byID.gen)
		}
	}
	if cached.gen == 0 {
		t.Error("the crowd never compacted")
	}
	c.Reset()
	if c.Bind(cached, 3, func(i int) string { return abc[i] }) {
		t.Error("Bind kept its binding after Reset")
	}
}
