package sim

import (
	"math/rand"
	"testing"
	"time"
)

func TestClockAdvances(t *testing.T) {
	e := NewEngine(100*time.Millisecond, 1)
	c := e.Clock()
	if c.Tick() != 0 || c.Now() != 0 {
		t.Fatal("fresh clock should be at zero")
	}
	e.Step()
	if c.Tick() != 1 {
		t.Errorf("tick = %d, want 1", c.Tick())
	}
	e.Run(9)
	if c.Tick() != 10 {
		t.Errorf("tick = %d, want 10", c.Tick())
	}
	if got := c.Now(); got != time.Second {
		t.Errorf("Now = %v, want 1s", got)
	}
	if got := c.Seconds(); got != 1.0 {
		t.Errorf("Seconds = %v, want 1", got)
	}
	if got := c.TickSeconds(); got != 0.1 {
		t.Errorf("TickSeconds = %v, want 0.1", got)
	}
}

func TestDefaultTickSelected(t *testing.T) {
	e := NewEngine(0, 1)
	if got := e.Clock().TickSize(); got != DefaultTick {
		t.Errorf("tick size = %v, want %v", got, DefaultTick)
	}
}

func TestTickOrderByPriorityThenRegistration(t *testing.T) {
	e := NewEngine(DefaultTick, 1)
	var order []string
	add := func(name string, pri int) {
		e.RegisterPriority(TickFunc(func(*Clock) { order = append(order, name) }), pri)
	}
	add("framework", 0)
	add("controller", 1)
	add("resources", -1)
	add("framework2", 0)
	e.Step()
	want := []string{"resources", "framework", "framework2", "controller"}
	if len(order) != len(want) {
		t.Fatalf("order = %v", order)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestRunFor(t *testing.T) {
	e := NewEngine(100*time.Millisecond, 1)
	n := 0
	e.RegisterPriority(TickFunc(func(*Clock) { n++ }), 0)
	e.Run(int64(2 * time.Second / e.Clock().TickSize()))
	if n != 20 {
		t.Errorf("ticks = %d, want 20", n)
	}
}

// TestRunUntil drives a Stepper with no Strider, which steps the engine
// one tick at a time.
func TestRunUntil(t *testing.T) {
	e := NewEngine(100*time.Millisecond, 1)
	n := 0
	e.RegisterPriority(TickFunc(func(*Clock) { n++ }), 0)
	s := &Stepper{Eng: e}
	ok := s.RunUntil(func() bool { return n >= 5 }, time.Minute)
	if !ok || n != 5 {
		t.Errorf("ok=%v n=%d, want fired at n=5", ok, n)
	}
	ok = s.RunUntil(func() bool { return n >= 1000000 }, time.Second)
	if ok {
		t.Error("predicate should not have fired within limit")
	}
}

func TestTickReceivesClock(t *testing.T) {
	e := NewEngine(time.Second, 1)
	var seen []int64
	e.RegisterPriority(TickFunc(func(c *Clock) { seen = append(seen, c.Tick()) }), 0)
	e.Run(3)
	want := []int64{0, 1, 2}
	for i := range want {
		if seen[i] != want[i] {
			t.Fatalf("seen = %v, want %v", seen, want)
		}
	}
}

func TestRNGDeterministicPerName(t *testing.T) {
	a := rand.New(NewRNG(42).Sourcef("disk/0"))
	b := rand.New(NewRNG(42).Sourcef("disk/0"))
	for i := 0; i < 10; i++ {
		if a.Int63() != b.Int63() {
			t.Fatal("same seed+name must yield identical streams")
		}
	}
}

func TestRNGIndependentAcrossNames(t *testing.T) {
	r := NewRNG(42)
	a, b := rand.New(r.Sourcef("disk/0")), rand.New(r.Sourcef("disk/1"))
	same := true
	for i := 0; i < 10; i++ {
		if a.Int63() != b.Int63() {
			same = false
			break
		}
	}
	if same {
		t.Error("different names should yield different streams")
	}
}

func TestRNGSeedChangesStreams(t *testing.T) {
	a := rand.New(NewRNG(1).Sourcef("x"))
	b := rand.New(NewRNG(2).Sourcef("x"))
	same := true
	for i := 0; i < 10; i++ {
		if a.Int63() != b.Int63() {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds should yield different streams")
	}
}

// TestRNGSourcefMatchesStream checks that Sourcef formats the name and
// seeds its source with the master seed xor the name's hash, and that
// the factory owns it: a draw after Release panics.
func TestRNGSourcefMatchesStream(t *testing.T) {
	r := NewRNG(5)
	a := r.Sourcef("vm/%d", 3)
	b := rand.New(rand.NewSource(5 ^ hashString("vm/3")))
	for i := 0; i < 5; i++ {
		if a.Int63() != b.Int63() {
			t.Fatal("Sourcef should match the equivalent seeded stream")
		}
	}
	r.Release()
	defer func() {
		if recover() != ReleasedStream {
			t.Error("a draw from a released factory's source did not panic")
		}
	}()
	r.Sourcef("vm/%d", 4).Int63()
}
