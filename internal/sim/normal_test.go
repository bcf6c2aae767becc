package sim

import (
	"fmt"
	"math/rand"
	"testing"
)

// TestNormalMatchesMathRand pins the draw kernel to math/rand's
// NormFloat64 over a million draws for each of TestLFSourceMatchesMathRand's
// seeds. With corr 0 and stddev 1 a step stores its draw unchanged. It
// also counts the draws that left the ziggurat's inline fast path, by
// their first word's strip, on a replay of the stream kept aligned by the
// words each kernel draw consumed, and requires both kinds of fallback —
// the base strip's tail and a wedge — to have been taken.
func TestNormalMatchesMathRand(t *testing.T) {
	const draws = 1_000_000
	seeds := []int64{0, 1, -1, 42, -42, 89482311, int32max, int32max + 1,
		-int32max, 1 << 40, -(1 << 40), 997, 104729}
	var tails, wedges int
	for _, seed := range seeds {
		src := NewSource(seed)
		a := NewAR1(0, 1, src)
		a.slot("x")
		sl := []int32{0}
		ref := rand.New(rand.NewSource(seed))
		words := rand.NewSource(seed) // replays the words each draw consumed
		for i := 0; i < draws; i++ {
			tap := src.tap
			a.stepSlots(sl, nil)
			if want := ref.NormFloat64(); a.vals[0] != want {
				t.Fatalf("seed %d draw %d: kernel %v, NormFloat64 %v", seed, i, a.vals[0], want)
			}
			used := (tap - src.tap + lfLen) % lfLen
			j := int32(uint32(words.Int63() >> 31))
			for ; used > 1; used-- {
				words.Int63()
			}
			if absInt32(j) >= kn[j&0x7F] {
				if j&0x7F == 0 {
					tails++
				} else {
					wedges++
				}
			}
		}
	}
	t.Logf("%d base-strip tails and %d wedges in %d draws", tails, wedges, draws*len(seeds))
	if tails == 0 || wedges == 0 {
		t.Fatalf("fallbacks taken: %d base-strip tails, %d wedges; want both nonzero", tails, wedges)
	}
}

// FuzzNormalMatchesMathRand pins the kernel's batch entry points —
// StepBatch, SlotCache.StepAll and SlotCache.StepAt — against
// rand.New(rand.NewSource(seed)).NormFloat64, draw for draw. Every batch
// steps fresh slots once with corr 0 and stddev 1, so each stored value
// is its draw; n sets the batch size, which crosses StackBatch, where the
// scratch moves from the stack to the heap.
func FuzzNormalMatchesMathRand(f *testing.F) {
	f.Add(int64(42), uint16(6))
	f.Add(int64(-7), uint16(StackBatch+1))
	f.Add(int64(0), uint16(1))
	f.Fuzz(func(t *testing.T, seed int64, n uint16) {
		k := 1 + int(n)%(2*StackBatch)
		a := NewAR1(0, 1, NewSource(seed))
		ref := rand.New(rand.NewSource(seed))
		fresh := func(batch string) []string {
			ids := make([]string, k)
			for i := range ids {
				ids[i] = fmt.Sprintf("%s%d", batch, i)
			}
			return ids
		}
		check := func(entry string, got []float64) {
			t.Helper()
			for i, g := range got {
				if want := ref.NormFloat64(); g != want {
					t.Fatalf("%s, draw %d of %d: %v, NormFloat64 %v", entry, i, len(got), g, want)
				}
			}
		}

		ids := fresh("batch")
		a.StepBatch(1, k, func(i int) string { return ids[i] })
		got := make([]float64, k)
		for i, id := range ids {
			got[i] = a.vals[a.idx[id]]
		}
		check("StepBatch", got)

		var c SlotCache
		ids = fresh("all")
		c.Bind(a, k, func(i int) string { return ids[i] })
		c.StepAll(a)
		slots, vals := c.Values(a)
		for i := range got {
			got[i] = vals[slots[i]]
		}
		check("StepAll", got)

		// StepAt over every other position, last first.
		ids = fresh("at")
		c.Bind(a, k, func(i int) string { return ids[i] })
		var pos []int32
		for p := k - 1; p >= 0; p -= 2 {
			pos = append(pos, int32(p))
		}
		c.StepAt(a, pos)
		got = got[:len(pos)]
		slots, vals = c.Values(a)
		for i, p := range pos {
			got[i] = vals[slots[p]]
		}
		check("StepAt", got)
	})
}
