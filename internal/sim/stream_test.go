package sim

import (
	"math/rand"
	"testing"
)

// TestStreamDerivationOrderIndependent pins the property cluster
// sharding (and any other fleet partitioning) rests on: a named
// stream's sequence is a pure function of (master seed, name). Deriving
// streams in a different order, deriving extra streams in between, or
// drawing from other streams first — everything a different shard
// partition or iteration order could change — must leave every stream's
// sequence untouched.
func TestStreamDerivationOrderIndependent(t *testing.T) {
	names := []string{"disk/server-0", "disk/server-1", "memsys/server-0", "jobgen"}
	draw := func(r *rand.Rand, n int) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = r.Float64()
		}
		return out
	}

	// Reference: derive in listed order, drain each fully before the next.
	want := make(map[string][]float64)
	ref := NewRNG(42)
	for _, name := range names {
		want[name] = draw(rand.New(ref.Sourcef("%s", name)), 32)
	}

	// Same seed, reversed derivation order, an unrelated stream drawn in
	// between, and interleaved draws across all streams.
	alt := NewRNG(42)
	streams := make(map[string]*rand.Rand)
	for i := len(names) - 1; i >= 0; i-- {
		streams[names[i]] = rand.New(alt.Sourcef("%s", names[i]))
		draw(rand.New(alt.Sourcef("noise")), 100)
	}
	got := make(map[string][]float64)
	for i := 0; i < 32; i++ {
		for _, name := range names {
			got[name] = append(got[name], streams[name].Float64())
		}
	}
	for _, name := range names {
		for i, v := range want[name] {
			if got[name][i] != v {
				t.Fatalf("stream %q draw %d = %v, want %v — derivation order leaked into the sequence",
					name, i, got[name][i], v)
			}
		}
	}

	// Different seeds must still decorrelate the same name.
	other := NewRNG(43)
	if draw(rand.New(other.Sourcef("%s", names[0])), 1)[0] == want[names[0]][0] {
		t.Fatalf("stream %q identical across different master seeds", names[0])
	}
}
