package dfs

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"perfcloud/internal/sim"
)

// FuzzPickReplicas holds the permutation-free replica pick to what it
// replaced: for any node count n, replication k and seed, each block's
// replicas are the first min(k, n) entries of the next
// rand.New(rand.NewSource(seed)).Perm(n), mapped to node names — block
// after block, so the scratch slice's reuse across picks is covered too.
func FuzzPickReplicas(f *testing.F) {
	f.Add(uint8(60), uint8(3), int64(143))
	f.Fuzz(func(t *testing.T, n, k uint8, seed int64) {
		if n == 0 || k == 0 {
			return
		}
		nodes := make([]string, n)
		for i := range nodes {
			nodes[i] = fmt.Sprintf("worker-%03d", i)
		}
		const blocks = 4
		fs := New(Config{BlockBytes: 1, Replication: int(k)}, nodes, sim.NewSeededRand(seed))
		file, err := fs.Create("f", blocks)
		if err != nil {
			t.Fatal(err)
		}
		ref := rand.New(rand.NewSource(seed))
		want := min(int(k), int(n))
		for bi, b := range file.Blocks {
			perm := ref.Perm(int(n))
			exp := make([]string, want)
			for i := range exp {
				exp[i] = nodes[perm[i]]
			}
			if !slices.Equal(b.Replicas, exp) {
				t.Fatalf("n=%d k=%d seed=%d block %d: replicas %v, want %v", n, k, seed, bi, b.Replicas, exp)
			}
			if cap(b.Replicas) != want {
				t.Fatalf("block %d: replica slice has cap %d, want %d (appends must not spill into the next block)",
					bi, cap(b.Replicas), want)
			}
		}
		if len(file.Blocks) != blocks {
			t.Fatalf("%d blocks, want %d", len(file.Blocks), blocks)
		}
	})
}
