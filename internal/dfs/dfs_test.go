package dfs

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func nodes(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = string(rune('a' + i))
	}
	return out
}

func newFS(n int) *FileSystem {
	return New(DefaultConfig(), nodes(n), rand.New(rand.NewSource(1)))
}

func TestCreateSplitsIntoBlocks(t *testing.T) {
	fs := newFS(6)
	f, err := fs.Create("input", 640<<20) // 10 blocks of 64 MB
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Blocks) != 10 {
		t.Fatalf("blocks = %d, want 10", len(f.Blocks))
	}
	for i, b := range f.Blocks {
		if b.Index != i || b.Bytes != 64<<20 {
			t.Errorf("block %d = %+v", i, b)
		}
		if len(b.Replicas) != 3 {
			t.Errorf("block %d replicas = %d", i, len(b.Replicas))
		}
		seen := map[string]bool{}
		for _, r := range b.Replicas {
			if seen[r] {
				t.Errorf("block %d duplicate replica %s", i, r)
			}
			seen[r] = true
		}
	}
}

func TestCreatePartialLastBlock(t *testing.T) {
	fs := newFS(6)
	f, err := fs.Create("x", 100<<20) // 64 + 36
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Blocks) != 2 {
		t.Fatalf("blocks = %d", len(f.Blocks))
	}
	if f.Blocks[1].Bytes != 36<<20 {
		t.Errorf("last block = %v bytes", f.Blocks[1].Bytes)
	}
}

func TestReplicationClampedToNodeCount(t *testing.T) {
	fs := newFS(2)
	f, err := fs.Create("x", 64<<20)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Blocks[0].Replicas) != 2 {
		t.Errorf("replicas = %d, want clamped to 2", len(f.Blocks[0].Replicas))
	}
}

func TestOpenDeleteAndErrors(t *testing.T) {
	fs := newFS(3)
	if _, ok := fs.Open("missing"); ok {
		t.Error("missing file should not open")
	}
	for _, size := range []float64{0, math.NaN(), math.Inf(1)} {
		if _, err := fs.Create("x", size); err == nil {
			t.Errorf("create of size %v should fail", size)
		}
	}
	if _, err := fs.Create("x", 1<<20); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Create("x", 1<<20); err == nil {
		t.Error("duplicate create should fail")
	}
	if f, ok := fs.Open("x"); !ok || f.Name != "x" {
		t.Error("open after create")
	}
}

func TestBlocksOn(t *testing.T) {
	fs := newFS(4)
	fs.Create("x", 256<<20) // 4 blocks, 3 replicas each over 4 nodes
	f, _ := fs.Open("x")
	onNode := make(map[string]int)
	for _, b := range f.Blocks {
		for _, r := range b.Replicas {
			onNode[r]++
		}
	}
	total := 0
	for _, n := range nodes(4) {
		total += onNode[n]
	}
	if total != 12 { // 4 blocks * 3 replicas
		t.Errorf("total replica placements = %d, want 12", total)
	}
}

func TestPanicsOnBadConfig(t *testing.T) {
	cases := []func(){
		func() { New(Config{BlockBytes: 0, Replication: 1}, nodes(1), rand.New(rand.NewSource(1))) },
		func() { New(Config{BlockBytes: 1, Replication: 0}, nodes(1), rand.New(rand.NewSource(1))) },
		func() { New(DefaultConfig(), nil, rand.New(rand.NewSource(1))) },
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

// Property: total block bytes equal the file size, and every block has
// between 1 and Replication distinct replicas.
func TestPropertyBlockInvariants(t *testing.T) {
	fs := newFS(6)
	i := 0
	f := func(mb uint16) bool {
		size := float64(int(mb)+1) * (1 << 20)
		i++
		file, err := fs.Create(string(rune('A'+i%26))+string(rune('0'+i/26%10))+string(rune('0'+i/260)), size)
		if err != nil {
			return true // name collision after many cases; skip
		}
		var tot float64
		for _, b := range file.Blocks {
			tot += b.Bytes
			if len(b.Replicas) < 1 || len(b.Replicas) > 3 {
				return false
			}
		}
		return tot == size
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
