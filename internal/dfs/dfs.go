// Package dfs is the HDFS-like storage layout substrate: files are split
// into fixed-size blocks, each block replicated on a subset of worker
// nodes. The MapReduce job tracker derives one map task per block and
// prefers scheduling it on a node holding a replica (data locality), the
// same structure the paper's Hadoop clusters have with the default 64 MB
// block size (§IV-A).
package dfs

import (
	"fmt"
	"math"
	"math/rand"
)

// Config describes the filesystem geometry.
type Config struct {
	BlockBytes  float64 // block size; the paper uses the 64 MB default
	Replication int     // replicas per block
}

// DefaultConfig mirrors the paper's HDFS setup.
func DefaultConfig() Config {
	return Config{BlockBytes: 64 << 20, Replication: 3}
}

// Block is one replicated chunk of a file.
type Block struct {
	Index    int
	Bytes    float64
	Replicas []string // node (VM) ids holding a copy
}

// File is a named sequence of blocks.
type File struct {
	Name   string
	Bytes  float64
	Blocks []Block
}

// FileSystem places blocks across a fixed set of datanodes.
type FileSystem struct {
	cfg   Config
	nodes []string
	rng   *rand.Rand
	files map[string]File
	perm  []int // pickReplicas' permutation scratch, len(nodes)
}

// New creates a filesystem over the given datanodes.
func New(cfg Config, nodes []string, rng *rand.Rand) *FileSystem {
	if cfg.BlockBytes <= 0 {
		panic("dfs: nonpositive block size")
	}
	if cfg.Replication <= 0 {
		panic("dfs: nonpositive replication")
	}
	if len(nodes) == 0 {
		panic("dfs: no datanodes")
	}
	return &FileSystem{
		cfg:   cfg,
		nodes: append([]string(nil), nodes...),
		rng:   rng,
		files: make(map[string]File),
		perm:  make([]int, len(nodes)),
	}
}

// Create writes a file of the given size, splitting it into blocks and
// placing replicas on distinct randomly chosen datanodes.
func (fs *FileSystem) Create(name string, bytes float64) (File, error) {
	if _, dup := fs.files[name]; dup {
		return File{}, fmt.Errorf("dfs: file %q exists", name)
	}
	if !(bytes > 0) || math.IsInf(bytes, 1) {
		return File{}, fmt.Errorf("dfs: file %q needs a positive finite size", name)
	}
	n := int(math.Ceil(bytes / fs.cfg.BlockBytes))
	k := min(fs.cfg.Replication, len(fs.nodes))
	f := File{Name: name, Bytes: bytes, Blocks: make([]Block, 0, n)}
	// Every block's replica list is a capped window of one backing array.
	replicas := make([]string, 0, n*k)
	remaining := bytes
	for i := 0; remaining > 0; i++ {
		b := Block{Index: i, Bytes: fs.cfg.BlockBytes}
		if remaining < fs.cfg.BlockBytes {
			b.Bytes = remaining
		}
		start := len(replicas)
		replicas = fs.pickReplicas(replicas, k)
		b.Replicas = replicas[start:len(replicas):len(replicas)]
		f.Blocks = append(f.Blocks, b)
		remaining -= b.Bytes
	}
	fs.files[name] = f
	return f, nil
}

// pickReplicas appends k distinct nodes to dst: the first k entries of a
// random permutation of the nodes. It draws exactly what rand.Perm draws
// — the same Intn(i+1) swap loop, run in the filesystem's scratch slice
// instead of a fresh one — so dst gets fs.nodes[rng.Perm(n)[:k]].
func (fs *FileSystem) pickReplicas(dst []string, k int) []string {
	m := fs.perm
	for i := range m {
		j := fs.rng.Intn(i + 1)
		m[i] = m[j]
		m[j] = i
	}
	for _, p := range m[:k] {
		dst = append(dst, fs.nodes[p])
	}
	return dst
}

// Open returns a file by name.
func (fs *FileSystem) Open(name string) (File, bool) {
	f, ok := fs.files[name]
	return f, ok
}
