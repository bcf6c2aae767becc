package cluster

// vmRegistry is the cluster's id → VM index: an open-addressed hash table
// of VM pointers with linear probing, keyed by a hash of each VM's own id
// (its cgroup name). The table keeps no copy of the key: a slot is one
// pointer plus a one-byte tag holding seven bits of the id's hash, so a
// probe compares ids — a load through the VM pointer — only when the tags
// match, about one slot in 128 on a miss.
//
// The table doubles when an insert would fill it past 3/4, and deletes by
// backward shift, so it never holds tombstones and probe runs stay as
// short as the load allows. Nothing iterates it: slot order is never
// observable, and the simulation's iteration order stays that of the
// server and VM slices.
type vmRegistry struct {
	slots []*VM   // nil or a power-of-two length
	tags  []uint8 // per slot: 0 when empty, else tagOf the VM's id hash
	n     int
}

// hashID is FNV-1a over the id's bytes, finished with the murmur3 64-bit
// mixer so the low bits the table masks with depend on every input bit.
func hashID(id string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(id); i++ {
		h ^= uint64(id[i])
		h *= 1099511628211
	}
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// tagOf is a slot's tag for hash h: its top seven bits with the low bit
// set, so that no tag is 0.
func tagOf(h uint64) uint8 { return uint8(h>>56) | 1 }

// slot returns the index of id's slot — the one holding its VM, or the
// empty slot that ends its probe run — and the id's tag. The table must
// not be empty.
func (r *vmRegistry) slot(id string) (uint64, uint8) {
	h := hashID(id)
	t := tagOf(h)
	mask := uint64(len(r.slots) - 1)
	i := h & mask
	for r.tags[i] != 0 && (r.tags[i] != t || r.slots[i].ID() != id) {
		i = (i + 1) & mask
	}
	return i, t
}

// find returns the VM with the given id, or nil.
func (r *vmRegistry) find(id string) *VM {
	if r.n == 0 {
		return nil
	}
	i, _ := r.slot(id)
	return r.slots[i]
}

// insert registers v unless a VM with its id is already present, and
// reports whether it did.
func (r *vmRegistry) insert(v *VM) bool {
	if 4*(r.n+1) > 3*len(r.slots) {
		r.grow()
	}
	i, t := r.slot(v.ID())
	if r.slots[i] != nil {
		return false
	}
	r.slots[i], r.tags[i] = v, t
	r.n++
	return true
}

// grow doubles the table (from 8 slots when empty) and re-places every
// VM.
func (r *vmRegistry) grow() {
	oldSlots := r.slots
	size := max(8, 2*len(oldSlots))
	r.slots = make([]*VM, size)
	r.tags = make([]uint8, size)
	mask := uint64(size - 1)
	for _, v := range oldSlots {
		if v == nil {
			continue
		}
		h := hashID(v.ID())
		i := h & mask
		for r.tags[i] != 0 {
			i = (i + 1) & mask
		}
		r.slots[i], r.tags[i] = v, tagOf(h)
	}
}

// remove unregisters and returns the VM with the given id, or returns
// nil if there is none. The hole it leaves is filled by backward shift:
// each later VM in the probe run moves back into it unless its home slot
// lies after the hole, so every remaining VM stays reachable from home.
func (r *vmRegistry) remove(id string) *VM {
	if r.n == 0 {
		return nil
	}
	hole, _ := r.slot(id)
	v := r.slots[hole]
	if v == nil {
		return nil
	}
	mask := uint64(len(r.slots) - 1)
	for j := (hole + 1) & mask; r.tags[j] != 0; j = (j + 1) & mask {
		home := hashID(r.slots[j].ID()) & mask
		// The VM at j may fill the hole iff the hole lies on its probe
		// path home..j, i.e. it is no closer to j than home is.
		if (j-home)&mask >= (j-hole)&mask {
			r.slots[hole], r.tags[hole] = r.slots[j], r.tags[j]
			hole = j
		}
	}
	r.slots[hole], r.tags[hole] = nil, 0
	r.n--
	return v
}
