package stats

import (
	"cmp"
	"slices"
)

// WaterFill divides a capacity across demands max-min fairly: every
// demand at or below the fair share is met in full, and the rest split
// what is left equally. It holds the reusable buffers of the division,
// so a caller that fills every tick allocates nothing once they have
// grown. The CPU scheduler shares cores this way and the disk shares
// device time. The zero value is ready to use.
type WaterFill struct {
	out []float64
	idx []int
}

// Rearm returns an empty WaterFill over f's storage.
func (f *WaterFill) Rearm() WaterFill { return WaterFill{out: f.out[:0], idx: f.idx[:0]} }

// Fill water-fills capacity across demands, returning a slice owned by f
// (valid until the next Fill call).
func (f *WaterFill) Fill(demands []float64, capacity float64) []float64 {
	n := len(demands)
	if cap(f.out) < n {
		f.out = make([]float64, n)
	}
	f.out = f.out[:n]
	out := f.out
	for i := range out {
		out[i] = 0
	}
	if n == 0 {
		return out
	}
	var total float64
	for _, d := range demands {
		total += d
	}
	if total <= capacity {
		copy(out, demands)
		return out
	}
	f.idx = f.idx[:0]
	for i := 0; i < n; i++ {
		f.idx = append(f.idx, i)
	}
	idx := f.idx
	// Tied demands get the same share whichever order they sort in, so an
	// unstable sort is exact; SortFunc over the indexes allocates nothing.
	slices.SortFunc(idx, func(a, b int) int { return cmp.Compare(demands[a], demands[b]) })
	left := capacity
	for k, i := range idx {
		share := left / float64(n-k)
		if demands[i] <= share {
			out[i] = demands[i]
			left -= demands[i]
		} else {
			for _, j := range idx[k:] {
				out[j] = share
			}
			break
		}
	}
	return out
}
