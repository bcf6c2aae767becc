package stats

import (
	"fmt"
	"sort"
)

// Histogram counts samples into fixed, caller-defined buckets — the
// degradation-breakdown analyses (Fig. 11) bucket jobs by how much they
// degraded. Bounds are upper edges; a final implicit +Inf bucket catches
// the rest.
type Histogram struct {
	bounds []float64
	counts []int
	total  int
}

// NewHistogram creates a histogram with the given strictly increasing
// upper bounds.
func NewHistogram(bounds ...float64) *Histogram {
	if len(bounds) == 0 {
		panic("stats: histogram needs at least one bound")
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic("stats: histogram bounds must be strictly increasing")
		}
	}
	return &Histogram{
		bounds: append([]float64(nil), bounds...),
		counts: make([]int, len(bounds)+1),
	}
}

// Add counts one sample.
func (h *Histogram) Add(v float64) {
	i := sort.SearchFloat64s(h.bounds, v)
	// SearchFloat64s returns the first bound >= v; a sample exactly on a
	// bound belongs to that bucket ("degraded < 10%" means v < 0.10, so
	// v == 0.10 falls into the next bucket).
	if i < len(h.bounds) && v == h.bounds[i] {
		i++
	}
	h.counts[i]++
	h.total++
}

// Total returns the number of samples added.
func (h *Histogram) Total() int { return h.total }

// Count returns the count of bucket i (the last index is the overflow
// bucket).
func (h *Histogram) Count(i int) int { return h.counts[i] }

// CumulativeFrac returns the fraction of samples strictly below the
// given bound, which must be one of the histogram's bounds.
func (h *Histogram) CumulativeFrac(bound float64) float64 {
	idx := -1
	for i, b := range h.bounds {
		if b == bound {
			idx = i
			break
		}
	}
	if idx < 0 {
		panic(fmt.Sprintf("stats: %v is not a histogram bound", bound))
	}
	if h.total == 0 {
		return 0
	}
	acc := 0
	for i := 0; i <= idx; i++ {
		acc += h.counts[i]
	}
	return float64(acc) / float64(h.total)
}
