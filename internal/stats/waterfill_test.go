package stats

import (
	"math"
	"math/rand"
	"testing"
)

// TestWaterFillIsMaxMinFair checks the max-min properties on seeded
// random demand vectors, some with ties and zeros, through one reused
// WaterFill: no client gets more than it asked for, the division hands
// out min(total demand, capacity), and a client left short gets at least
// every other client's share.
func TestWaterFillIsMaxMinFair(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var f WaterFill
	for trial := 0; trial < 500; trial++ {
		n := rng.Intn(12)
		demands := make([]float64, n)
		var total float64
		for i := range demands {
			switch rng.Intn(4) {
			case 0: // idle client
			case 1: // tie with the previous client
				if i > 0 {
					demands[i] = demands[i-1]
				}
			default:
				demands[i] = rng.Float64() * 10
			}
			total += demands[i]
		}
		capacity := rng.Float64() * 40
		out := f.Fill(demands, capacity)
		if len(out) != n {
			t.Fatalf("trial %d: %d shares for %d demands", trial, len(out), n)
		}
		const eps = 1e-9
		var granted float64
		for i, s := range out {
			if s < 0 || s > demands[i]+eps {
				t.Fatalf("trial %d: share %v outside [0, %v]", trial, s, demands[i])
			}
			granted += s
		}
		if want := math.Min(total, capacity); math.Abs(granted-want) > eps*(1+want) {
			t.Fatalf("trial %d: granted %v, want %v", trial, granted, want)
		}
		for i, s := range out {
			if s >= demands[i]-eps {
				continue
			}
			for j, o := range out {
				if o > s+eps {
					t.Fatalf("trial %d: short client %d got %v < client %d's %v (demands %v)", trial, i, s, j, o, demands)
				}
			}
		}
	}
}
