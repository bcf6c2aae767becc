package stats_test

import (
	"fmt"
	"math"

	"perfcloud/internal/stats"
)

// The paper's §III-B missing-as-zero rule: intervals where a suspect VM
// reports no measurement count as zero activity instead of being
// dropped, so similarity is never inferred from a handful of samples.
func ExamplePearsonMissingAsZero() {
	victimDeviation := []float64{12, 1, 14, 1, 13}
	suspectActivity := []float64{9e6, math.NaN(), 1.1e7, math.NaN(), 1e7}
	r, _ := stats.PearsonMissingAsZero(victimDeviation, suspectActivity)
	fmt.Printf("r = %.2f, antagonist: %v\n", r, r >= 0.8)
	// Output: r = 1.00, antagonist: true
}

func ExampleEWMA() {
	e := stats.MakeEWMA(0.5)
	fmt.Println(e.Update(10)) // first sample primes the average
	fmt.Println(e.Update(0))
	fmt.Println(e.Update(0))
	// Output:
	// 10
	// 5
	// 2.5
}

func ExampleSummarize() {
	s := stats.Summarize([]float64{1.0, 1.1, 1.3, 1.2, 2.0})
	fmt.Printf("median %.1f IQR %.1f max %.1f\n", s.Median, s.IQR(), s.Max)
	// Output: median 1.2 IQR 0.2 max 2.0
}

func ExampleHistogram() {
	h := stats.NewHistogram(0.10, 0.30)
	for _, degradation := range []float64{0.02, 0.07, 0.15, 0.9} {
		h.Add(degradation)
	}
	fmt.Printf("under 10%%: %.0f%%\n", 100*h.CumulativeFrac(0.10))
	fmt.Printf("under 30%%: %.0f%%\n", 100*h.CumulativeFrac(0.30))
	// Output:
	// under 10%: 50%
	// under 30%: 75%
}
