// Package benchfmt is the shared schema for the repo's benchmark JSON
// artifacts (BENCH_hotloop.json, BENCH_suite.json): parsing of
// `go test -bench` result lines, stable name-keyed merging so repeated
// runs refresh rather than clobber a file, delta formatting for
// comparing a run against a committed baseline, and per-benchmark
// summaries of a paired multi-round comparison.
package benchfmt

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
)

// Result is one benchmark measurement. NsPerOp is always set; BytesPerOp
// and AllocsPerOp only when the run used -benchmem. Wall-clock suite
// timings reuse the same shape with Count = 1 and NsPerOp = elapsed
// nanoseconds.
type Result struct {
	Name        string  `json:"name"`
	Count       int64   `json:"count"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
}

// ParseLine parses one benchmark result line of the form
//
//	BenchmarkName-8   12345   987.6 ns/op   512 B/op   7 allocs/op
//
// and reports whether the line was a benchmark result at all. The
// trailing -N GOMAXPROCS suffix is stripped from the name so results
// compare against baselines recorded on machines with different core
// counts.
func ParseLine(line string) (Result, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
		return Result{}, false
	}
	count, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Result{}, false
	}
	r := Result{Name: stripProcs(fields[0]), Count: count}
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			continue
		}
		switch fields[i+1] {
		case "ns/op":
			r.NsPerOp = v
		case "B/op":
			r.BytesPerOp = int64(v)
		case "allocs/op":
			r.AllocsPerOp = int64(v)
		}
	}
	return r, true
}

// stripProcs removes a trailing -N GOMAXPROCS suffix from a benchmark
// name ("BenchmarkFoo-8" -> "BenchmarkFoo"); sub-benchmark slashes and
// interior dashes are untouched.
func stripProcs(name string) string {
	i := strings.LastIndexByte(name, '-')
	if i <= 0 || i == len(name)-1 {
		return name
	}
	if _, err := strconv.Atoi(name[i+1:]); err != nil {
		return name
	}
	return name[:i]
}

// Merge folds updates into base by benchmark name: an update replaces the
// base entry of the same name in place (keeping the file's order stable
// across runs, so diffs stay readable), and names new to base append in
// their given order.
func Merge(base, updates []Result) []Result {
	index := make(map[string]int, len(base))
	merged := make([]Result, len(base))
	copy(merged, base)
	for i, r := range merged {
		index[r.Name] = i
	}
	for _, r := range updates {
		if i, ok := index[r.Name]; ok {
			merged[i] = r
			continue
		}
		index[r.Name] = len(merged)
		merged = append(merged, r)
	}
	return merged
}

// ReadFile loads a benchmark JSON array. A missing file is not an error:
// it returns (nil, nil) so callers can treat it as an empty baseline.
func ReadFile(path string) ([]Result, error) {
	buf, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var results []Result
	if err := json.Unmarshal(buf, &results); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return results, nil
}

// WriteFile writes the results as an indented JSON array.
func WriteFile(path string, results []Result) error {
	buf, err := json.MarshalIndent(results, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}

// Regressions compares cur against base and returns one message per
// benchmark that regressed: ns/op more than maxPct percent above the
// baseline, or an allocs/op increase (allocation regressions are never
// within tolerance — the hot loops are supposed to be zero- or
// fixed-alloc). Benchmarks absent from the baseline are ignored.
func Regressions(base, cur []Result, maxPct float64) []string {
	byName := make(map[string]Result, len(base))
	for _, r := range base {
		byName[r.Name] = r
	}
	var out []string
	for _, r := range cur {
		b, ok := byName[r.Name]
		if !ok {
			continue
		}
		if b.NsPerOp > 0 {
			pct := (r.NsPerOp - b.NsPerOp) / b.NsPerOp * 100
			if pct > maxPct {
				out = append(out, fmt.Sprintf("%s: %.6g ns/op is %+.1f%% vs baseline %.6g (max %+.1f%%)",
					r.Name, r.NsPerOp, pct, b.NsPerOp, maxPct))
			}
		}
		if r.AllocsPerOp > b.AllocsPerOp {
			out = append(out, fmt.Sprintf("%s: %d allocs/op vs baseline %d",
				r.Name, r.AllocsPerOp, b.AllocsPerOp))
		}
	}
	return out
}

// Ratio returns ns/op(num) / ns/op(den), locating each operand as the
// first result whose name contains the given substring. It backs
// scaling gates of the form "the 10x-larger configuration may cost at
// most Kx per op": the two operands come from the same run, so the
// check is machine-independent in a way absolute-baseline gates are
// not. Errors name the missing operand or a zero denominator.
func Ratio(results []Result, num, den string) (float64, error) {
	find := func(sub string) (Result, error) {
		for _, r := range results {
			if strings.Contains(r.Name, sub) {
				return r, nil
			}
		}
		return Result{}, fmt.Errorf("no benchmark matching %q", sub)
	}
	n, err := find(num)
	if err != nil {
		return 0, err
	}
	d, err := find(den)
	if err != nil {
		return 0, err
	}
	if d.NsPerOp <= 0 {
		return 0, fmt.Errorf("%s: non-positive ns/op %g as denominator", d.Name, d.NsPerOp)
	}
	return n.NsPerOp / d.NsPerOp, nil
}

// FormatDelta renders a one-line comparison of cur against base, e.g.
//
//	BenchmarkFoo-8  1234 ns/op  (baseline 2468, -50.0%)  7 allocs/op (=)
//
// Positive percentages mean cur is slower than the baseline.
func FormatDelta(base, cur Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s  %.6g ns/op", cur.Name, cur.NsPerOp)
	if base.NsPerOp > 0 {
		pct := (cur.NsPerOp - base.NsPerOp) / base.NsPerOp * 100
		fmt.Fprintf(&b, "  (baseline %.6g, %+.1f%%)", base.NsPerOp, pct)
	} else {
		b.WriteString("  (no baseline)")
	}
	if cur.AllocsPerOp == base.AllocsPerOp {
		fmt.Fprintf(&b, "  %d allocs/op (=)", cur.AllocsPerOp)
	} else {
		fmt.Fprintf(&b, "  %d allocs/op (baseline %d)", cur.AllocsPerOp, base.AllocsPerOp)
	}
	return b.String()
}

// Summary condenses one benchmark's rounds of a paired comparison: the
// median, min and max ns/op of each side, and in how many rounds the
// working tree ran faster than the base.
type Summary struct {
	Name       string
	Rounds     int // rounds in which both sides report the benchmark
	Base, Work Spread
	Wins       int // rounds in which Work's ns/op was below Base's
}

// Spread is the median, min and max of one side's ns/op over the rounds.
type Spread struct{ Median, Min, Max float64 }

// Summarize pairs base[r] with work[r], round r's results of each side,
// and returns one Summary per benchmark, in the order the benchmarks
// first appear in base. A round counts for a benchmark only if both
// sides report it.
func Summarize(base, work [][]Result) []Summary {
	var names []string
	seen := map[string]bool{}
	for _, round := range base {
		for _, r := range round {
			if !seen[r.Name] {
				seen[r.Name] = true
				names = append(names, r.Name)
			}
		}
	}
	find := func(round []Result, name string) (Result, bool) {
		for _, r := range round {
			if r.Name == name {
				return r, true
			}
		}
		return Result{}, false
	}
	var out []Summary
	for _, name := range names {
		s := Summary{Name: name}
		var b, w []float64
		for i := 0; i < len(base) && i < len(work); i++ {
			br, ok1 := find(base[i], name)
			wr, ok2 := find(work[i], name)
			if !ok1 || !ok2 {
				continue
			}
			b, w = append(b, br.NsPerOp), append(w, wr.NsPerOp)
			if wr.NsPerOp < br.NsPerOp {
				s.Wins++
			}
		}
		if s.Rounds = len(b); s.Rounds == 0 {
			continue
		}
		s.Base, s.Work = spread(b), spread(w)
		out = append(out, s)
	}
	return out
}

// spread sorts xs in place and returns its median, min and max.
func spread(xs []float64) Spread {
	sort.Float64s(xs)
	n := len(xs)
	med := xs[n/2]
	if n%2 == 0 {
		med = (xs[n/2-1] + xs[n/2]) / 2
	}
	return Spread{Median: med, Min: xs[0], Max: xs[n-1]}
}

// String renders the summary on one line, e.g.
//
//	BenchmarkFoo  base 2468 ns/op [2400–2500]  work 1234 ns/op [1200–1300]  -50.0%  won 3/3
//
// The percentage compares the medians; negative means the working tree
// is faster. The line ends in "overlap" when the ranges overlap.
func (s Summary) String() string {
	pct := 0.0
	if s.Base.Median > 0 {
		pct = (s.Work.Median - s.Base.Median) / s.Base.Median * 100
	}
	line := fmt.Sprintf("%s  base %.6g ns/op [%.6g–%.6g]  work %.6g ns/op [%.6g–%.6g]  %+.1f%%  won %d/%d",
		s.Name, s.Base.Median, s.Base.Min, s.Base.Max, s.Work.Median, s.Work.Min, s.Work.Max, pct, s.Wins, s.Rounds)
	if s.Work.Min <= s.Base.Max && s.Base.Min <= s.Work.Max {
		// Some round of one side was at least as fast as some round of
		// the other, so host noise alone could explain the gap.
		line += "  overlap"
	}
	return line
}
