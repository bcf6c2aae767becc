package benchfmt

import (
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func TestParseLine(t *testing.T) {
	r, ok := ParseLine("BenchmarkMonitorSample-8   12345   987.6 ns/op   512 B/op   7 allocs/op")
	if !ok {
		t.Fatal("result line not recognized")
	}
	want := Result{Name: "BenchmarkMonitorSample", Count: 12345, NsPerOp: 987.6, BytesPerOp: 512, AllocsPerOp: 7}
	if r != want {
		t.Fatalf("parsed %+v, want %+v", r, want)
	}
	// The GOMAXPROCS suffix is stripped, interior dashes are not.
	if r, _ := ParseLine("BenchmarkFoo/sub-case-16 10 5 ns/op 0 B/op 0 allocs/op"); r.Name != "BenchmarkFoo/sub-case" {
		t.Errorf("suffix strip: got %q", r.Name)
	}
	if r, _ := ParseLine("BenchmarkBare 10 5 ns/op 0 B/op 0 allocs/op"); r.Name != "BenchmarkBare" {
		t.Errorf("bare name mangled: got %q", r.Name)
	}
	for _, line := range []string{
		"goos: linux",
		"PASS",
		"ok  \tperfcloud/internal/core\t0.1s",
		"Benchmark only name",
	} {
		if _, ok := ParseLine(line); ok {
			t.Errorf("non-result line parsed as a result: %q", line)
		}
	}
}

func TestMergeKeepsOrderAndReplacesByName(t *testing.T) {
	base := []Result{{Name: "A", NsPerOp: 1}, {Name: "B", NsPerOp: 2}, {Name: "C", NsPerOp: 3}}
	updates := []Result{{Name: "C", NsPerOp: 30}, {Name: "A", NsPerOp: 10}, {Name: "D", NsPerOp: 4}}
	got := Merge(base, updates)
	want := []Result{{Name: "A", NsPerOp: 10}, {Name: "B", NsPerOp: 2}, {Name: "C", NsPerOp: 30}, {Name: "D", NsPerOp: 4}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("merged %+v, want %+v", got, want)
	}
}

func TestReadFileMissingIsEmpty(t *testing.T) {
	got, err := ReadFile(filepath.Join(t.TempDir(), "absent.json"))
	if err != nil || got != nil {
		t.Fatalf("missing file: got %v, %v; want nil, nil", got, err)
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bench.json")
	in := []Result{{Name: "A", Count: 5, NsPerOp: 1.5, BytesPerOp: 8, AllocsPerOp: 1}}
	if err := WriteFile(path, in); err != nil {
		t.Fatal(err)
	}
	out, err := ReadFile(path)
	if err != nil || !reflect.DeepEqual(in, out) {
		t.Fatalf("round trip: got %+v, %v", out, err)
	}
}

func TestRegressions(t *testing.T) {
	base := []Result{
		{Name: "A", NsPerOp: 1000, AllocsPerOp: 0},
		{Name: "B", NsPerOp: 2000, AllocsPerOp: 3},
		{Name: "C", NsPerOp: 500, AllocsPerOp: 1},
	}
	cur := []Result{
		{Name: "A", NsPerOp: 1040, AllocsPerOp: 0}, // +4%: within tolerance
		{Name: "B", NsPerOp: 2300, AllocsPerOp: 3}, // +15%: over
		{Name: "C", NsPerOp: 490, AllocsPerOp: 2},  // faster but allocs grew
		{Name: "D", NsPerOp: 9999, AllocsPerOp: 9}, // no baseline: ignored
	}
	got := Regressions(base, cur, 5)
	if len(got) != 2 {
		t.Fatalf("Regressions = %v, want 2 messages", got)
	}
	if !strings.Contains(got[0], "B:") || !strings.Contains(got[0], "+15.0%") {
		t.Errorf("ns/op regression message = %q", got[0])
	}
	if !strings.Contains(got[1], "C:") || !strings.Contains(got[1], "2 allocs/op") {
		t.Errorf("allocs regression message = %q", got[1])
	}
	if msgs := Regressions(base, cur[:1], 5); len(msgs) != 0 {
		t.Errorf("clean run flagged: %v", msgs)
	}
}

func TestRatio(t *testing.T) {
	results := []Result{
		{Name: "BenchmarkShardScale/servers=1024", NsPerOp: 1000},
		{Name: "BenchmarkShardScale/servers=10240", NsPerOp: 1500},
		{Name: "BenchmarkOther", NsPerOp: 0},
	}
	v, err := Ratio(results, "servers=10240", "servers=1024")
	if err != nil || v != 1.5 {
		t.Fatalf("Ratio = %v, %v, want 1.5", v, err)
	}
	// Substring match takes the first hit: "servers=1024" matches the
	// 1024 row because it precedes the 10240 row.
	if v, _ := Ratio(results, "servers=1024", "servers=1024"); v != 1 {
		t.Errorf("self ratio = %v, want 1", v)
	}
	if _, err := Ratio(results, "nope", "servers=1024"); err == nil {
		t.Error("missing numerator: want error")
	}
	if _, err := Ratio(results, "servers=10240", "nope"); err == nil {
		t.Error("missing denominator: want error")
	}
	if _, err := Ratio(results, "servers=10240", "Other"); err == nil {
		t.Error("zero denominator: want error")
	}
}

func TestSummarize(t *testing.T) {
	base := [][]Result{
		{{Name: "A", NsPerOp: 100}, {Name: "B", NsPerOp: 10}, {Name: "D", NsPerOp: 50}},
		{{Name: "A", NsPerOp: 120}, {Name: "B", NsPerOp: 10}, {Name: "D", NsPerOp: 60}},
		{{Name: "A", NsPerOp: 110}, {Name: "B", NsPerOp: 10}, {Name: "C", NsPerOp: 5}},
	}
	work := [][]Result{
		{{Name: "A", NsPerOp: 90}, {Name: "B", NsPerOp: 12}, {Name: "D", NsPerOp: 40}},
		{{Name: "A", NsPerOp: 130}, {Name: "B", NsPerOp: 8}, {Name: "D", NsPerOp: 50}},
		{{Name: "A", NsPerOp: 80}},
	}
	got := Summarize(base, work)
	want := []Summary{
		{Name: "A", Rounds: 3, Base: Spread{110, 100, 120}, Work: Spread{90, 80, 130}, Wins: 2},
		{Name: "B", Rounds: 2, Base: Spread{10, 10, 10}, Work: Spread{10, 8, 12}, Wins: 1},
		{Name: "D", Rounds: 2, Base: Spread{55, 50, 60}, Work: Spread{45, 40, 50}, Wins: 2},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Summarize = %+v, want %+v", got, want)
	}
	// A's and B's ranges overlap; D's touch at 50, which counts: a round
	// of each side ran equally fast.
	for i, line := range []string{
		"A  base 110 ns/op [100–120]  work 90 ns/op [80–130]  -18.2%  won 2/3  overlap",
		"B  base 10 ns/op [10–10]  work 10 ns/op [8–12]  +0.0%  won 1/2  overlap",
		"D  base 55 ns/op [50–60]  work 45 ns/op [40–50]  -18.2%  won 2/2  overlap",
	} {
		if got := got[i].String(); got != line {
			t.Errorf("summary line %q, want %q", got, line)
		}
	}
	apart := Summary{Name: "E", Rounds: 2, Base: Spread{55, 50, 60}, Work: Spread{40, 35, 45}, Wins: 2}
	if line := apart.String(); line != "E  base 55 ns/op [50–60]  work 40 ns/op [35–45]  -27.3%  won 2/2" {
		t.Errorf("ranges apart: summary line %q", line)
	}
}
