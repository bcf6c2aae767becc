package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestValidateFig checks that -fig accepts exactly the experiments
// perfbench can regenerate, and -parallel any count from 0 up.
func TestValidateFig(t *testing.T) {
	cases := []struct {
		fig      string
		parallel int
		ok       bool
	}{
		{"all", 0, true},
		{"1", 0, true},
		{"7", 0, true},
		{"9", 0, true},
		{"12", 0, true},
		{"ablations", 0, true},
		{"extensions", 0, true},
		{"8", 0, false}, // the paper has no Fig 8 experiment
		{"13", 0, false},
		{"0", 0, false},
		{"bogus", 0, false},
		{"", 0, false},
		{"ALL", 0, false},
		{" 3", 0, false},
		{"12", 1, true},
		{"all", 8, true},
		{"12", -1, false}, // used to be clamped to GOMAXPROCS silently
		{"all", -8, false},
		{"bogus", -1, false},
	}
	for _, tc := range cases {
		if err := validate(tc.fig, tc.parallel); (err == nil) != tc.ok {
			t.Errorf("validate(%q, %d) = %v, want ok=%v", tc.fig, tc.parallel, err, tc.ok)
		}
	}
}

// TestGoldenOutputs pins perfbench's output in process against the
// digests `make golden` checks from the command line, in sha256sum
// format: the stdout of
//
//	perfbench -fig all -seed 42 > figall.stdout
//
// against testdata/golden.sha256, and the stdout and every trace of the
// full observed quick suite,
//
//	perfbench -fig all -quick -scorecard -alerts -fastpaths -tracedir traces > suite.stdout
//
// against testdata/suite.sha256.
func TestGoldenOutputs(t *testing.T) {
	cases := []struct {
		golden, stdout string
		args           []string
		traces         bool // append -tracedir and pin the traces too
	}{
		{"testdata/golden.sha256", "figall.stdout", []string{"-fig", "all", "-seed", "42"}, false},
		{"testdata/suite.sha256", "suite.stdout", []string{"-fig", "all", "-quick", "-scorecard", "-alerts", "-fastpaths"}, true},
	}
	for _, tc := range cases {
		want := readGolden(t, tc.golden)
		dir := t.TempDir()
		args := tc.args
		if tc.traces {
			args = append(args, "-tracedir", filepath.Join(dir, "traces"))
		}
		var stdout bytes.Buffer
		if err := run(args, &stdout, io.Discard); err != nil {
			t.Fatalf("perfbench %v: %v", args, err)
		}
		got := map[string][]byte{tc.stdout: stdout.Bytes()}
		traces, err := filepath.Glob(filepath.Join(dir, "traces", "*"))
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range traces {
			if got["traces/"+filepath.Base(f)], err = os.ReadFile(f); err != nil {
				t.Fatal(err)
			}
		}
		for name := range want {
			if _, ok := got[name]; !ok {
				t.Errorf("%s: pinned in %s but not written", name, tc.golden)
			}
		}
		for name, b := range got {
			if sum := fmt.Sprintf("%x", sha256.Sum256(b)); sum != want[name] {
				t.Errorf("%s: sha256 %s, want %s", name, sum, want[name])
			}
		}
	}
}

// readGolden parses a sha256sum file into name → hex digest.
func readGolden(t *testing.T, path string) map[string]string {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]string{}
	for _, line := range strings.Split(strings.TrimSuffix(string(b), "\n"), "\n") {
		sum, name, ok := strings.Cut(line, "  ")
		if !ok {
			t.Fatalf("%s: malformed line %q", path, line)
		}
		out[name] = sum
	}
	return out
}
