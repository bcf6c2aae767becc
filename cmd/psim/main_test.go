package main

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"
)

// TestValidate checks that every setting psim cannot run is rejected
// with a usage error naming the offending flag or value, and that
// runnable settings pass.
func TestValidate(t *testing.T) {
	ok := options{servers: 1, workers: 6, jobs: 3, fio: 1, streams: 1, scheme: "perfcloud", workload: "terasort"}
	cases := []struct {
		name    string
		edit    func(*options)
		wantErr string // "" means valid
	}{
		{"defaults", func(o *options) {}, ""},
		{"zero jobs and antagonists", func(o *options) { o.jobs, o.fio, o.streams = 0, 0, 0 }, ""},
		{"zero workers selects the default", func(o *options) { o.workers = 0 }, ""},
		{"many servers", func(o *options) { o.servers, o.fio = 4, 9 }, ""},
		{"every scheme", func(o *options) { o.scheme = "dolly-4" }, ""},
		{"spark workload", func(o *options) { o.workload = "spark-svm" }, ""},
		{"alerts under hybrid", func(o *options) { o.scheme, o.alerts = "hybrid", true }, ""},
		{"zero servers", func(o *options) { o.servers = 0 }, "-servers"},
		{"negative servers", func(o *options) { o.servers = -2 }, "-servers"},
		{"negative workers", func(o *options) { o.workers = -1 }, "-workers"},
		{"negative jobs", func(o *options) { o.jobs = -1 }, "-jobs"},
		{"negative fio", func(o *options) { o.fio = -3 }, "-fio"},
		{"negative streams", func(o *options) { o.streams = -1 }, "-streams"},
		{"unknown scheme", func(o *options) { o.scheme = "bogus" }, "scheme"},
		{"unknown workload", func(o *options) { o.workload = "bogus" }, "workload"},
		{"alerts without PerfCloud", func(o *options) { o.scheme, o.alerts = "late", true }, "-alerts"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			o := ok
			tc.edit(&o)
			err := o.validate()
			switch {
			case tc.wantErr == "" && err != nil:
				t.Fatalf("validate(%+v) = %v, want nil", o, err)
			case tc.wantErr != "" && err == nil:
				t.Fatalf("validate(%+v) = nil, want an error mentioning %q", o, tc.wantErr)
			case tc.wantErr != "" && !strings.Contains(err.Error(), tc.wantErr):
				t.Fatalf("validate(%+v) = %v, want it to mention %q", o, err, tc.wantErr)
			}
		})
	}
}

// TestGoldenOutputs pins psim's stdout, Perfetto JSON and alert JSONL at
// two seeds against testdata/golden.sha256. The file is in sha256sum
// format, so in a scratch directory
//
//	psim -seed 42 -scorecard -phase-report -trace seed42.trace.json \
//	     -alerts-jsonl seed42.alerts.jsonl > seed42.stdout
//	sha256sum -c <repo>/cmd/psim/testdata/golden.sha256
//
// checks the same bytes from the command line (make golden).
func TestGoldenOutputs(t *testing.T) {
	want := readGolden(t, "testdata/golden.sha256")
	// stdout names the trace file, so run where the relative names land.
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.Chdir(wd) })
	for _, seed := range []string{"42", "7"} {
		o, err := parse(flag.NewFlagSet("psim", flag.ContinueOnError), []string{
			"-seed", seed, "-scorecard", "-phase-report",
			"-trace", "seed" + seed + ".trace.json", "-alerts-jsonl", "seed" + seed + ".alerts.jsonl",
		})
		if err == nil {
			err = o.validate()
		}
		if err != nil {
			t.Fatal(err)
		}
		var stdout bytes.Buffer
		if err := run(o, &stdout); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile("seed"+seed+".stdout", stdout.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		for _, name := range []string{"stdout", "trace.json", "alerts.jsonl"} {
			name = "seed" + seed + "." + name
			b, err := os.ReadFile(name)
			if err != nil {
				t.Fatal(err)
			}
			if got := fmt.Sprintf("%x", sha256.Sum256(b)); got != want[name] {
				t.Errorf("%s: sha256 %s, want %s", name, got, want[name])
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
