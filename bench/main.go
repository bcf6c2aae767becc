// Command bench is the repository's end-to-end benchmark. The simulator is
// deterministic, so the host time it spends reproducing the paper's
// experiments is its product metric; bench measures that time on four
// workloads that stress different layers, and checks the simulated outputs
// while it does.
//
// It drives the simulator only through the public APIs of the internal
// packages and sets none of their process-global switches, so it measures
// the configuration every command runs by default.
//
// Usage, from the repository root:
//
//	bash bench/run.sh -workload mix|variability|planet|daemon [-seed N] [-seconds S] [-trace 0|1]
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics ({name: {value, unit}}); the line
// before it is the run's manifest. A readable table goes to standard error.
// -trace 0 reports the end-to-end metrics, -trace 1 the per-layer ones.
// README.md describes the workloads and every metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"
)

// minReps is the fewest timed reps a run makes, however short -seconds is.
const minReps = 3

type config struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
}

func main() {
	cfg, err := parseArgs(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(2)
	}
	wl := newWorkload(cfg.workload, fullSizes())
	res := run(cfg, wl)
	if err := res.write(os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func parseArgs(args []string) (config, error) {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames, ", "))
	seed := fs.Int64("seed", 1, "base seed: rep i uses seed+i; mix, variability and daemon always run at seed 42")
	seconds := fs.Float64("seconds", 25, "host seconds of timed reps; at least 3 reps run")
	trace := fs.Int("trace", 0, "0 measures the end-to-end metrics, 1 the per-layer breakdown")
	if err := fs.Parse(args); err != nil {
		return config{}, err
	}
	if fs.NArg() > 0 {
		return config{}, fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	known := false
	for _, n := range workloadNames {
		known = known || n == *workload
	}
	if !known {
		return config{}, fmt.Errorf("-workload must be one of %s, not %q", strings.Join(workloadNames, ", "), *workload)
	}
	if !(*seconds > 0) || *seconds > 3600 {
		return config{}, fmt.Errorf("-seconds must be in (0, 3600], not %v", *seconds)
	}
	if *trace != 0 && *trace != 1 {
		return config{}, fmt.Errorf("-trace must be 0 or 1, not %d", *trace)
	}
	return config{
		workload: *workload,
		seed:     *seed,
		seconds:  time.Duration(*seconds * float64(time.Second)),
		trace:    *trace == 1,
	}, nil
}

// report is one run's result.
type report struct {
	correct   bool
	attempted int
	failed    int
	metrics   []metric
	manifest  manifest
}

type metric struct {
	name  string
	value float64
	unit  string
}

// manifest says exactly what ran.
type manifest struct {
	Workload   string  `json:"workload"`
	Seed       int64   `json:"seed"`
	FixedSeed  int64   `json:"fixed_seed,omitempty"`
	Trace      bool    `json:"trace"`
	Seconds    float64 `json:"seconds"`
	WarmupReps int     `json:"warmup_reps"`
	Reps       int     `json:"reps"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GOGC       string  `json:"gogc"`
	GoVersion  string  `json:"go_version"`
	Revision   string  `json:"vcs_revision"`
	Modified   bool    `json:"vcs_modified"`
}

func newManifest(cfg config) manifest {
	m := manifest{
		Workload:   cfg.workload,
		Seed:       cfg.seed,
		Trace:      cfg.trace,
		Seconds:    cfg.seconds.Seconds(),
		WarmupReps: 1,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GOGC:       os.Getenv("GOGC"),
		GoVersion:  runtime.Version(),
		Revision:   "unknown",
	}
	if m.GOGC == "" {
		m.GOGC = "100"
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				m.Revision = s.Value
			case "vcs.modified":
				m.Modified = s.Value == "true"
			}
		}
	}
	return m
}

// write prints the manifest and the result line to out and a readable
// table to table.
func (r report) write(out, table io.Writer) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value, len(r.metrics))
	fmt.Fprintf(table, "%s: %d reps, %d of %d operations failed, correct=%v\n",
		r.manifest.Workload, r.manifest.Reps, r.failed, r.attempted, r.correct)
	for _, m := range r.metrics {
		v := m.value
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		metrics[m.name] = value{v, m.unit}
		fmt.Fprintf(table, "  %-28s %14s %s\n", m.name, strconv.FormatFloat(v, 'g', 6, 64), m.unit)
	}
	man, err := json.Marshal(struct {
		Manifest manifest `json:"manifest"`
	}{r.manifest})
	if err != nil {
		return err
	}
	res, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.correct, r.attempted, r.failed, metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "%s\n%s\n", man, res)
	return err
}

// median returns the middle of xs (the mean of the two middle values for
// an even count), or 0 for none.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs, interpolating between closest
// ranks, or 0 for none. The benchmark keeps its own statistics rather
// than the simulator's, so a change to the code under test cannot change
// how it is measured.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MB.
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) == 3 && f[0] == "VmHWM:" && f[2] == "kB" {
			kb, err := strconv.ParseFloat(f[1], 64)
			return kb * 1024 / 1e6, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}
