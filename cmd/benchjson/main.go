// Command benchjson converts `go test -bench` output into JSON.
//
// It reads benchmark output on stdin, echoes every line to stdout
// unchanged (so it can sit in a pipeline without hiding the results),
// and merges the parsed benchmark results into the JSON array in the
// file named by -o: entries already present keep their position and are
// replaced by the new measurement, new names append. That way a partial
// rerun (say, one package's benchmarks) refreshes its rows without
// dropping everyone else's.
//
// With -baseline FILE it additionally prints a per-benchmark comparison
// of the parsed results against the baseline JSON, so a pipeline like
// `make bench-compare` shows regressions inline. Adding -max-regress PCT
// turns the comparison into a gate: benchjson exits non-zero if any
// benchmark's ns/op is more than PCT percent above its baseline or its
// allocs/op grew — the CI guard for the monitoring hot loops.
//
// Usage:
//
//	go test -bench=. -benchmem ./... | benchjson -o BENCH.json
//	go test -bench=. -benchmem ./... | benchjson -baseline BENCH.json
//	go test -bench=. -benchmem ./... | benchjson -baseline BENCH.json -max-regress 5
//
// Results that never pass through `go test` — the per-figure wall-clock
// entries perfbench -suite merges straight into its JSON file — can be
// gated too: -injson FILE takes the results from a benchfmt JSON file
// instead of stdin, and -filter REGEX restricts which names are
// compared, so CI can hold just FigSuite/Fig11 and FigSuite/Fig12
// against the committed BENCH_suite.json baseline:
//
//	perfbench -suite -suitejson fresh.json
//	benchjson -injson fresh.json -filter 'FigSuite/Fig1[12]$' \
//	  -baseline BENCH_suite.json -max-regress 25
//
// -ratio 'NUM,DEN' (name substrings) prints ns/op(NUM)/ns/op(DEN) over
// this run's results, and -max-ratio turns it into a gate. Both operands
// come from the same run, so the gate checks scaling — "ticking a
// 10x-larger fleet may cost at most 2x per tick" — independent of the
// machine's absolute speed:
//
//	benchjson -injson BENCH_scale.json \
//	  -ratio 'servers=10240,servers=1024' -max-ratio 2
//
// -rounds 'BASE,WORK' summarizes a paired comparison that saved each
// round's results of both sides as JSON: BASE and WORK are file names
// holding one %d, read for rounds 1, 2, … until a BASE file is missing.
// It prints one line per benchmark — each side's median ns/op and its
// min–max over the rounds, and how many rounds the working tree won,
// ending in "overlap" when the two ranges overlap — and reads nothing
// from stdin (`make bench-compare` ends with it):
//
//	benchjson -rounds '.bench-base/base%d.json,.bench-base/work%d.json'
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"regexp"
	"strings"

	"perfcloud/internal/benchfmt"
)

func main() {
	out := flag.String("o", "", "JSON file to merge results into (default stdout, suppressing the echo)")
	baseline := flag.String("baseline", "", "baseline JSON file to diff the parsed results against")
	maxRegress := flag.Float64("max-regress", 0, "with -baseline: exit non-zero if any ns/op regressed by more than this percentage (0 = report only)")
	injson := flag.String("injson", "", "benchfmt JSON file to read results from instead of parsing stdin")
	filter := flag.String("filter", "", "regexp: only results whose name matches are compared and merged")
	ratio := flag.String("ratio", "", "'NUM,DEN' name substrings: print ns/op(NUM)/ns/op(DEN) from this run's results")
	maxRatio := flag.Float64("max-ratio", 0, "with -ratio: exit non-zero if the ratio exceeds this (0 = report only)")
	rounds := flag.String("rounds", "", "'BASE,WORK' JSON file names holding %d: summarize the paired rounds 1, 2, … per benchmark")
	flag.Parse()
	if *rounds != "" {
		if err := summarizeRounds(*rounds); err != nil {
			fatal(err)
		}
		return
	}
	if *maxRegress != 0 && *baseline == "" {
		fatal(fmt.Errorf("-max-regress requires -baseline"))
	}
	if *maxRatio != 0 && *ratio == "" {
		fatal(fmt.Errorf("-max-ratio requires -ratio"))
	}

	var results []benchfmt.Result
	if *injson != "" {
		var err error
		if results, err = benchfmt.ReadFile(*injson); err != nil {
			fatal(err)
		}
	} else {
		echo := *out != "" || *baseline != ""
		sc := bufio.NewScanner(os.Stdin)
		sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
		for sc.Scan() {
			line := sc.Text()
			if echo {
				fmt.Println(line)
			}
			if r, ok := benchfmt.ParseLine(line); ok {
				results = append(results, r)
			}
		}
		if err := sc.Err(); err != nil {
			fatal(err)
		}
	}
	if *filter != "" {
		re, err := regexp.Compile(*filter)
		if err != nil {
			fatal(err)
		}
		kept := results[:0]
		for _, r := range results {
			if re.MatchString(r.Name) {
				kept = append(kept, r)
			}
		}
		results = kept
	}

	if *baseline != "" {
		base, err := benchfmt.ReadFile(*baseline)
		if err != nil {
			fatal(err)
		}
		byName := make(map[string]benchfmt.Result, len(base))
		for _, r := range base {
			byName[r.Name] = r
		}
		fmt.Printf("\nvs %s:\n", *baseline)
		for _, r := range results {
			fmt.Println(" ", benchfmt.FormatDelta(byName[r.Name], r))
		}
		if *maxRegress != 0 {
			if msgs := benchfmt.Regressions(base, results, *maxRegress); len(msgs) > 0 {
				fmt.Fprintln(os.Stderr, "benchjson: regressions over threshold:")
				for _, m := range msgs {
					fmt.Fprintln(os.Stderr, "  "+m)
				}
				os.Exit(1)
			}
			fmt.Printf("all benchmarks within %+.1f%% of baseline\n", *maxRegress)
		}
	}

	if *ratio != "" {
		num, den, ok := strings.Cut(*ratio, ",")
		if !ok || num == "" || den == "" {
			fatal(fmt.Errorf("-ratio wants 'NUM,DEN' name substrings, got %q", *ratio))
		}
		v, err := benchfmt.Ratio(results, num, den)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("ratio %s / %s = %.2fx\n", num, den, v)
		if *maxRatio != 0 && v > *maxRatio {
			fmt.Fprintf(os.Stderr, "benchjson: ratio %.2fx exceeds maximum %.2fx\n", v, *maxRatio)
			os.Exit(1)
		}
	}

	if *out == "" {
		if *baseline != "" || *ratio != "" {
			return
		}
		buf, err := json.MarshalIndent(results, "", "  ")
		if err != nil {
			fatal(err)
		}
		os.Stdout.Write(append(buf, '\n'))
		return
	}

	prev, err := benchfmt.ReadFile(*out)
	if err != nil {
		fatal(err)
	}
	if err := benchfmt.WriteFile(*out, benchfmt.Merge(prev, results)); err != nil {
		fatal(err)
	}
	fmt.Fprintln(os.Stderr, "benchjson: wrote", *out)
}

// summarizeRounds reads the rounds the 'BASE,WORK' patterns name and
// prints one benchfmt.Summary line per benchmark.
func summarizeRounds(patterns string) error {
	basePat, workPat, ok := strings.Cut(patterns, ",")
	if !ok || strings.Count(basePat, "%d") != 1 || strings.Count(workPat, "%d") != 1 {
		return fmt.Errorf("-rounds wants 'BASE,WORK' file names each holding one %%d, got %q", patterns)
	}
	var base, work [][]benchfmt.Result
	for r := 1; ; r++ {
		name := fmt.Sprintf(basePat, r)
		if _, err := os.Stat(name); os.IsNotExist(err) {
			break
		}
		b, err := benchfmt.ReadFile(name)
		if err != nil {
			return err
		}
		w, err := benchfmt.ReadFile(fmt.Sprintf(workPat, r))
		if err != nil {
			return err
		}
		base, work = append(base, b), append(work, w)
	}
	if len(base) == 0 {
		return fmt.Errorf("-rounds: no round files match %q", basePat)
	}
	fmt.Printf("\n%d rounds, base vs working tree (median ns/op [min–max]):\n", len(base))
	for _, s := range benchfmt.Summarize(base, work) {
		fmt.Println(" ", s)
	}
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchjson:", err)
	os.Exit(1)
}
