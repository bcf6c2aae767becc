package experiments

import (
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"perfcloud/internal/cluster"
	"perfcloud/internal/obs"
	"perfcloud/internal/trace"
)

// figure returns the registry entry named name.
func figure(t *testing.T, name string) Figure {
	t.Helper()
	for _, f := range Figures() {
		if f.Name == name {
			return f
		}
	}
	t.Fatalf("Figures has no entry %q", name)
	return Figure{}
}

// TestFiguresRegistry checks the registry's shape: unique names, a Run
// on every entry, and every derived figure listed after the one it
// reads, so one in-order pass can feed it.
func TestFiguresRegistry(t *testing.T) {
	seen := map[string]bool{}
	for _, f := range Figures() {
		if f.Name == "" || f.Name == "all" || seen[f.Name] {
			t.Errorf("figure name %q is empty, reserved or repeated", f.Name)
		}
		if f.Run == nil {
			t.Errorf("figure %s has no Run", f.Name)
		}
		if (f.Derive == nil) != (f.From == "") || f.From != "" && !seen[f.From] {
			t.Errorf("figure %s derives from %q, which is not listed before it", f.Name, f.From)
		}
		seen[f.Name] = true
	}
}

// TestFigureExtrasMatchOutputs checks every entry's Extras, which
// perfbench's flag help lists, against what its quick run produces with
// every observer on: time series, trace files, scorecard and alert
// tables.
func TestFigureExtrasMatchOutputs(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	opts := Options{TraceDir: dir, Scorecards: true, AlertRules: obs.DefaultRules(obs.DefaultRulesConfig{})}
	traces := 0
	err := RunFigures(Figures(), 42, opts, true, func(f Figure, out Output, _ time.Duration) error {
		var got Extra
		if len(out.Timelines) > 0 {
			got |= ExtraTimelines
		}
		files, err := os.ReadDir(dir)
		if err != nil {
			return err
		}
		if len(files) > traces {
			got |= ExtraTraces
		}
		traces = len(files)
		for _, tab := range out.Tables {
			if strings.Contains(tab.Title, "scorecards") {
				got |= ExtraScorecards
			}
			if strings.Contains(tab.Title, "alerts") {
				got |= ExtraAlerts
			}
		}
		if got != f.Extras {
			t.Errorf("figure %s produces extras %04b, its entry declares %04b", f.Name, got, f.Extras)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestRunFiguresSharesFig9 checks that a pass over Figs 9 and 10 runs
// the Fig 9 experiment once, and that Fig 10 derived from it matches
// Fig 10 run on its own.
func TestRunFiguresSharesFig9(t *testing.T) {
	t.Parallel()
	var testbeds atomic.Int64
	opts := Options{OnTestbed: func(*Testbed) { testbeds.Add(1) }}
	var outs []Output
	collect := func(_ Figure, out Output, _ time.Duration) error {
		outs = append(outs, out)
		return nil
	}
	fig9, fig10 := figure(t, "9"), figure(t, "10")
	if err := RunFigures([]Figure{fig9}, 42, opts, false, collect); err != nil {
		t.Fatal(err)
	}
	alone := testbeds.Swap(0)
	if err := RunFigures([]Figure{fig9, fig10}, 42, opts, false, collect); err != nil {
		t.Fatal(err)
	}
	if both := testbeds.Load(); both != alone {
		t.Errorf("Figs 9+10 built %d testbeds, Fig 9 alone %d", both, alone)
	}
	// The cap series hold NaN for uncapped samples, so compare renderings.
	render := func(out Output) string {
		tl := out.Timelines[0]
		return out.Tables[0].String() + trace.SeriesCSV(tl.Columns, tl.Series)
	}
	if got, want := render(outs[2]), render(fig10.Run(42, Options{}, false)); got != want {
		t.Errorf("Fig 10 derived from the shared Fig 9 run differs from Fig 10 run alone:\n%s\nwant:\n%s", got, want)
	}
}

// TestQuickFig12Parks guards the quiescence fast path on the figure
// cases: between task waves the worker executors sit idle, so their
// servers must park, and quick Fig 12 must skip some grant-phase ticks.
func TestQuickFig12Parks(t *testing.T) {
	t.Parallel()
	var mu sync.Mutex
	var clusters []*cluster.Cluster
	opts := Options{OnTestbed: func(tb *Testbed) {
		mu.Lock()
		defer mu.Unlock()
		clusters = append(clusters, tb.Clus)
	}}
	figure(t, "12").Run(42, opts, true)
	var fp obs.FastPathSnapshot
	for _, c := range clusters {
		fp.Add(c.FastPathStats())
	}
	if fp.QuiescentSkips == 0 {
		t.Errorf("quick Fig 12 skipped no grant-phase ticks over %d testbeds (%d reused, %d rebuilt)",
			len(clusters), fp.SteadyReuses, fp.Rebuilds)
	}
}
