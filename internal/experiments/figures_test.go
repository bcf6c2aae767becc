package experiments

import (
	"sync/atomic"
	"testing"
	"time"

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
