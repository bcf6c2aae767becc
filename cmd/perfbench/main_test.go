package main

import "testing"

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
