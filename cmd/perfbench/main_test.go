package main

import "testing"

// TestValidateFig checks that -fig accepts exactly the experiments
// perfbench can regenerate.
func TestValidateFig(t *testing.T) {
	cases := []struct {
		fig string
		ok  bool
	}{
		{"all", true},
		{"1", true},
		{"7", true},
		{"9", true},
		{"12", true},
		{"ablations", true},
		{"extensions", true},
		{"8", false}, // the paper has no Fig 8 experiment
		{"13", false},
		{"0", false},
		{"bogus", false},
		{"", false},
		{"ALL", false},
		{" 3", false},
	}
	for _, tc := range cases {
		if err := validateFig(tc.fig); (err == nil) != tc.ok {
			t.Errorf("validateFig(%q) = %v, want ok=%v", tc.fig, err, tc.ok)
		}
	}
}
