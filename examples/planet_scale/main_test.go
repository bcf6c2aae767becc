package main

import (
	"strings"
	"testing"
)

func TestValidate(t *testing.T) {
	def := options{servers: 10000, vms: 1000000, hot: 16, jobs: 2, seed: 42}
	cases := []struct {
		name    string
		mod     func(*options)
		wantErr string // "" means valid
	}{
		{"defaults", func(o *options) {}, ""},
		{"no VMs beyond the hot region", func(o *options) { o.vms = 0 }, ""},
		{"one server", func(o *options) { o.servers, o.hot = 1, 1 }, ""},
		{"zero jobs", func(o *options) { o.jobs = 0 }, "-jobs"},
		{"negative jobs", func(o *options) { o.jobs = -1 }, "-jobs"},
		{"negative VMs", func(o *options) { o.vms = -5 }, "-vms"},
		{"zero servers", func(o *options) { o.servers, o.hot = 0, 0 }, "-servers"},
		{"negative servers", func(o *options) { o.servers = -3 }, "-servers"},
		{"zero hot", func(o *options) { o.hot = 0 }, "-hot"},
		{"hot above servers", func(o *options) { o.servers, o.hot = 8, 9 }, "-hot"},
	}
	for _, tc := range cases {
		o := def
		tc.mod(&o)
		err := o.validate()
		switch {
		case tc.wantErr == "" && err != nil:
			t.Errorf("%s: unexpected error %v", tc.name, err)
		case tc.wantErr != "" && (err == nil || !strings.Contains(err.Error(), tc.wantErr)):
			t.Errorf("%s: error %v, want one naming %s", tc.name, err, tc.wantErr)
		}
	}
}
