package main

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"perfcloud/internal/trace"
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

// failCloser is a trace file whose Close fails after the writes succeed.
type failCloser struct{ bytes.Buffer }

func (*failCloser) Close() error { return errors.New("close: disk quota exceeded") }

// TestWriteTraceReportsCloseError checks that a failed close of the
// -trace file is reported, not dropped after a clean write.
func TestWriteTraceReportsCloseError(t *testing.T) {
	var f failCloser
	err := writeTrace(&f, trace.NewTracer(), nil)
	if err == nil || !strings.Contains(err.Error(), "disk quota") {
		t.Fatalf("writeTrace = %v, want the close error", err)
	}
	if f.Len() == 0 {
		t.Fatal("writeTrace did not write the trace before closing")
	}
}
