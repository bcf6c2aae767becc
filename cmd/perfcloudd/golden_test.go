package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"hash"
	"io"
	"os"
	"strings"
	"testing"
	"time"

	"perfcloud/internal/obs"
)

// observedRun runs the daemon scenario with every observer main wires
// for `-alerts -http -events -trace` (no listener) and writes the audit
// log to events and the Perfetto export to trace, as main would.
func observedRun(seed int64, events, trace io.Writer) error {
	cfg := runConfig{Duration: 3 * time.Minute, Seed: seed, Log: io.Discard}
	jsonl, _ := wireObservers(&cfg, options{alerts: true, httpAddr: ":0", tracePath: "trace.json"}, events)
	ob, err := run(cfg)
	if err != nil {
		return err
	}
	if err := jsonl.Flush(); err != nil {
		return err
	}
	return ob.WriteTrace(trace)
}

// TestGoldenOutputs pins the SHA-256 of the Perfetto JSON and the JSONL
// audit log at two seeds against testdata/golden.sha256, so an encoder
// change that moves a single byte fails here. The digests were taken
// with the encoding/json-based encoders the append encoders replaced.
// The file is in sha256sum format, so
//
//	perfcloudd -seed 42 -alerts -trace seed42.trace.json -events seed42.events.jsonl
//	sha256sum -c cmd/perfcloudd/testdata/golden.sha256
//
// checks the same bytes from the command line.
func TestGoldenOutputs(t *testing.T) {
	want := readGolden(t, "testdata/golden.sha256")
	for _, seed := range []int64{42, 7} {
		events, trace := sha256.New(), sha256.New()
		if err := observedRun(seed, events, trace); err != nil {
			t.Fatal(err)
		}
		for name, h := range map[string]hash.Hash{
			fmt.Sprintf("seed%d.events.jsonl", seed): events,
			fmt.Sprintf("seed%d.trace.json", seed):   trace,
		} {
			if got := hex.EncodeToString(h.Sum(nil)); got != want[name] {
				t.Errorf("%s: sha256 %s, want %s", name, got, want[name])
			}
		}
	}
}

// readGolden parses a sha256sum file into name → hex digest.
func readGolden(t *testing.T, path string) map[string]string {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	out := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		sum, name, ok := strings.Cut(sc.Text(), "  ")
		if !ok {
			t.Fatalf("%s: malformed line %q", path, sc.Text())
		}
		out[name] = sum
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// failCloser is a file whose Close fails.
type failCloser struct{}

func (failCloser) Close() error { return errors.New("close: disk quota exceeded") }

// TestCloseEventsReportsCloseError checks that a failed close of the
// audit log file is reported, not dropped after a clean flush.
func TestCloseEventsReportsCloseError(t *testing.T) {
	var buf bytes.Buffer
	s := obs.NewJSONLSink(&buf)
	s.Emit(obs.Event{T: 1, Type: obs.EventSample})
	err := closeEvents(s, failCloser{})
	if err == nil || !strings.Contains(err.Error(), "disk quota") {
		t.Fatalf("closeEvents = %v, want the close error", err)
	}
	if buf.Len() == 0 {
		t.Fatal("closeEvents did not flush before closing")
	}
}

// BenchmarkRun measures the observer tax in one run: the daemon's
// default scenario bare, and with main's -events -trace -alerts -http
// observers (no listener), ending as main does with the audit log
// flushed and the trace exported. `make bench-tax` gates the on/off
// ratio; both sides share the machine, so the ratio holds anywhere.
func BenchmarkRun(b *testing.B) {
	b.Run("observers=off", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := run(runConfig{Duration: 3 * time.Minute, Seed: 42, Log: io.Discard}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("observers=on", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := observedRun(42, io.Discard, io.Discard); err != nil {
				b.Fatal(err)
			}
		}
	})
}
