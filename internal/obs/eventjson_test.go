package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"strconv"
	"testing"
)

// fuzzEvents builds events that carry the fuzzed strings and floats in
// every field of their kind: one event with every field set, one with
// only the always-encoded fields, and one with the floats in the
// identify and alert payloads.
func fuzzEvents(s1, s2 string, x, y float64, n int64, flag bool) []Event {
	full := Event{
		T: x, Type: EventType(s1), Server: s1, VM: s2, Res: s1 + s2,
		Domains: int(n), IowaitDev: x, CPIDev: y, MeanIowait: -x, MeanCPI: -y,
		IOContention: flag, CPUContention: !flag,
		Corr:          []SuspectCorr{{VM: s2, IO: x, CPU: y}, {VM: s1, IO: y, CPU: x}},
		IOAntagonists: []string{s1, s2}, CPUAntagonists: []string{s2},
		OldCap: y, NewCap: x, Region: s2, SinceDecrease: n,
		Rule: s1, State: s2, Value: x, Threshold: y, ActiveSince: -y,
	}
	if flag {
		u := uint64(n)
		full.Fast = &FastPathSnapshot{
			QuiescentSkips: u, SteadyReuses: u + 1, Rebuilds: u + 2, StrideSkips: ^u,
			HorizonRecomputes: u + 3, ShardSkips: u + 4, CPUMemoHits: u + 5,
			CPUMemoMisses: u + 6, MemMemoHits: u + 7, MemMemoMisses: u + 8,
			DiskMemoHits: u + 9, DiskMemoMisses: u + 10,
		}
	} else {
		full.CPUAntagonists = []string{}
	}
	return []Event{
		full,
		{T: y, Type: EventType(s2)},
		{T: x * y, Type: EventIdentify, Corr: []SuspectCorr{{VM: s1 + s2, IO: x / 3, CPU: y * 1e-9}}},
		{T: x + y, Type: EventAlert, Rule: s2, Value: x * 1e21, Threshold: y * 1e-7, ActiveSince: x},
	}
}

// FuzzJSONLEncoding checks JSONLSink's append encoder against
// json.Encoder byte for byte, errors included: HTML characters, control
// bytes, invalid UTF-8 and U+2028 in strings; -0, subnormals, the 1e-6
// and 1e21 format switches, NaN and ±Inf in floats. The reference is
// the sink as json.Encoder alone would run it: one Encode per event
// into a bufio.Writer, stopping at the first error, flushed only when
// every event encoded.
func FuzzJSONLEncoding(f *testing.F) {
	// The edge cases are in testdata/fuzz/FuzzJSONLEncoding.
	f.Add("server-0", "fio", 5.0, 0.3, int64(9), true)
	f.Fuzz(func(t *testing.T, s1, s2 string, x, y float64, n int64, flag bool) {
		var got, want bytes.Buffer
		sink := NewJSONLSink(&got)
		bw := bufio.NewWriter(&want)
		enc := json.NewEncoder(bw)
		var wantErr error
		for _, e := range fuzzEvents(s1, s2, x, y, n, flag) {
			sink.Emit(e)
			if wantErr == nil {
				wantErr = enc.Encode(e)
			}
		}
		if wantErr == nil {
			wantErr = bw.Flush()
		}
		gotErr := sink.Flush()
		if (gotErr == nil) != (wantErr == nil) || gotErr != nil && gotErr.Error() != wantErr.Error() {
			t.Fatalf("error = %v, json.Encoder's = %v", gotErr, wantErr)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("encoding differs from json.Encoder:\n got  %q\n want %q", got.Bytes(), want.Bytes())
		}
	})
}

// fillDistinct sets every field reachable from v — through nested
// structs, slices and pointers — to a non-zero value distinct from every
// other, counting fields in *n. A field kind it does not know fails the
// test, so a new kind of Event field cannot slip past it.
func fillDistinct(t *testing.T, v reflect.Value, n *int) {
	t.Helper()
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			fillDistinct(t, v.Field(i), n)
		}
		return
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 2, 2))
		for i := 0; i < v.Len(); i++ {
			fillDistinct(t, v.Index(i), n)
		}
		return
	case reflect.Pointer:
		v.Set(reflect.New(v.Type().Elem()))
		fillDistinct(t, v.Elem(), n)
		return
	}
	*n++
	switch v.Kind() {
	case reflect.Float64:
		v.SetFloat(float64(*n) + 0.25)
	case reflect.String:
		v.SetString("s" + strconv.Itoa(*n))
	case reflect.Int, reflect.Int64:
		v.SetInt(int64(*n))
	case reflect.Uint64:
		v.SetUint(uint64(*n))
	case reflect.Bool:
		v.SetBool(true)
	default:
		t.Fatalf("fillDistinct: unhandled field kind %s", v.Kind())
	}
}

// floatFields returns every float64 field reachable from v.
func floatFields(v reflect.Value) []reflect.Value {
	switch v.Kind() {
	case reflect.Float64:
		return []reflect.Value{v}
	case reflect.Struct:
		var out []reflect.Value
		for i := 0; i < v.NumField(); i++ {
			out = append(out, floatFields(v.Field(i))...)
		}
		return out
	case reflect.Slice:
		var out []reflect.Value
		for i := 0; i < v.Len(); i++ {
			out = append(out, floatFields(v.Index(i))...)
		}
		return out
	case reflect.Pointer:
		if !v.IsNil() {
			return floatFields(v.Elem())
		}
	}
	return nil
}

// TestAppendEventCoversEveryField gives every field of Event, nested
// Corr and Fast included, a distinct non-zero value by reflection and
// checks appendEvent against json.Marshal, so a field added to Event,
// SuspectCorr or FastPathSnapshot but not to the encoder fails here.
// It then makes each float NaN in turn: finite must catch every one, or
// the encoder would write a number encoding/json refuses.
func TestAppendEventCoversEveryField(t *testing.T) {
	var e Event
	var n int
	fillDistinct(t, reflect.ValueOf(&e).Elem(), &n)
	want, err := json.Marshal(&e)
	if err != nil {
		t.Fatal(err)
	}
	if !e.finite() {
		t.Fatal("finite() = false for an event of finite floats")
	}
	if got := appendEvent(nil, &e); !bytes.Equal(got, want) {
		t.Fatalf("appendEvent differs from json.Marshal:\n got  %s\n want %s", got, want)
	}
	for _, f := range floatFields(reflect.ValueOf(&e).Elem()) {
		old := f.Float()
		f.SetFloat(math.NaN())
		if e.finite() {
			t.Errorf("finite() = true with NaN in place of %v", old)
		}
		f.SetFloat(old)
	}
}
