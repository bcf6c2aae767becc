package obs

import (
	"encoding/json"
	"math"
	"strconv"
)

// This file is JSONLSink's encoder: a hand-written append encoder for
// Event that reproduces encoding/json's output byte for byte — the same
// field order, the same omitempty rules, the same float and string
// forms — without reflection or per-value allocation. FuzzJSONLEncoding
// pins the equivalence against json.Encoder.

// finite reports whether every float in e is finite. encoding/json
// refuses NaN and ±Inf; events holding one are left to json.Encoder so
// the sink's sticky error is exactly the one it would have reported.
func (e *Event) finite() bool {
	ok := func(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }
	if !ok(e.T) || !ok(e.IowaitDev) || !ok(e.CPIDev) || !ok(e.MeanIowait) ||
		!ok(e.MeanCPI) || !ok(e.OldCap) || !ok(e.NewCap) || !ok(e.Value) ||
		!ok(e.Threshold) || !ok(e.ActiveSince) {
		return false
	}
	for _, c := range e.Corr {
		if !ok(c.IO) || !ok(c.CPU) {
			return false
		}
	}
	return true
}

// appendEvent appends e's encoding/json encoding to b, without the
// trailing newline json.Encoder adds. e must be finite.
func appendEvent(b []byte, e *Event) []byte {
	b = append(b, `{"t":`...)
	b = appendJSONFloat(b, e.T)
	b = append(b, `,"type":`...)
	b = appendJSONString(b, string(e.Type))
	b = appendStringField(b, `,"server":`, e.Server)
	b = appendStringField(b, `,"vm":`, e.VM)
	b = appendStringField(b, `,"res":`, e.Res)
	if e.Domains != 0 {
		b = append(b, `,"domains":`...)
		b = strconv.AppendInt(b, int64(e.Domains), 10)
	}
	b = appendFloatField(b, `,"iowait_dev":`, e.IowaitDev)
	b = appendFloatField(b, `,"cpi_dev":`, e.CPIDev)
	b = appendFloatField(b, `,"mean_iowait":`, e.MeanIowait)
	b = appendFloatField(b, `,"mean_cpi":`, e.MeanCPI)
	if e.IOContention {
		b = append(b, `,"io_contention":true`...)
	}
	if e.CPUContention {
		b = append(b, `,"cpu_contention":true`...)
	}
	if len(e.Corr) > 0 {
		b = append(b, `,"corr":[`...)
		for i, c := range e.Corr {
			if i > 0 {
				b = append(b, ',')
			}
			b = append(b, `{"vm":`...)
			b = appendJSONString(b, c.VM)
			b = append(b, `,"io":`...)
			b = appendJSONFloat(b, c.IO)
			b = append(b, `,"cpu":`...)
			b = appendJSONFloat(b, c.CPU)
			b = append(b, '}')
		}
		b = append(b, ']')
	}
	b = appendStringsField(b, `,"io_antagonists":`, e.IOAntagonists)
	b = appendStringsField(b, `,"cpu_antagonists":`, e.CPUAntagonists)
	b = appendFloatField(b, `,"old_cap":`, e.OldCap)
	b = appendFloatField(b, `,"new_cap":`, e.NewCap)
	b = appendStringField(b, `,"region":`, e.Region)
	if e.SinceDecrease != 0 {
		b = append(b, `,"since_decrease":`...)
		b = strconv.AppendInt(b, e.SinceDecrease, 10)
	}
	if f := e.Fast; f != nil {
		b = appendUintField(b, `,"fastpaths":{"quiescent_skips":`, f.QuiescentSkips)
		b = appendUintField(b, `,"steady_reuses":`, f.SteadyReuses)
		b = appendUintField(b, `,"rebuilds":`, f.Rebuilds)
		b = appendUintField(b, `,"stride_skips":`, f.StrideSkips)
		b = appendUintField(b, `,"horizon_recomputes":`, f.HorizonRecomputes)
		b = appendUintField(b, `,"shard_skips":`, f.ShardSkips)
		b = appendUintField(b, `,"cpu_memo_hits":`, f.CPUMemoHits)
		b = appendUintField(b, `,"cpu_memo_misses":`, f.CPUMemoMisses)
		b = appendUintField(b, `,"mem_memo_hits":`, f.MemMemoHits)
		b = appendUintField(b, `,"mem_memo_misses":`, f.MemMemoMisses)
		b = appendUintField(b, `,"disk_memo_hits":`, f.DiskMemoHits)
		b = appendUintField(b, `,"disk_memo_misses":`, f.DiskMemoMisses)
		b = append(b, '}')
	}
	b = appendStringField(b, `,"rule":`, e.Rule)
	b = appendStringField(b, `,"state":`, e.State)
	b = appendFloatField(b, `,"value":`, e.Value)
	b = appendFloatField(b, `,"threshold":`, e.Threshold)
	b = appendFloatField(b, `,"active_since":`, e.ActiveSince)
	return append(b, '}')
}

// appendStringField appends an omitempty string field.
func appendStringField(b []byte, key, s string) []byte {
	if s == "" {
		return b
	}
	return appendJSONString(append(b, key...), s)
}

// appendUintField appends an always-encoded unsigned field.
func appendUintField(b []byte, key string, n uint64) []byte {
	return strconv.AppendUint(append(b, key...), n, 10)
}

// appendFloatField appends an omitempty float field; like encoding/json
// it omits -0 too, since -0 == 0.
func appendFloatField(b []byte, key string, v float64) []byte {
	if v == 0 {
		return b
	}
	return appendJSONFloat(append(b, key...), v)
}

// appendStringsField appends an omitempty []string field.
func appendStringsField(b []byte, key string, ss []string) []byte {
	if len(ss) == 0 {
		return b
	}
	b = append(b, key...)
	b = append(b, '[')
	for i, s := range ss {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendJSONString(b, s)
	}
	return append(b, ']')
}

// appendJSONFloat appends a finite v as encoding/json does: 'f' format
// for 1e-6 <= |v| < 1e21 (and zero), 'e' outside it with a one-digit
// negative exponent written without its leading zero (e-07 -> e-7).
func appendJSONFloat(b []byte, v float64) []byte {
	abs := math.Abs(v)
	fmt := byte('f')
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		fmt = 'e'
	}
	b = strconv.AppendFloat(b, v, fmt, -1, 64)
	if fmt == 'e' {
		n := len(b)
		if n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}

// appendJSONString appends s as a JSON string literal. Printable ASCII
// with nothing encoding/json escapes — every id and name the simulator
// emits — is appended raw; anything else (control bytes, HTML
// characters, non-ASCII, invalid UTF-8) goes through json.Marshal so
// its escaping stays exactly encoding/json's.
func appendJSONString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c > 0x7e || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // a string always marshals
			return append(b, q...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}
