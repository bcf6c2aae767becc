package trace

import (
	"io"
	"math"
	"sort"
	"strconv"

	"perfcloud/internal/obs"
)

// WritePerfetto encodes the tracer's closed spans as a Chrome-trace-event
// JSON object ("traceEvents" array), the format Perfetto and
// chrome://tracing open directly.
//
// Layout: process 1 ("executors") has one thread per executor slot, and
// every attempt span renders there as a duration event whose args carry
// the phase attribution. Process 2 ("jobs") has one thread per job on
// which the job span and its sequential task-set (wave/stage) spans
// nest. Logical task spans are recorded by the tracer but not rendered —
// tasks of one wave overlap in time, which duration events on a single
// thread cannot express; their queue wait is visible through the report
// tables instead. Process 3 ("control") renders cap/release/migrate
// events from the control-plane audit log (one thread per server) as
// instant events, so throttle decisions line up with the attempts they
// slowed.
//
// The encoding is hand-rolled with fixed field order, sorted track
// numbering and creation-order spans: a deterministic simulation
// produces byte-identical output (asserted by
// TestSameSeedTracesAreByteIdentical). Timestamps are microseconds, as
// the format requires.
func (t *Tracer) WritePerfetto(w io.Writer, events []obs.Event) error {
	enc := perfettoEncoder{w: w, buf: make([]byte, 0, perfettoChunk+perfettoChunk/4)}

	// Track numbering. Executor-slot threads are numbered by sorted
	// track name; job threads by job-span creation order; control
	// threads by sorted server id.
	slotTid := map[string]int{}
	var slotNames []string
	jobTid := map[SpanID]int{}
	var jobNames []string
	for i := 0; i < t.Len(); i++ {
		s := t.at(i)
		switch {
		case s.Kind == KindAttempt && s.Track != "":
			if _, ok := slotTid[s.Track]; !ok {
				slotTid[s.Track] = 0 // numbered after the sort below
				slotNames = append(slotNames, s.Track)
			}
		case s.Kind == KindJob, s.Kind == KindTaskSet && s.Parent == NoSpan:
			jobTid[s.ID] = len(jobNames) + 1
			jobNames = append(jobNames, s.Name)
		}
	}
	sort.Strings(slotNames)
	for i, name := range slotNames {
		slotTid[name] = i + 1
	}
	serverTid := map[string]int{}
	var serverNames []string
	for i := range events {
		e := &events[i]
		if !controlEvent(e.Type) {
			continue
		}
		if _, ok := serverTid[e.Server]; !ok {
			serverTid[e.Server] = 0
			serverNames = append(serverNames, e.Server)
		}
	}
	sort.Strings(serverNames)
	for i, name := range serverNames {
		serverTid[name] = i + 1
	}

	enc.buf = append(enc.buf, `{"displayTimeUnit":"ms","traceEvents":[`...)

	// Metadata first: process and thread names.
	if len(slotNames) > 0 {
		enc.meta("process_name", 1, 0, "executors")
		for _, name := range slotNames {
			enc.meta("thread_name", 1, slotTid[name], name)
		}
	}
	if len(jobNames) > 0 {
		enc.meta("process_name", 2, 0, "jobs")
		for i, name := range jobNames {
			enc.meta("thread_name", 2, i+1, name)
		}
	}
	if len(serverNames) > 0 {
		enc.meta("process_name", 3, 0, "control")
		for _, name := range serverNames {
			enc.meta("thread_name", 3, serverTid[name], name)
		}
	}

	// Duration events, in span-creation order.
	for i := 0; i < t.Len(); i++ {
		s := t.at(i)
		if s.Open {
			continue
		}
		switch s.Kind {
		case KindAttempt:
			if s.Track == "" {
				continue
			}
			enc.attempt(s, slotTid[s.Track])
		case KindJob:
			enc.duration(s, 2, jobTid[s.ID])
		case KindTaskSet:
			tid, ok := jobTid[s.ID]
			if !ok {
				tid, ok = jobTid[s.Parent]
			}
			if ok {
				enc.duration(s, 2, tid)
			}
		}
	}

	// Control-plane instants, in audit-log (simulation-time) order.
	for i := range events {
		if e := &events[i]; controlEvent(e.Type) {
			enc.instant(e, serverTid[e.Server])
		}
	}

	enc.buf = append(enc.buf, "]}\n"...)
	enc.flush()
	return enc.err
}

// controlEvent reports whether an audit-log event is a control action
// worth an instant marker on the trace.
func controlEvent(t obs.EventType) bool {
	return t == obs.EventCap || t == obs.EventRelease || t == obs.EventMigrate
}

// perfettoChunk is how many encoded bytes the Perfetto encoder gathers
// before writing them out; its buffer stays a small-object allocation.
const perfettoChunk = 16 << 10

// perfettoEncoder hand-writes trace events with fixed field order,
// appending into one reused buffer that is written out a chunk at a
// time. The first write error is kept and ends further writes.
type perfettoEncoder struct {
	w     io.Writer
	buf   []byte
	err   error
	wrote bool
}

// flush writes out the buffered bytes and empties the buffer.
func (e *perfettoEncoder) flush() {
	if e.err == nil && len(e.buf) > 0 {
		_, e.err = e.w.Write(e.buf)
	}
	e.buf = e.buf[:0]
}

// sep ends the previous event: it writes the buffer out once a chunk
// has gathered, then the element separator before every event after
// the first.
func (e *perfettoEncoder) sep() {
	if len(e.buf) >= perfettoChunk {
		e.flush()
	}
	if e.wrote {
		e.buf = append(e.buf, ',')
	}
	e.wrote = true
}

// meta writes a metadata event naming a process or thread.
func (e *perfettoEncoder) meta(kind string, pid, tid int, name string) {
	e.sep()
	b := append(e.buf, `{"name":"`...)
	b = append(b, kind...)
	b = append(b, `","ph":"M","pid":`...)
	b = strconv.AppendInt(b, int64(pid), 10)
	b = append(b, `,"tid":`...)
	b = strconv.AppendInt(b, int64(tid), 10)
	b = append(b, `,"args":{"name":`...)
	b = appendQuoted(b, name)
	e.buf = append(b, `}}`...)
}

// header writes the shared prefix of a duration event up to its args.
func (e *perfettoEncoder) header(s *Span, pid, tid int) {
	e.sep()
	b := append(e.buf, `{"name":`...)
	b = appendQuoted(b, s.Name)
	b = append(b, `,"cat":"`...)
	b = append(b, s.Kind.String()...)
	b = append(b, `","ph":"X","pid":`...)
	b = strconv.AppendInt(b, int64(pid), 10)
	b = append(b, `,"tid":`...)
	b = strconv.AppendInt(b, int64(tid), 10)
	b = append(b, `,"ts":`...)
	b = appendFloat(b, s.StartSec*1e6)
	b = append(b, `,"dur":`...)
	e.buf = appendFloat(b, (s.EndSec-s.StartSec)*1e6)
}

// duration writes a job or task-set span without phase args.
func (e *perfettoEncoder) duration(s *Span, pid, tid int) {
	e.header(s, pid, tid)
	if s.Killed {
		e.buf = append(e.buf, `,"args":{"killed":true}`...)
	}
	e.buf = append(e.buf, '}')
}

// attempt writes an attempt span with the full phase attribution.
func (e *perfettoEncoder) attempt(s *Span, tid int) {
	e.header(s, 1, tid)
	b := append(e.buf, `,"args":{`...)
	for p := 0; p < NumPhases; p++ {
		if p > 0 {
			b = append(b, ',')
		}
		b = append(b, '"')
		b = append(b, Phase(p).String()...)
		b = append(b, `_s":`...)
		b = appendFloat(b, s.Phases[p])
	}
	b = append(b, `,"speculative":`...)
	b = strconv.AppendBool(b, s.Speculative)
	b = append(b, `,"killed":`...)
	b = strconv.AppendBool(b, s.Killed)
	b = append(b, `,"cached_input":`...)
	b = strconv.AppendBool(b, s.CachedInput)
	b = append(b, `,"cache_saved_s":`...)
	b = appendFloat(b, s.CacheSavedSec)
	e.buf = append(b, `}}`...)
}

// instant writes one control action as a thread-scoped instant event.
// Its name is the event type, then the resource and VM when set, each
// after a space.
func (e *perfettoEncoder) instant(ev *obs.Event, tid int) {
	e.sep()
	b := append(e.buf, `{"name":"`...)
	b = appendEscaped(b, string(ev.Type))
	if ev.Res != "" {
		b = append(b, ' ')
		b = appendEscaped(b, ev.Res)
	}
	if ev.VM != "" {
		b = append(b, ' ')
		b = appendEscaped(b, ev.VM)
	}
	b = append(b, `","cat":"control","ph":"i","s":"t","pid":3,"tid":`...)
	b = strconv.AppendInt(b, int64(tid), 10)
	b = append(b, `,"ts":`...)
	b = appendFloat(b, ev.T*1e6)
	b = append(b, `,"args":{"vm":`...)
	b = appendQuoted(b, ev.VM)
	b = append(b, `,"res":`...)
	b = appendQuoted(b, ev.Res)
	b = append(b, `,"old_cap":`...)
	b = appendFloat(b, ev.OldCap)
	b = append(b, `,"new_cap":`...)
	b = appendFloat(b, ev.NewCap)
	e.buf = append(b, `}}`...)
}

// appendFloat appends v as a JSON number: the shortest round-trip
// form, strconv.FormatFloat(v, 'g', -1, 64), deterministic for a given
// value. +0, the commonest value (empty phase buckets), skips the
// shortest-digits search; -0 keeps its sign through AppendFloat.
func appendFloat(b []byte, v float64) []byte {
	if v == 0 && !math.Signbit(v) {
		return append(b, '0')
	}
	return strconv.AppendFloat(b, v, 'g', -1, 64)
}

// appendQuoted appends s as a JSON string literal.
func appendQuoted(b []byte, s string) []byte {
	b = append(b, '"')
	b = appendEscaped(b, s)
	return append(b, '"')
}

// appendEscaped appends s's JSON string escaping, without quotes. Span
// and VM names are ASCII identifiers; the escaper still covers quotes,
// backslashes and control bytes so arbitrary names cannot corrupt the
// document. Runs of bytes needing no escape are appended whole.
func appendEscaped(b []byte, s string) []byte {
	const hex = "0123456789abcdef"
	start := 0
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c >= 0x20 && c != '"' && c != '\\' {
			continue
		}
		b = append(b, s[start:i]...)
		if c < 0x20 {
			b = append(b, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xf])
		} else {
			b = append(b, '\\', c)
		}
		start = i + 1
	}
	return append(b, s[start:]...)
}
