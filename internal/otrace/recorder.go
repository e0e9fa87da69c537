package otrace

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"time"
)

// TraceRecord is one locally rooted span tree retained by the flight
// recorder. A distributed trace appears as several records sharing a
// TraceID — one per local root (e.g. one client record plus one gateway
// record per RPC attempt); Recorder.Trace merges them for inspection.
type TraceRecord struct {
	TraceID TraceID    `json:"trace_id"`
	Spans   []SpanData `json:"spans"`
}

// Root returns the record's local root span: the span whose parent is not in
// the record (the remote parent, or zero).
func (r TraceRecord) Root() SpanData {
	local := make(map[SpanID]bool, len(r.Spans))
	for _, s := range r.Spans {
		local[s.SpanID] = true
	}
	for _, s := range r.Spans {
		if !local[s.Parent] {
			return s
		}
	}
	if len(r.Spans) > 0 {
		return r.Spans[0]
	}
	return SpanData{}
}

// LogEvent is one captured ERROR/WARN log record, retained alongside traces
// so a post-hoc look at a misbehaving run sees both what happened and what
// was logged while it happened.
type LogEvent struct {
	Time  time.Time `json:"time"`
	Level string    `json:"level"`
	Msg   string    `json:"msg"`
	Attrs []Attr    `json:"attrs,omitempty"`
}

// Recorder is the flight recorder: a fixed-size ring of the most recent
// completed traces plus a ring of recent WARN/ERROR log events. Reads return
// copies, so snapshots are safe to serialize while recording continues.
type Recorder struct {
	mu     sync.Mutex
	traces []TraceRecord // ring; traces[next] is the oldest slot
	next   int
	filled bool
	total  uint64

	events   []LogEvent // ring
	evNext   int
	evFilled bool
}

// DefaultCapacity is the trace capacity used when NewRecorder is given a
// non-positive size.
const DefaultCapacity = 256

// defaultEventCapacity bounds the retained WARN/ERROR log events.
const defaultEventCapacity = 512

// NewRecorder builds a flight recorder retaining the last capacity completed
// traces (<= 0 selects DefaultCapacity).
func NewRecorder(capacity int) *Recorder {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Recorder{
		traces: make([]TraceRecord, capacity),
		events: make([]LogEvent, defaultEventCapacity),
	}
}

// addTrace retains one completed span tree, displacing the oldest when full.
func (r *Recorder) addTrace(id TraceID, spans []SpanData) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.traces[r.next] = TraceRecord{TraceID: id, Spans: spans}
	r.next++
	if r.next == len(r.traces) {
		r.next = 0
		r.filled = true
	}
	r.total++
	r.mu.Unlock()
}

// AddLogEvent retains one captured log record (the slog capture handler
// calls this for WARN and above).
func (r *Recorder) AddLogEvent(ev LogEvent) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.events[r.evNext] = ev
	r.evNext++
	if r.evNext == len(r.events) {
		r.evNext = 0
		r.evFilled = true
	}
	r.mu.Unlock()
}

// newestFirst copies a ring's retained entries, newest first; next is the
// slot the ring writes next.
func newestFirst[T any](ring []T, next int, filled bool) []T {
	n := next
	if filled {
		n = len(ring)
	}
	out := make([]T, n)
	for i := range out {
		out[i] = ring[(next-1-i+len(ring))%len(ring)]
	}
	return out
}

// ------------------------------------------------------------- rendering ----

// RenderOptions shapes renderTrace output.
type RenderOptions struct {
	// Timings includes start offsets and durations. Disable for
	// deterministic comparisons across runs (wall-clock noise) — the
	// structural tree (names, nesting, attrs, events, statuses) is the
	// deterministic part.
	Timings bool
}

// renderTrace writes one merged trace as an indented span tree, the format
// `isharec traces` prints and the determinism tests compare. Records are
// merged by span parentage: spans whose parent is absent from the merged set
// render as top-level roots, in record order.
func renderTrace(w io.Writer, records []TraceRecord, opts RenderOptions) {
	if len(records) == 0 {
		return
	}
	var all []SpanData
	for _, rec := range records {
		all = append(all, rec.Spans...)
	}
	byID := make(map[SpanID]int, len(all))
	children := make(map[SpanID][]int, len(all))
	var roots []int
	for i, s := range all {
		byID[s.SpanID] = i
	}
	for i, s := range all {
		if _, ok := byID[s.Parent]; ok && s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], i)
		} else {
			roots = append(roots, i)
		}
	}
	// Children render in start order (stable across runs under a
	// deterministic clock), falling back to span ID order on ties.
	order := func(idx []int) {
		sort.SliceStable(idx, func(a, b int) bool {
			sa, sb := all[idx[a]], all[idx[b]]
			if !sa.Start.Equal(sb.Start) {
				return sa.Start.Before(sb.Start)
			}
			return sa.SpanID < sb.SpanID
		})
	}
	order(roots)
	fmt.Fprintf(w, "trace %s (%d spans)\n", records[0].TraceID, len(all))
	var walk func(i, depth int)
	walk = func(i, depth int) {
		s := all[i]
		indent := strings.Repeat("  ", depth+1)
		fmt.Fprintf(w, "%s%s", indent, s.Name)
		if opts.Timings {
			fmt.Fprintf(w, " [%v]", s.Duration)
		}
		if s.Status == StatusError {
			fmt.Fprintf(w, " ERROR")
			if s.Error != "" {
				fmt.Fprintf(w, " (%s)", s.Error)
			}
		}
		for _, a := range s.Attrs {
			fmt.Fprintf(w, " %s=%s", a.Key, a.Value)
		}
		fmt.Fprintln(w)
		for _, ev := range s.Events {
			fmt.Fprintf(w, "%s  @ %s", indent, ev.Name)
			for _, a := range ev.Attrs {
				fmt.Fprintf(w, " %s=%s", a.Key, a.Value)
			}
			fmt.Fprintln(w)
		}
		kids := children[s.SpanID]
		order(kids)
		for _, k := range kids {
			walk(k, depth+1)
		}
	}
	for _, root := range roots {
		walk(root, 0)
	}
}

// RenderTraceString is renderTrace into a string.
func RenderTraceString(records []TraceRecord, opts RenderOptions) string {
	var b strings.Builder
	renderTrace(&b, records, opts)
	return b.String()
}
