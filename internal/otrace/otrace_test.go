package otrace

import (
	"bytes"
	"context"
	"errors"
	"log/slog"
	"strings"
	"sync"
	"testing"
	"time"
)

// fixedClock is a deterministic Clock that advances a fixed step per reading.
type fixedClock struct {
	mu   sync.Mutex
	t    time.Time
	step time.Duration
}

func newFixedClock() *fixedClock {
	return &fixedClock{t: time.Unix(1_000_000, 0).UTC(), step: time.Millisecond}
}

func (c *fixedClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.t
	c.t = c.t.Add(c.step)
	return now
}

func TestNilSafety(t *testing.T) {
	var tr *Tracer
	ctx, span := tr.Start(context.Background(), "root")
	if span != nil {
		t.Fatalf("nil tracer produced a span")
	}
	if ctx != context.Background() {
		t.Fatalf("nil tracer changed the context")
	}
	// Every nil-span method must no-op without panicking.
	var s *Span
	s.SetAttr(String("k", "v"))
	s.AddEvent("ev")
	s.SetError(errors.New("boom"))
	s.End()
	if s != nil || s.Trace() != 0 || s.spanID() != 0 {
		t.Fatalf("nil span not inert")
	}
	if s.StartChild("c") != nil {
		t.Fatalf("nil span produced a child")
	}
	if got := s.Link(); got != (Link{}) {
		t.Fatalf("nil span Link = %+v, want zero", got)
	}
	if _, child := StartSpan(context.Background(), "x"); child != nil {
		t.Fatalf("untraced StartSpan produced a span")
	}
	if tr.Recorder() != nil {
		t.Fatalf("nil tracer has a recorder")
	}
}

func TestUnsampledZeroAlloc(t *testing.T) {
	rec := NewRecorder(8)
	tr := New(Config{SampleRate: 0, Seed: 1, Recorder: rec, Clock: newFixedClock()})
	ctx := context.Background()
	if n := testing.AllocsPerRun(100, func() {
		c2, s := tr.Start(ctx, "root")
		c3, s2 := StartSpan(c2, "child")
		s2.SetAttr(String("k", "v"))
		s2.AddEvent("ev")
		s2.End()
		s.End()
		_ = c3
	}); n != 0 {
		t.Fatalf("unsampled path allocates %v allocs/op, want 0", n)
	}
	if rec.Snapshot(time.Time{}).Total != 0 {
		t.Fatalf("unsampled traces reached the recorder")
	}
}

func TestSampledTraceRecorded(t *testing.T) {
	rec := NewRecorder(8)
	tr := New(Config{SampleRate: 1, Seed: 42, Recorder: rec, Clock: newFixedClock()})
	ctx, root := tr.Start(context.Background(), "query-tr")
	if root == nil {
		t.Fatalf("rate-1 root not sampled")
	}
	root.SetAttr(String("machine", "m1"))
	ctx2, child := StartSpan(ctx, "predict")
	child.AddEvent("cache-hit", String("key", "abc"))
	child.End()
	_, failed := StartSpan(ctx2, "solve")
	failed.SetError(errors.New("singular matrix"))
	failed.End()
	root.End()

	if rec.Snapshot(time.Time{}).Total != 1 {
		t.Fatalf("recorded %d traces, want 1", rec.Snapshot(time.Time{}).Total)
	}
	records, ok := rec.Snapshot(time.Time{}).Trace(root.Trace())
	if !ok || len(records) != 1 {
		t.Fatalf("Trace lookup: ok=%v records=%d", ok, len(records))
	}
	if got := len(records[0].Spans); got != 3 {
		t.Fatalf("retained %d spans, want 3", got)
	}
	out := RenderTraceString(records, RenderOptions{Timings: false})
	for _, want := range []string{"query-tr", "machine=m1", "predict", "@ cache-hit key=abc", "solve", "ERROR (singular matrix)"} {
		if !strings.Contains(out, want) {
			t.Fatalf("rendered tree missing %q:\n%s", want, out)
		}
	}
	// Root must render at depth 1, children nested below it.
	if !strings.Contains(out, "\n  query-tr") || !strings.Contains(out, "\n    predict") {
		t.Fatalf("unexpected nesting:\n%s", out)
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	run := func() string {
		rec := NewRecorder(8)
		tr := New(Config{SampleRate: 1, Seed: 7, Recorder: rec, Clock: newFixedClock()})
		ctx, root := tr.Start(context.Background(), "submit")
		for i := 0; i < 3; i++ {
			_, attempt := StartSpan(ctx, "rpc-attempt")
			attempt.SetAttr(Int("attempt", i+1))
			if i < 2 {
				attempt.SetError(errors.New("dial refused"))
			}
			attempt.End()
		}
		root.End()
		recs, _ := rec.Snapshot(time.Time{}).Trace(root.Trace())
		return root.Trace().String() + "\n" + RenderTraceString(recs, RenderOptions{Timings: true})
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("same seed, different trees:\n--- a ---\n%s\n--- b ---\n%s", a, b)
	}
}

func TestSamplingIsPureFunctionOfTraceID(t *testing.T) {
	tr := New(Config{SampleRate: 0.5, Seed: 9})
	first := make([]bool, 0, 64)
	for i := 0; i < 64; i++ {
		_, s := tr.Start(context.Background(), "op")
		first = append(first, s != nil)
		s.End()
	}
	tr2 := New(Config{SampleRate: 0.5, Seed: 9})
	for i := 0; i < 64; i++ {
		_, s := tr2.Start(context.Background(), "op")
		if (s != nil) != first[i] {
			t.Fatalf("sampling decision %d differs across same-seed tracers", i)
		}
		s.End()
	}
	var hits int
	for _, v := range first {
		if v {
			hits++
		}
	}
	if hits == 0 || hits == len(first) {
		t.Fatalf("rate 0.5 sampled %d/%d — decision not probabilistic", hits, len(first))
	}
}

func TestStartRemoteContinuesTrace(t *testing.T) {
	clientRec := NewRecorder(8)
	client := New(Config{SampleRate: 1, Seed: 3, Recorder: clientRec, Clock: newFixedClock()})
	_, cspan := client.Start(context.Background(), "client-call")
	link := cspan.Link()
	if !link.Sampled || link.TraceID == 0 {
		t.Fatalf("bad link: %+v", link)
	}

	serverRec := NewRecorder(8)
	server := New(Config{SampleRate: 1, Seed: 99, Recorder: serverRec, Clock: newFixedClock()})
	sctx, sspan := server.StartRemote(context.Background(), link, "gateway.dispatch")
	if sspan.Trace() != cspan.Trace() {
		t.Fatalf("server trace %s != client trace %s", sspan.Trace(), cspan.Trace())
	}
	_, inner := StartSpan(sctx, "state.query")
	inner.End()
	sspan.End()
	cspan.End()

	// Both sides retained a record under the same trace ID; a merged render
	// nests the server root under the client span it was linked to.
	all := append([]TraceRecord{}, mustTrace(t, clientRec, cspan.Trace())...)
	all = append(all, mustTrace(t, serverRec, cspan.Trace())...)
	out := RenderTraceString(all, RenderOptions{Timings: false})
	if !strings.Contains(out, "\n  client-call") ||
		!strings.Contains(out, "\n    gateway.dispatch") ||
		!strings.Contains(out, "\n      state.query") {
		t.Fatalf("merged render did not stitch remote parentage:\n%s", out)
	}

	// An unsampled link must suppress the server side entirely.
	if _, s := server.StartRemote(context.Background(), Link{TraceID: 5, SpanID: 6, Sampled: false}, "x"); s != nil {
		t.Fatalf("unsampled link produced a span")
	}
	// A zero link behaves like a fresh root.
	if _, s := server.StartRemote(context.Background(), Link{}, "fresh"); s == nil {
		t.Fatalf("zero link did not start a fresh trace")
	}
}

func mustTrace(t *testing.T, rec *Recorder, id TraceID) []TraceRecord {
	t.Helper()
	records, ok := rec.Snapshot(time.Time{}).Trace(id)
	if !ok {
		t.Fatalf("trace %s not retained", id)
	}
	return records
}

func TestIDStringRoundTrip(t *testing.T) {
	id := TraceID(0xDEADBEEF12345678)
	got, err := ParseTraceID(id.String())
	if err != nil || got != id {
		t.Fatalf("trace id round trip: %v %v", got, err)
	}
	sid := SpanID(42)
	if s := sid.String(); len(s) != 16 {
		t.Fatalf("span id %q not fixed-width", s)
	}
	gotS, err := ParseSpanID(sid.String())
	if err != nil || gotS != sid {
		t.Fatalf("span id round trip: %v %v", gotS, err)
	}
	if _, err := ParseTraceID("not-hex"); err == nil {
		t.Fatalf("ParseTraceID accepted garbage")
	}
}

func TestStatusTextRoundTrip(t *testing.T) {
	for _, st := range []Status{StatusOK, StatusError} {
		b, err := st.MarshalText()
		if err != nil {
			t.Fatal(err)
		}
		var back Status
		if err := back.UnmarshalText(b); err != nil || back != st {
			t.Fatalf("status %v round trip: %v %v", st, back, err)
		}
	}
}

func TestEndIdempotentAndSealedAfterFlush(t *testing.T) {
	rec := NewRecorder(8)
	tr := New(Config{SampleRate: 1, Seed: 11, Recorder: rec, Clock: newFixedClock()})
	ctx, root := tr.Start(context.Background(), "root")
	_, straggler := StartSpan(ctx, "straggler")
	root.End()
	root.End()      // idempotent
	straggler.End() // after flush: dropped, record is sealed
	if rec.Snapshot(time.Time{}).Total != 1 {
		t.Fatalf("double End recorded %d traces", rec.Snapshot(time.Time{}).Total)
	}
	records, _ := rec.Snapshot(time.Time{}).Trace(root.Trace())
	if len(records[0].Spans) != 1 {
		t.Fatalf("sealed record grew: %d spans", len(records[0].Spans))
	}
}

func TestCaptureHandler(t *testing.T) {
	rec := NewRecorder(8)
	var buf bytes.Buffer
	logger := NewLogger(&buf, slog.LevelError, false, rec)

	tr := New(Config{SampleRate: 1, Seed: 13, Recorder: rec, Clock: newFixedClock()})
	ctx, span := tr.Start(context.Background(), "op")

	logger.InfoContext(ctx, "chatty")                           // below WARN: not captured
	logger.WarnContext(ctx, "tick late", slog.Int("lag_ms", 7)) // captured, below inner level: not printed
	logger.ErrorContext(ctx, "read failed", slog.String("machine", "m1"))
	span.End()

	events := rec.Snapshot(time.Time{}).Events
	if len(events) != 2 {
		t.Fatalf("captured %d events, want 2", len(events))
	}
	// Newest first.
	if events[0].Msg != "read failed" || events[1].Msg != "tick late" {
		t.Fatalf("unexpected events: %+v", events)
	}
	var sawTrace bool
	for _, a := range events[0].Attrs {
		if a.Key == "trace_id" && a.Value == span.Trace().String() {
			sawTrace = true
		}
	}
	if !sawTrace {
		t.Fatalf("captured event missing trace_id attr: %+v", events[0].Attrs)
	}
	out := buf.String()
	if strings.Contains(out, "tick late") || strings.Contains(out, "chatty") {
		t.Fatalf("inner handler printed suppressed levels:\n%s", out)
	}
	if !strings.Contains(out, "read failed") {
		t.Fatalf("inner handler dropped an error:\n%s", out)
	}
}

func TestCaptureHandlerWithAttrsAndGroup(t *testing.T) {
	rec := NewRecorder(8)
	logger := NewLogger(&buffer{}, slog.LevelInfo, true, rec).
		With(slog.String("component", "monitor")).
		WithGroup("host")
	logger.Warn("cpu read failed", slog.String("machine", "m2"))
	events := rec.Snapshot(time.Time{}).Events
	if len(events) != 1 {
		t.Fatalf("captured %d events, want 1", len(events))
	}
	keys := map[string]string{}
	for _, a := range events[0].Attrs {
		keys[a.Key] = a.Value
	}
	if keys["component"] != "monitor" {
		t.Fatalf("WithAttrs lost: %+v", events[0].Attrs)
	}
	if keys["host.machine"] != "m2" {
		t.Fatalf("group prefix lost: %+v", events[0].Attrs)
	}
}

type buffer struct{ bytes.Buffer }

func TestParseLevel(t *testing.T) {
	cases := map[string]slog.Level{
		"debug": slog.LevelDebug, "info": slog.LevelInfo,
		"warn": slog.LevelWarn, "warning": slog.LevelWarn,
		"error": slog.LevelError, "bogus": slog.LevelInfo, "": slog.LevelInfo,
	}
	for in, want := range cases {
		if got := ParseLevel(in); got != want {
			t.Errorf("ParseLevel(%q) = %v, want %v", in, got, want)
		}
	}
}

func TestAttrConstructors(t *testing.T) {
	cases := []struct {
		got  Attr
		want Attr
	}{
		{String("a", "b"), Attr{"a", "b"}},
		{Int("n", 42), Attr{"n", "42"}},
		{Float("f", 0.25), Attr{"f", "0.25"}},
	}
	for _, c := range cases {
		if c.got != c.want {
			t.Errorf("attr %+v, want %+v", c.got, c.want)
		}
	}
}
