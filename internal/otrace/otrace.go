// Package otrace is a stdlib-only, allocation-conscious tracing layer for
// the iShare control plane. It gives every request a trace: a tree of spans
// (client command, scheduler decision, RPC attempt, gateway dispatch, state
// manager query, engine fit/solve) with key-value attributes, events and an
// error status, assembled as the spans end and retained by a fixed-size
// flight recorder for post-hoc inspection.
//
// Design constraints, in order:
//
//   - Zero overhead when off. A nil *Tracer and a nil *Span are fully inert:
//     every method no-ops, StartSpan returns the context unchanged, and the
//     instrumented-but-unsampled hot paths (Engine.PredictFromCtx, QueryTR)
//     stay at 0 allocs/op. Sampling is decided once, at the root; an
//     unsampled trace never materializes a span object at all.
//
//   - Determinism. Trace and span IDs are drawn from a seeded SplitMix64
//     sequence and the sampling decision is a pure hash of the trace ID, so
//     a run that performs the same operations in the same order produces the
//     same IDs and the same sampling decisions — the property the chaos
//     harness relies on to assert byte-identical span trees across runs.
//
//   - Propagation over the wire. A span crossing the iShare protocol travels
//     as a small Link (trace ID, parent span ID, sampled flag) carried in an
//     optional request-envelope field; old peers ignore it, new peers
//     tolerate its absence.
//
// Spans are carried in a context.Context. StartSpan creates a child of
// whatever span the context holds (or nothing, if the context is untraced —
// this is what keeps unsampled paths allocation-free); Tracer.Start creates
// roots, Tracer.StartRemote creates local roots parented to a remote span.
package otrace

import (
	"context"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// TraceID identifies one request tree across processes.
type TraceID uint64

// SpanID identifies one span within a trace.
type SpanID uint64

// String renders the ID as fixed-width hex (the wire form).
func (id TraceID) String() string { return fmt.Sprintf("%016x", uint64(id)) }

// String renders the ID as fixed-width hex (the wire form).
func (id SpanID) String() string { return fmt.Sprintf("%016x", uint64(id)) }

// ParseTraceID parses the hex form produced by TraceID.String.
func ParseTraceID(s string) (TraceID, error) {
	v, err := strconv.ParseUint(s, 16, 64)
	if err != nil {
		return 0, fmt.Errorf("otrace: bad trace id %q: %w", s, err)
	}
	return TraceID(v), nil
}

// ParseSpanID parses the hex form produced by SpanID.String.
func ParseSpanID(s string) (SpanID, error) {
	v, err := strconv.ParseUint(s, 16, 64)
	if err != nil {
		return 0, fmt.Errorf("otrace: bad span id %q: %w", s, err)
	}
	return SpanID(v), nil
}

// Attr is one key-value span attribute. Values are pre-rendered strings so
// records marshal without reflection and compare bytewise in determinism
// tests.
type Attr struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// String builds a string attribute.
func String(k, v string) Attr { return Attr{Key: k, Value: v} }

// Int builds an integer attribute.
func Int(k string, v int) Attr { return Attr{Key: k, Value: strconv.Itoa(v)} }

// Float builds a float attribute (shortest round-trippable form).
func Float(k string, v float64) Attr {
	return Attr{Key: k, Value: strconv.FormatFloat(v, 'g', -1, 64)}
}

// Event is a point-in-time annotation on a span (a breaker opening, a cache
// hit, a retry backoff).
type Event struct {
	Name  string    `json:"name"`
	Time  time.Time `json:"time"`
	Attrs []Attr    `json:"attrs,omitempty"`
}

// Status is a span's terminal disposition.
type Status uint8

const (
	// StatusOK is the default: the operation succeeded.
	StatusOK Status = iota
	// StatusError marks a failed operation; SpanData.Error holds the cause.
	StatusError
)

// String returns "ok" or "error".
func (s Status) String() string {
	if s == StatusError {
		return "error"
	}
	return "ok"
}

// MarshalText makes Status render as its name in JSON records.
func (s Status) MarshalText() ([]byte, error) { return []byte(s.String()), nil }

// UnmarshalText parses the Status name (unknown values read as ok).
func (s *Status) UnmarshalText(b []byte) error {
	if string(b) == "error" {
		*s = StatusError
	} else {
		*s = StatusOK
	}
	return nil
}

// SpanData is the immutable record of one completed span.
type SpanData struct {
	TraceID  TraceID       `json:"trace_id"`
	SpanID   SpanID        `json:"span_id"`
	Parent   SpanID        `json:"parent_id,omitempty"`
	Name     string        `json:"name"`
	Start    time.Time     `json:"start"`
	Duration time.Duration `json:"duration_ns"`
	Attrs    []Attr        `json:"attrs,omitempty"`
	Events   []Event       `json:"events,omitempty"`
	Status   Status        `json:"status"`
	Error    string        `json:"error,omitempty"`
}

// Link is the wire form of a span reference: what crosses process boundaries
// in the protocol envelope's optional trace header.
type Link struct {
	TraceID TraceID
	SpanID  SpanID
	Sampled bool
}

// activeTrace accumulates the completed spans of one locally rooted trace.
// The lock is taken only when a span ends (and once at flush) — never on the
// per-operation read paths — which is what "lock-light" buys: concurrent
// children serialize only their completion records.
type activeTrace struct {
	tracer *Tracer
	id     TraceID

	mu      sync.Mutex
	spans   []SpanData
	flushed bool
}

func (tr *activeTrace) add(data SpanData) {
	tr.mu.Lock()
	if !tr.flushed {
		tr.spans = append(tr.spans, data)
	}
	tr.mu.Unlock()
}

// flush hands the accumulated spans to the recorder. Called when the local
// root ends; spans ending after their root are dropped (the record is sealed).
func (tr *activeTrace) flush() {
	tr.mu.Lock()
	spans := tr.spans
	tr.flushed = true
	tr.spans = nil
	tr.mu.Unlock()
	if rec := tr.tracer.recorder; rec != nil && len(spans) > 0 {
		rec.addTrace(tr.id, spans)
	}
}

// Span is one live operation in a trace. Only sampled operations have a
// non-nil *Span; every method is nil-safe, so instrumentation sites never
// branch on sampling themselves.
type Span struct {
	tr     *activeTrace
	isRoot bool // flushes the trace on End

	mu    sync.Mutex
	data  SpanData
	ended bool
}

// Trace returns the span's trace ID (zero for nil spans).
func (s *Span) Trace() TraceID {
	if s == nil {
		return 0
	}
	return s.data.TraceID
}

// spanID returns the span's own spanID (zero for nil spans).
func (s *Span) spanID() SpanID {
	if s == nil {
		return 0
	}
	return s.data.SpanID
}

// Link returns the span's wire reference for protocol propagation. A nil
// span yields the zero Link (Sampled false), which callers encode as "no
// header".
func (s *Span) Link() Link {
	if s == nil {
		return Link{}
	}
	return Link{TraceID: s.data.TraceID, SpanID: s.data.SpanID, Sampled: true}
}

// SetAttr records a key-value attribute.
func (s *Span) SetAttr(attrs ...Attr) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.data.Attrs = append(s.data.Attrs, attrs...)
	s.mu.Unlock()
}

// AddEvent records a point-in-time event at the tracer's current clock
// reading.
func (s *Span) AddEvent(name string, attrs ...Attr) {
	if s == nil {
		return
	}
	now := s.tr.tracer.now()
	s.mu.Lock()
	s.data.Events = append(s.data.Events, Event{Name: name, Time: now, Attrs: attrs})
	s.mu.Unlock()
}

// SetError marks the span failed. A nil err is ignored, so call sites can
// pass their error unconditionally.
func (s *Span) SetError(err error) {
	if s == nil || err == nil {
		return
	}
	s.mu.Lock()
	s.data.Status = StatusError
	s.data.Error = err.Error()
	s.mu.Unlock()
}

// End completes the span: its record joins the trace buffer, and if this
// span is the local root the whole trace is flushed to the flight recorder.
// End is idempotent; spans ended twice record once.
func (s *Span) End() {
	if s == nil {
		return
	}
	now := s.tr.tracer.now()
	s.mu.Lock()
	if s.ended {
		s.mu.Unlock()
		return
	}
	s.ended = true
	s.data.Duration = now.Sub(s.data.Start)
	data := s.data
	s.mu.Unlock()
	s.tr.add(data)
	if s.isRoot {
		s.tr.flush()
	}
}

// StartChild begins a child span of s. For a nil (unsampled) receiver it
// returns nil, keeping the whole subtree free.
func (s *Span) StartChild(name string) *Span {
	if s == nil {
		return nil
	}
	t := s.tr.tracer
	return &Span{
		tr: s.tr,
		data: SpanData{
			TraceID: s.data.TraceID,
			SpanID:  SpanID(t.nextID()),
			Parent:  s.data.SpanID,
			Name:    name,
			Start:   t.now(),
		},
	}
}

// ----------------------------------------------------------- propagation ----

// ctxKey keys the active span in a context.
type ctxKey struct{}

// contextWith returns ctx carrying the span. A nil span returns ctx
// unchanged — the zero-allocation contract for unsampled paths.
func contextWith(ctx context.Context, s *Span) context.Context {
	if s == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, s)
}

// FromContext returns the active span, or nil if the context is untraced.
// The lookup itself does not allocate.
func FromContext(ctx context.Context) *Span {
	if ctx == nil {
		return nil
	}
	s, _ := ctx.Value(ctxKey{}).(*Span)
	return s
}

// StartSpan begins a child of the context's active span and returns the
// derived context. On an untraced context it returns (ctx, nil) without
// allocating — this is the form every instrumented library path uses, so a
// path that is compiled with tracing but runs unsampled costs two pointer
// reads.
func StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	parent := FromContext(ctx)
	if parent == nil {
		return ctx, nil
	}
	child := parent.StartChild(name)
	return contextWith(ctx, child), child
}

// ----------------------------------------------------------------- tracer ----

// Clock is the minimal time source a tracer needs (satisfied by
// simclock.Clock implementations).
type Clock interface {
	Now() time.Time
}

// realClock avoids importing internal/simclock just for the default.
type realClock struct{}

func (realClock) Now() time.Time { return time.Now() }

// Config tunes a Tracer.
type Config struct {
	// SampleRate is the fraction of root traces recorded, in [0, 1].
	// 1 records everything, 0 disables recording while keeping wire
	// propagation inert. The decision is a pure hash of the trace ID, so a
	// fixed seed gives a fixed decision sequence.
	SampleRate float64
	// Seed drives trace/span ID generation (0 uses a fixed default). Two
	// tracers with the same seed performing the same operations in the same
	// order mint identical IDs.
	Seed uint64
	// Recorder receives completed traces (nil discards them — spans still
	// propagate over the wire so a downstream recorder can capture its
	// side).
	Recorder *Recorder
	// Clock stamps span starts, ends and events (nil = wall clock).
	// Simulations pass their virtual clock so recorded durations are
	// deterministic.
	Clock Clock
}

// Tracer mints trace roots. A nil *Tracer is inert: Start and StartRemote
// return the context unchanged and a nil span.
type Tracer struct {
	rate     float64
	seed     uint64
	seq      atomic.Uint64
	recorder *Recorder
	clock    Clock
}

// defaultSeed is used when Config.Seed is zero.
const defaultSeed = 0x07A5

// New builds a tracer.
func New(cfg Config) *Tracer {
	rate := cfg.SampleRate
	if rate < 0 {
		rate = 0
	}
	if rate > 1 {
		rate = 1
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = defaultSeed
	}
	clock := cfg.Clock
	if clock == nil {
		clock = realClock{}
	}
	return &Tracer{rate: rate, seed: seed, recorder: cfg.Recorder, clock: clock}
}

// Recorder returns the tracer's flight recorder (nil when unset or for a nil
// tracer).
func (t *Tracer) Recorder() *Recorder {
	if t == nil {
		return nil
	}
	return t.recorder
}

func (t *Tracer) now() time.Time { return t.clock.Now() }

// nextID mints the next ID in the tracer's deterministic sequence.
func (t *Tracer) nextID() uint64 {
	n := t.seq.Add(1)
	return splitmix(t.seed + n*0x9E3779B97F4A7C15)
}

// sampled is the pure per-trace decision: a hash of the trace ID mapped to
// [0, 1) and compared to the rate.
func (t *Tracer) sampledID(id uint64) bool {
	if t.rate >= 1 {
		return true
	}
	if t.rate <= 0 {
		return false
	}
	u := splitmix(id ^ 0xD1B54A32D192ED03)
	return float64(u>>11)/(1<<53) < t.rate
}

// Start begins a new root span (a fresh trace) unless ctx already carries a
// span, in which case it begins a child — callers at trace boundaries need
// not care which they are. Unsampled roots return (ctx, nil) without
// allocating.
func (t *Tracer) Start(ctx context.Context, name string) (context.Context, *Span) {
	if t == nil {
		return ctx, nil
	}
	if parent := FromContext(ctx); parent != nil {
		child := parent.StartChild(name)
		return contextWith(ctx, child), child
	}
	id := t.nextID()
	if !t.sampledID(id) {
		return ctx, nil
	}
	return t.root(ctx, TraceID(id), 0, name)
}

// StartRemote begins a local root continuing the remote trace described by
// link (the decoded wire header). A zero link (no header on the wire) falls
// back to Start's fresh-trace behavior; an unsampled link stays unsampled on
// this side too, so one root decision governs the whole distributed tree.
func (t *Tracer) StartRemote(ctx context.Context, link Link, name string) (context.Context, *Span) {
	if t == nil {
		return ctx, nil
	}
	if link.TraceID == 0 {
		return t.Start(ctx, name)
	}
	if !link.Sampled {
		return ctx, nil
	}
	return t.root(ctx, link.TraceID, link.SpanID, name)
}

func (t *Tracer) root(ctx context.Context, traceID TraceID, parent SpanID, name string) (context.Context, *Span) {
	tr := &activeTrace{tracer: t, id: traceID}
	s := &Span{
		tr:     tr,
		isRoot: true,
		data: SpanData{
			TraceID: traceID,
			SpanID:  SpanID(t.nextID()),
			Parent:  parent,
			Name:    name,
			Start:   t.now(),
		},
	}
	return contextWith(ctx, s), s
}

// splitmix is the SplitMix64 finalizer, the same mixer the repository's rng
// package uses.
func splitmix(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}
