package otrace

import (
	"context"
	"io"
	"log/slog"
	"strings"
)

// captureHandler wraps a slog.Handler and tees every record at or above
// CaptureLevel (default WARN) into a flight recorder's log-event ring, so
// the recent errors of a run survive next to its traces. Records flow to the
// wrapped handler unchanged.
type captureHandler struct {
	inner slog.Handler
	rec   *Recorder
	min   slog.Level
	attrs []Attr // accumulated WithAttrs, pre-rendered
	group string
}

// newCaptureHandler tees WARN-and-above records from inner into rec.
func newCaptureHandler(inner slog.Handler, rec *Recorder) *captureHandler {
	return &captureHandler{inner: inner, rec: rec, min: slog.LevelWarn}
}

// Enabled implements slog.Handler.
func (h *captureHandler) Enabled(ctx context.Context, level slog.Level) bool {
	// The recorder wants WARN+ even when the inner handler's level would
	// drop them, so the flight recorder still has errors after a quiet
	// -log-level=error run... but not the other way round: below min, defer
	// to the inner handler entirely.
	if level >= h.min {
		return true
	}
	return h.inner.Enabled(ctx, level)
}

// Handle implements slog.Handler.
func (h *captureHandler) Handle(ctx context.Context, r slog.Record) error {
	if h.rec != nil && r.Level >= h.min {
		ev := LogEvent{Time: r.Time, Level: r.Level.String(), Msg: r.Message}
		ev.Attrs = append(ev.Attrs, h.attrs...)
		r.Attrs(func(a slog.Attr) bool {
			ev.Attrs = append(ev.Attrs, h.render(a)...)
			return true
		})
		if span := FromContext(ctx); span != nil {
			ev.Attrs = append(ev.Attrs,
				String("trace_id", span.Trace().String()),
				String("span_id", span.spanID().String()))
		}
		h.rec.AddLogEvent(ev)
	}
	if !h.inner.Enabled(ctx, r.Level) {
		return nil
	}
	return h.inner.Handle(ctx, r)
}

// render flattens a slog.Attr (including groups) into pre-rendered pairs.
func (h *captureHandler) render(a slog.Attr) []Attr {
	key := a.Key
	if h.group != "" {
		key = h.group + "." + key
	}
	if a.Value.Kind() == slog.KindGroup {
		var out []Attr
		for _, g := range a.Value.Group() {
			sub := g
			sub.Key = key + "." + g.Key
			out = append(out, Attr{Key: sub.Key, Value: sub.Value.String()})
		}
		return out
	}
	return []Attr{{Key: key, Value: a.Value.String()}}
}

// WithAttrs implements slog.Handler.
func (h *captureHandler) WithAttrs(attrs []slog.Attr) slog.Handler {
	next := *h
	next.inner = h.inner.WithAttrs(attrs)
	next.attrs = append(append([]Attr(nil), h.attrs...), func() []Attr {
		var out []Attr
		for _, a := range attrs {
			out = append(out, h.render(a)...)
		}
		return out
	}()...)
	return &next
}

// WithGroup implements slog.Handler.
func (h *captureHandler) WithGroup(name string) slog.Handler {
	next := *h
	next.inner = h.inner.WithGroup(name)
	if next.group == "" {
		next.group = name
	} else {
		next.group = next.group + "." + name
	}
	return &next
}

// ParseLevel maps the -log-level flag values to slog levels (unknown values
// read as info).
func ParseLevel(s string) slog.Level {
	switch strings.ToLower(s) {
	case "debug":
		return slog.LevelDebug
	case "warn", "warning":
		return slog.LevelWarn
	case "error":
		return slog.LevelError
	default:
		return slog.LevelInfo
	}
}

// NewLogger builds the control plane's logger: text or JSON at the given
// level, with WARN-and-above teed into the flight recorder when rec is
// non-nil.
func NewLogger(w io.Writer, level slog.Level, json bool, rec *Recorder) *slog.Logger {
	opts := &slog.HandlerOptions{Level: level}
	var inner slog.Handler
	if json {
		inner = slog.NewJSONHandler(w, opts)
	} else {
		inner = slog.NewTextHandler(w, opts)
	}
	if rec != nil {
		return slog.New(newCaptureHandler(inner, rec))
	}
	return slog.New(inner)
}
