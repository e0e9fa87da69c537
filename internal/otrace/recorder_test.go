package otrace

import (
	"context"
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func TestRecorderRingEviction(t *testing.T) {
	rec := NewRecorder(4)
	for i := 1; i <= 6; i++ {
		rec.addTrace(TraceID(i), []SpanData{{TraceID: TraceID(i), SpanID: SpanID(i), Name: "op"}})
	}
	snap := rec.Snapshot(time.Time{})
	if snap.Total != 6 {
		t.Fatalf("Total = %d, want 6", snap.Total)
	}
	got := snap.Traces
	if len(got) != 4 {
		t.Fatalf("retained %d, want 4", len(got))
	}
	// Newest first: 6, 5, 4, 3. Traces 1 and 2 were displaced.
	for i, want := range []TraceID{6, 5, 4, 3} {
		if got[i].TraceID != want {
			t.Fatalf("Traces[%d] = %s, want %s", i, got[i].TraceID, want)
		}
	}
	if _, ok := snap.Trace(1); ok {
		t.Fatalf("displaced trace still retrievable")
	}
	if limited := snap.TracesLimit(2); len(limited) != 2 || limited[0].TraceID != 6 {
		t.Fatalf("limit ignored: %+v", limited)
	}
}

func TestRecorderTraceMergesRecords(t *testing.T) {
	rec := NewRecorder(8)
	// Two records of one distributed trace (client + server), plus noise.
	rec.addTrace(7, []SpanData{{TraceID: 7, SpanID: 1, Name: "client"}})
	rec.addTrace(9, []SpanData{{TraceID: 9, SpanID: 5, Name: "other"}})
	rec.addTrace(7, []SpanData{{TraceID: 7, SpanID: 2, Parent: 1, Name: "server"}})
	records, ok := rec.Snapshot(time.Time{}).Trace(7)
	if !ok || len(records) != 2 {
		t.Fatalf("merge: ok=%v n=%d", ok, len(records))
	}
	// Oldest first, so the client record leads.
	if records[0].Spans[0].Name != "client" || records[1].Spans[0].Name != "server" {
		t.Fatalf("record order wrong: %+v", records)
	}
}

func TestRecordRootSelection(t *testing.T) {
	r := TraceRecord{Spans: []SpanData{
		{SpanID: 3, Parent: 2, Name: "leaf"},
		{SpanID: 2, Parent: 99, Name: "local-root"}, // parent is remote
	}}
	if got := r.Root(); got.Name != "local-root" {
		t.Fatalf("Root = %q", got.Name)
	}
	if got := (TraceRecord{}).Root(); got.Name != "" {
		t.Fatalf("empty record root: %+v", got)
	}
}

func TestEventRingEviction(t *testing.T) {
	rec := NewRecorder(4)
	for i := 0; i < defaultEventCapacity+3; i++ {
		rec.AddLogEvent(LogEvent{Level: "WARN", Msg: "m", Time: time.Unix(int64(i), 0)})
	}
	snap := rec.Snapshot(time.Time{})
	events := snap.Events
	if len(events) != defaultEventCapacity {
		t.Fatalf("retained %d events, want %d", len(events), defaultEventCapacity)
	}
	if events[0].Time.Unix() != int64(defaultEventCapacity+2) {
		t.Fatalf("newest event wrong: %v", events[0].Time)
	}
	if limited := snap.EventsLimit(1); len(limited) != 1 {
		t.Fatalf("event limit ignored")
	}
}

func TestNilRecorderSafe(t *testing.T) {
	var rec *Recorder
	rec.addTrace(1, nil)
	rec.AddLogEvent(LogEvent{})
	snap := rec.Snapshot(time.Time{})
	if snap.Total != 0 || snap.Traces != nil || snap.Events != nil {
		t.Fatalf("nil recorder not inert")
	}
	if _, ok := snap.Trace(1); ok {
		t.Fatalf("nil recorder found a trace")
	}
}

func TestHTTPHandler(t *testing.T) {
	rec := NewRecorder(8)
	tr := New(Config{SampleRate: 1, Seed: 17, Recorder: rec, Clock: newFixedClock()})
	ctx, root := tr.Start(context.Background(), "query-tr")
	_, child := StartSpan(ctx, "predict")
	child.End()
	root.End()
	rec.AddLogEvent(LogEvent{Level: "ERROR", Msg: "boom"})

	h := HTTPHandler(rec)

	// Listing.
	rw := httptest.NewRecorder()
	h.ServeHTTP(rw, httptest.NewRequest("GET", "/traces", nil))
	if rw.Code != 200 {
		t.Fatalf("GET /traces: %d", rw.Code)
	}
	var listing struct {
		TotalRecorded uint64 `json:"total_recorded"`
		Traces        []struct {
			TraceID string `json:"trace_id"`
			Root    string `json:"root"`
			Spans   int    `json:"spans"`
		} `json:"traces"`
		Events []LogEvent `json:"events"`
	}
	if err := json.Unmarshal(rw.Body.Bytes(), &listing); err != nil {
		t.Fatalf("listing json: %v\n%s", err, rw.Body.String())
	}
	if listing.TotalRecorded != 1 || len(listing.Traces) != 1 || len(listing.Events) != 1 {
		t.Fatalf("listing content: %+v", listing)
	}
	if listing.Traces[0].Root != "query-tr" || listing.Traces[0].Spans != 2 {
		t.Fatalf("summary wrong: %+v", listing.Traces[0])
	}

	// Per-trace JSON.
	rw = httptest.NewRecorder()
	h.ServeHTTP(rw, httptest.NewRequest("GET", "/traces/"+listing.Traces[0].TraceID, nil))
	if rw.Code != 200 {
		t.Fatalf("GET /traces/{id}: %d", rw.Code)
	}
	var records []TraceRecord
	if err := json.Unmarshal(rw.Body.Bytes(), &records); err != nil {
		t.Fatalf("trace json: %v", err)
	}
	if len(records) != 1 || len(records[0].Spans) != 2 {
		t.Fatalf("trace content: %+v", records)
	}

	// Rendered form.
	rw = httptest.NewRecorder()
	h.ServeHTTP(rw, httptest.NewRequest("GET", "/traces/"+listing.Traces[0].TraceID+"?render=1", nil))
	if rw.Code != 200 || !strings.Contains(rw.Body.String(), "query-tr") {
		t.Fatalf("render: %d %q", rw.Code, rw.Body.String())
	}

	// Errors.
	rw = httptest.NewRecorder()
	h.ServeHTTP(rw, httptest.NewRequest("GET", "/traces/zzzz-not-hex", nil))
	if rw.Code != 400 {
		t.Fatalf("bad id: %d", rw.Code)
	}
	rw = httptest.NewRecorder()
	h.ServeHTTP(rw, httptest.NewRequest("GET", "/traces/00000000000000ff", nil))
	if rw.Code != 404 {
		t.Fatalf("missing trace: %d", rw.Code)
	}
}
