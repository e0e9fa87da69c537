package otrace

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"
)

// TestFlightSaveLoadRoundTrip proves the shutdown snapshot survives a
// restart byte-for-byte: everything the recorder retained — traces, log
// events, the total counter — comes back from disk as the records the
// recorder was given, and the lookup helpers answer over the loaded copy.
func TestFlightSaveLoadRoundTrip(t *testing.T) {
	client := TraceRecord{TraceID: 7, Spans: []SpanData{{TraceID: 7, SpanID: 1, Name: "client"}}}
	other := TraceRecord{TraceID: 9, Spans: []SpanData{{TraceID: 9, SpanID: 5, Name: "other"}}}
	server := TraceRecord{TraceID: 7, Spans: []SpanData{{TraceID: 7, SpanID: 2, Parent: 1, Name: "server"}}}
	event := LogEvent{Level: "WARN", Msg: "disk slow", Time: time.Unix(100, 0).UTC()}
	rec := NewRecorder(8)
	for _, tr := range []TraceRecord{client, other, server} {
		rec.addTrace(tr.TraceID, tr.Spans)
	}
	rec.AddLogEvent(event)

	path := filepath.Join(t.TempDir(), "flight.json")
	savedAt := time.Unix(500, 0).UTC()
	if err := SaveFlight(path, rec, savedAt); err != nil {
		t.Fatal(err)
	}
	snap, err := LoadFlight(path)
	if err != nil {
		t.Fatal(err)
	}
	if snap == nil {
		t.Fatal("LoadFlight returned nil for an existing file")
	}
	if !snap.SavedAt.Equal(savedAt) || snap.Total != 3 {
		t.Fatalf("header = (%v, %d), want (%v, 3)", snap.SavedAt, snap.Total, savedAt)
	}
	// The records the recorder was given, newest first.
	if want := []TraceRecord{server, other, client}; !reflect.DeepEqual(snap.Traces, want) {
		t.Fatalf("traces differ:\n got %+v\nwant %+v", snap.Traces, want)
	}
	if want := []LogEvent{event}; !reflect.DeepEqual(snap.Events, want) {
		t.Fatalf("events differ:\n got %+v\nwant %+v", snap.Events, want)
	}
	// A distributed trace's records come back merged, oldest first.
	gotMerged, ok := snap.Trace(7)
	if want := []TraceRecord{client, server}; !ok || !reflect.DeepEqual(gotMerged, want) {
		t.Fatalf("snapshot Trace(7): ok=%v got %+v want %+v", ok, gotMerged, want)
	}
	if _, ok := snap.Trace(42); ok {
		t.Fatal("snapshot Trace(42) found a trace that was never recorded")
	}
	if got := snap.TracesLimit(1); len(got) != 1 || got[0].TraceID != 7 {
		t.Fatalf("TracesLimit(1) = %+v, want newest record of trace 7", got)
	}
	if got := snap.EventsLimit(0); len(got) != 1 {
		t.Fatalf("EventsLimit(0) = %+v, want the one event", got)
	}
}

// TestFlightLoadMissingAndCorrupt pins the two failure modes apart: a node
// that never shut down cleanly has no snapshot (nil, nil — not an error),
// while a half-written or damaged file must be reported, never served as if
// it were the real previous run.
func TestFlightLoadMissingAndCorrupt(t *testing.T) {
	dir := t.TempDir()
	snap, err := LoadFlight(filepath.Join(dir, "absent.json"))
	if snap != nil || err != nil {
		t.Fatalf("missing file: snap=%v err=%v, want nil, nil", snap, err)
	}
	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte("{\"saved_at\": tru"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadFlight(bad); err == nil {
		t.Fatal("corrupt snapshot loaded without error")
	}
}

// TestFlightSaveOverwriteKeepsOldOnFailure: SaveFlight stages under a temp
// name, so a save that cannot complete leaves the previous snapshot intact.
func TestFlightSaveOverwriteKeepsOldOnFailure(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "flight.json")
	rec := NewRecorder(4)
	rec.addTrace(1, []SpanData{{TraceID: 1, SpanID: 1, Name: "first"}})
	if err := SaveFlight(path, rec, time.Unix(1, 0)); err != nil {
		t.Fatal(err)
	}
	// Second save: the file is replaced atomically, never truncated in place.
	rec.addTrace(2, []SpanData{{TraceID: 2, SpanID: 2, Name: "second"}})
	if err := SaveFlight(path, rec, time.Unix(2, 0)); err != nil {
		t.Fatal(err)
	}
	snap, err := LoadFlight(path)
	if err != nil || len(snap.Traces) != 2 {
		t.Fatalf("after overwrite: snap=%+v err=%v", snap, err)
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Fatalf("staging file left behind: %v", err)
	}
}
