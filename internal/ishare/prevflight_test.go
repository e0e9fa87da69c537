package ishare

import (
	"context"
	"strings"
	"testing"
	"time"

	"fgcs/internal/avail"
	"fgcs/internal/otrace"
)

// TestQueryTracesPrevious pins the -previous serving path: a gateway with a
// loaded flight snapshot answers Previous queries from the snapshot (not the
// live recorder), honors per-trace lookup, and a node with nothing loaded
// explains why rather than silently returning the current flight.
func TestQueryTracesPrevious(t *testing.T) {
	start := time.Date(2005, 9, 2, 8, 30, 0, 0, time.UTC)
	clock := &stepClock{now: start}
	sm, err := NewStateManager("m1", period, avail.DefaultConfig(), clock, historyMachine("m1", 11, -1), 0)
	if err != nil {
		t.Fatal(err)
	}
	gw, err := NewGateway("m1", avail.DefaultConfig(), period, clock, sm)
	if err != nil {
		t.Fatal(err)
	}

	// First run: nothing was ever persisted.
	if _, err := gw.queryTraces(context.Background(), QueryTracesReq{Previous: true}); err == nil {
		t.Fatal("Previous with no loaded snapshot: want error")
	} else if !strings.Contains(err.Error(), "no previous flight snapshot") {
		t.Fatalf("unhelpful error: %v", err)
	}

	// Simulate a restart: the previous process's recorder was snapshotted on
	// shutdown and loaded at boot.
	prev := otrace.NewRecorder(8)
	tr := otrace.New(otrace.Config{SampleRate: 1, Seed: 3, Recorder: prev})
	_, span := tr.Start(context.Background(), "old-run.op")
	span.End()
	snap := prev.Snapshot(start)
	sm.obsv.SetPrevFlight(snap)

	resp, err := gw.queryTraces(context.Background(), QueryTracesReq{Previous: true, Limit: 10})
	if err != nil {
		t.Fatal(err)
	}
	if resp.MachineID != "m1" || len(resp.Traces) != 1 || resp.Traces[0].Spans[0].Name != "old-run.op" {
		t.Fatalf("Previous served wrong content: %+v", resp)
	}
	// The live recorder is empty — Previous must not fall through to it, and
	// a live query must not see the old run.
	live, err := gw.queryTraces(context.Background(), QueryTracesReq{Limit: 10})
	if err != nil {
		t.Fatal(err)
	}
	if len(live.Traces) != 0 {
		t.Fatalf("live query leaked previous-run traces: %+v", live.Traces)
	}

	// Per-trace lookup against the snapshot, and a miss stays a miss.
	id := snap.Traces[0].TraceID.String()
	one, err := gw.queryTraces(context.Background(), QueryTracesReq{Previous: true, TraceID: id})
	if err != nil || len(one.Traces) != 1 {
		t.Fatalf("Previous by id: resp=%+v err=%v", one, err)
	}
	if _, err := gw.queryTraces(context.Background(), QueryTracesReq{Previous: true, TraceID: "00000000000000ff"}); err == nil {
		t.Fatal("unknown trace id in previous flight: want error")
	}
}
