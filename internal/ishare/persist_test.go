package ishare

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"fgcs/internal/avail"
	"fgcs/internal/durable"
	"fgcs/internal/rng"
	"fgcs/internal/simclock"
	"fgcs/internal/trace"
	"fgcs/internal/wire"
	"fgcs/internal/wire/wiretest"
)

// persistStoreCfg keeps segments small so even short workloads rotate.
func persistStoreCfg(fs durable.FS) durable.Config {
	return durable.Config{FS: fs, SegmentBytes: 1024, KeepSnapshots: 2, Sync: durable.SyncAlways}
}

// newDurableNode builds a host node over an already-opened store.
func newDurableNode(t *testing.T, st *durable.Store, rec *durable.Recovery, clock simclock.Clock, preloaded *trace.Machine) *HostNode {
	t.Helper()
	n, err := NewHostNode(NodeConfig{
		MachineID:       "lab-01",
		Cfg:             avail.DefaultConfig(),
		Period:          period,
		Clock:           clock,
		Preloaded:       preloaded,
		Durable:         st,
		DurableRecovery: rec,
	}, staticSource{})
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// persistSample derives a deterministic sample from the stream: mixed load
// levels with occasional downtime, so the recovered state machine and TR
// kernels are non-trivial.
func persistSample(r *rng.Stream) trace.Sample {
	v := r.Uint64()
	s := trace.Sample{
		CPU:       float64(v%10000) / 100.0,
		FreeMemMB: 100 + float64((v>>16)%4096)/16.0,
		Up:        v%23 != 0,
	}
	if !s.Up {
		s.CPU, s.FreeMemMB = 0, 0
	}
	return s
}

// queryAnswer strips the cache counters (which depend on query order, not
// state) from a QueryTR response.
type queryAnswer struct {
	TR      float64
	Windows int
	State   string
}

func askTR(t *testing.T, n *HostNode, length float64) queryAnswer {
	t.Helper()
	resp, err := n.Gateway.QueryTR(context.Background(), QueryTRReq{LengthSeconds: length, GuestMemMB: 100})
	if err != nil {
		t.Fatal(err)
	}
	return queryAnswer{TR: resp.TR, Windows: resp.HistoryWindows, State: resp.CurrentState}
}

// TestPersisterCleanShutdownZeroReplay is the graceful-shutdown contract: a
// node that flushed (final snapshot + close) restarts with zero WAL records
// to replay and answers QueryTR exactly as before, and a retried submit
// dedups to the pre-restart job ID.
func TestPersisterCleanShutdownZeroReplay(t *testing.T) {
	fs := durable.NewMemFS()
	start := time.Date(2005, 9, 2, 8, 0, 0, 0, time.UTC)
	clock := simclock.NewVirtual(start.Add(time.Hour))
	pre := historyMachine("lab-01", 11, 9)

	st, rec, err := durable.Open(persistStoreCfg(fs))
	if err != nil {
		t.Fatal(err)
	}
	if rec.Snapshot != "" || len(rec.Records) != 0 {
		t.Fatalf("fresh dir recovered %d records", len(rec.Records))
	}
	n := newDurableNode(t, st, rec, clock, pre)
	sub, err := n.Gateway.Submit(context.Background(), SubmitReq{Name: "j", WorkSeconds: 3600, MemMB: 50, IdempotencyKey: "retry-1"})
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(41)
	tt := start
	for i := 0; i < 150; i++ {
		n.Persist.Record(tt, persistSample(r))
		tt = tt.Add(period)
	}
	before := askTR(t, n, 2*3600)
	beforeAcc := n.Obs().Tracker.ExportBinary()
	if err := n.Persist.Flush(); err != nil {
		t.Fatal(err)
	}

	st2, rec2, err := durable.Open(persistStoreCfg(fs))
	if err != nil {
		t.Fatal(err)
	}
	if rec2.Snapshot == "" {
		t.Fatal("no snapshot after clean shutdown")
	}
	if len(rec2.Records) != 0 {
		t.Fatalf("clean shutdown left %d WAL records to replay", len(rec2.Records))
	}
	// Preloaded history is the trace file's job (ishared -preload), not the
	// WAL's: the durable layer persists only the live session on top of it.
	n2 := newDurableNode(t, st2, rec2, clock, pre)
	if after := askTR(t, n2, 2*3600); after != before {
		t.Fatalf("QueryTR after restart = %+v, want %+v", after, before)
	}
	if afterAcc := n2.Obs().Tracker.ExportBinary(); !bytes.Equal(afterAcc, beforeAcc) {
		t.Fatal("accuracy tracker state diverged across clean restart")
	}
	// The retried submit is recognized even though the job object died with
	// the process.
	sub2, err := n2.Gateway.Submit(context.Background(), SubmitReq{Name: "j", WorkSeconds: 3600, MemMB: 50, IdempotencyKey: "retry-1"})
	if err != nil {
		t.Fatal(err)
	}
	if sub2.JobID != sub.JobID {
		t.Fatalf("replayed submit job = %s, want %s", sub2.JobID, sub.JobID)
	}
	// A genuinely new submit must not reuse the old job's ID.
	sub3, err := n2.Gateway.Submit(context.Background(), SubmitReq{Name: "k", WorkSeconds: 60})
	if err != nil {
		t.Fatal(err)
	}
	if sub3.JobID == sub.JobID {
		t.Fatalf("fresh submit reused job ID %s", sub.JobID)
	}
	if err := n2.Persist.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestPersisterRecoveryBitExact: a node recovered from a snapshot, its
// parts and a WAL tail holds the live node's history at Float64bits, sample
// for sample, and the same last-sample time and recent ring. Two days it
// recorded itself are restored from a first snapshot, and a tail that
// crosses midnight is replayed on top; the recovered node then records on,
// across two more midnights and two more snapshots, which publish the days
// as they end and nothing the recovered snapshot already listed, and a
// second recovery holds what it recorded. QueryTR equality alone would not
// see a difference here: the classifier's thresholds are integers.
func TestPersisterRecoveryBitExact(t *testing.T) {
	mem := durable.NewMemFS()
	fs := &partCountFS{FS: mem}
	start := time.Date(2005, 8, 31, 20, 0, 0, 0, time.UTC)
	clock := simclock.NewVirtual(start)
	cfg := durable.Config{FS: fs, Sync: durable.SyncBatch}
	st, rec, err := durable.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	live := newDurableNode(t, st, rec, clock, nil)
	r := rng.New(9)
	tt := start
	snapshot := func(n *HostNode, parts int) {
		t.Helper()
		fs.published = nil
		if err := n.Persist.Snapshot(); err != nil {
			t.Fatal(err)
		}
		if len(fs.published) != parts {
			t.Fatalf("a snapshot published parts %v, want %d", fs.published, parts)
		}
	}
	// recoverAndCompare closes n, recovers a node from the data directory
	// with a tail of the given length and compares the two.
	recoverAndCompare := func(n *HostNode, days int, tail time.Duration) *HostNode {
		t.Helper()
		wantLog, wantLast, wantRecent := n.SM.ExportHistory()
		if err := n.Persist.Close(); err != nil {
			t.Fatal(err)
		}
		st, rec, err := durable.Open(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if rec.Snapshot == "" || len(rec.Records) != int(tail/period) {
			t.Fatalf("recovered snapshot %q and %d records, want a snapshot and a %v tail", rec.Snapshot, len(rec.Records), tail)
		}
		got := newDurableNode(t, st, rec, clock, nil)
		gotLog, gotLast, gotRecent := got.SM.ExportHistory()
		if len(gotLog.Days) != days || len(gotLog.Days) != len(wantLog.Days) || !gotLast.Equal(wantLast) {
			t.Fatalf("recovered %d days to %v, live %d days to %v", len(gotLog.Days), gotLast, len(wantLog.Days), wantLast)
		}
		if d, j := sameHistory(got, wantLog); d >= 0 {
			t.Fatalf("day %v sample %d: recovered %+v, live %+v", wantLog.Days[d].Date, j, gotLog.Days[d].Samples[max(j, 0)], wantLog.Days[d].Samples[max(j, 0)])
		}
		if j := firstBitDifference(gotRecent, wantRecent); j >= 0 {
			t.Fatalf("recent sample %d: recovered %v, live %v", j, gotRecent, wantRecent)
		}
		return got
	}
	record := func(n *HostNode, d time.Duration) { recordSpan(n.Persist, r, &tt, d) }

	record(live, 48*time.Hour)
	snapshot(live, 2) // Aug 31 and Sep 1 ended
	record(live, 6*time.Hour)
	got := recoverAndCompare(live, 4, 6*time.Hour)
	record(got, 24*time.Hour)
	snapshot(got, 2) // Sep 2 and 3 ended; the recovered snapshot listed Aug 31 and Sep 1
	record(got, 24*time.Hour)
	snapshot(got, 1) // Sep 4 ended
	record(got, 5*time.Hour)
	again := recoverAndCompare(got, 6, 5*time.Hour)
	if err := again.Persist.Close(); err != nil {
		t.Fatal(err)
	}
}

// firstBitDifference returns the first index at which two sample runs differ
// in a bit, or -1 when they are the same.
func firstBitDifference(a, b []trace.Sample) int {
	for i := range max(len(a), len(b)) {
		if i >= len(a) || i >= len(b) || a[i].Up != b[i].Up ||
			math.Float64bits(a[i].CPU) != math.Float64bits(b[i].CPU) ||
			math.Float64bits(a[i].FreeMemMB) != math.Float64bits(b[i].FreeMemMB) {
			return i
		}
	}
	return -1
}

// TestPersisterWALReplayOnly restarts from a dirty shutdown (no final
// snapshot): all state comes from WAL replay and must still answer QueryTR
// identically.
func TestPersisterWALReplayOnly(t *testing.T) {
	fs := durable.NewMemFS()
	start := time.Date(2005, 9, 2, 8, 0, 0, 0, time.UTC)
	clock := simclock.NewVirtual(start.Add(time.Hour))
	pre := historyMachine("lab-01", 11, 9)

	st, rec, err := durable.Open(persistStoreCfg(fs))
	if err != nil {
		t.Fatal(err)
	}
	n := newDurableNode(t, st, rec, clock, pre)
	r := rng.New(42)
	tt := start
	for i := 0; i < 120; i++ {
		n.Persist.Record(tt, persistSample(r))
		tt = tt.Add(period)
	}
	before := askTR(t, n, 2*3600)
	// Close without snapshot: everything must come back from the log.
	if err := n.Persist.Close(); err != nil {
		t.Fatal(err)
	}

	st2, rec2, err := durable.Open(persistStoreCfg(fs))
	if err != nil {
		t.Fatal(err)
	}
	if len(rec2.Records) == 0 {
		t.Fatal("dirty shutdown should leave WAL records")
	}
	// The WAL holds quantized samples, but not the preloaded history: that
	// comes from the node's own boot path, exactly as ishared reloads its
	// trace file.
	n2 := newDurableNode(t, st2, rec2, clock, pre)
	if after := askTR(t, n2, 2*3600); after != before {
		t.Fatalf("QueryTR after WAL replay = %+v, want %+v", after, before)
	}
	if err := n2.Persist.Close(); err != nil {
		t.Fatal(err)
	}
}

// persistCrashWorkload drives a node over the given FS, recording every
// applied (already quantized) sample. Append failures after the injected
// crash are ignored, exactly as a real node keeps serving when its disk
// dies.
func persistCrashWorkload(t *testing.T, fs durable.FS, seed uint64, pre *trace.Machine, start time.Time, clock simclock.Clock, nSamples int) []trace.Sample {
	t.Helper()
	st, rec, err := durable.Open(persistStoreCfg(fs))
	if err != nil {
		t.Fatal(err)
	}
	n := newDurableNode(t, st, rec, clock, pre)
	r := rng.New(seed)
	applied := make([]trace.Sample, 0, nSamples)
	tt := start
	for i := 0; i < nSamples; i++ {
		s := durable.QuantizeSample(persistSample(r))
		applied = append(applied, s)
		n.Persist.Record(tt, s)
		tt = tt.Add(period)
		if (i+1)%40 == 0 {
			_ = n.Persist.Snapshot() // fails after the crash point; ignored
		}
	}
	_ = n.Persist.Close()
	return applied
}

// TestPersisterCrashQueryTREquality is the node-level kill-anywhere
// property: for seeded crash offsets, a node restarted from the surviving
// bytes answers QueryTR exactly like a fresh node fed the recovered prefix
// of samples. The recovered prefix length is derived from the last replayed
// sample's timestamp.
func TestPersisterCrashQueryTREquality(t *testing.T) {
	const nSamples = 160
	const seed = 7
	start := time.Date(2005, 9, 2, 8, 0, 0, 0, time.UTC)
	qnow := start.Add(nSamples * period)
	pre := historyMachine("lab-01", 11, 9)

	// Probe run: measure the total bytes a crash-free workload writes.
	probe := durable.NewCrashFS(durable.NewMemFS(), -1)
	persistCrashWorkload(t, probe, seed, pre, start, simclock.NewVirtual(qnow), nSamples)
	total := probe.BytesWritten()
	if total == 0 {
		t.Fatal("probe run wrote nothing")
	}

	kills := rng.New(seed).Split("node-killpoints")
	for k := 0; k < 14; k++ {
		killAt := int64(kills.Uint64() % uint64(total))
		mem := durable.NewMemFS()
		crash := durable.NewCrashFS(mem, killAt)
		applied := persistCrashWorkload(t, crash, seed, pre, start, simclock.NewVirtual(qnow), nSamples)
		if !crash.Crashed() {
			t.Fatalf("killAt=%d: workload never hit the crash point", killAt)
		}

		// Restart from the surviving bytes.
		st, rec, err := durable.Open(persistStoreCfg(mem))
		if err != nil {
			t.Fatalf("killAt=%d: recovery refused: %v", killAt, err)
		}
		n := newDurableNode(t, st, rec, simclock.NewVirtual(qnow), pre)

		// How many samples made it to stable storage? The last recovered
		// sample's timestamp pins the prefix length exactly.
		_, last, _ := n.SM.ExportHistory()
		prefix := 0
		if !last.IsZero() && !last.Before(start) {
			prefix = int(last.Sub(start)/period) + 1
		}
		if prefix > len(applied) {
			t.Fatalf("killAt=%d: recovered %d samples, only %d were applied", killAt, prefix, len(applied))
		}

		// Oracle: a store-less node fed the recovered prefix directly.
		oracle := testNode(t, simclock.NewVirtual(qnow), pre.Clone())
		tt := start
		for _, s := range applied[:prefix] {
			oracle.Gateway.Record(durable.QuantizeTime(tt), s)
			tt = tt.Add(period)
		}
		for _, length := range []float64{1800, 2 * 3600} {
			got := askTR(t, n, length)
			want := askTR(t, oracle, length)
			if got != want {
				t.Fatalf("killAt=%d prefix=%d length=%v: QueryTR = %+v, oracle %+v",
					killAt, prefix, length, got, want)
			}
		}
		if err := n.Persist.Close(); err != nil {
			t.Fatalf("killAt=%d: close after recovery: %v", killAt, err)
		}
	}
}

// TestPersisterCrashMultiChunkSnapshot kills a node snapshot inside the part
// it publishes for the day that just ended and inside its three-piece
// snapshot file: at every write boundary (a file's header|payload, between
// payload pieces, payload|trailer) and one byte either side, at the part's
// last byte, between it and the snapshot file (the part published, the
// snapshot not begun), at the snapshot file's last byte (the part
// published, the snapshot never renamed into place) and at seeded offsets
// in both. Every
// kill leaves the previous snapshot, its parts and the WAL, and a node
// recovered from them replays every sample, answers QueryTR as the live
// node did and holds the history a node recovered from the uncut run does
// (the float32 day's, not the live node's float64 samples). (A power loss keeps the same files
// here, less the tmp file recovery removes anyway: the store syncs every
// append and every file it publishes, and the torn tmp file was never
// linked.)
func TestPersisterCrashMultiChunkSnapshot(t *testing.T) {
	// The last day of the history is off the WAL's precision, so its part
	// is 9-byte float32 records: ≈ 130 KB.
	const samples, days = 30, 4
	hist := historyMachine("lab-01", days, 9)
	for i := range hist.Days[days-1].Samples {
		hist.Days[days-1].Samples[i].CPU += 0.001
	}
	today := monday.AddDate(0, 0, days)
	start := today.Add(8 * time.Hour)
	clock := simclock.NewVirtual(start.Add(samples * period))
	// run publishes a node's history in a first snapshot, records samples
	// into the WAL, the first of a new day, and takes a second snapshot,
	// which it returns the error of, with the bytes fs had taken before it.
	run := func(fs interface {
		durable.FS
		BytesWritten() int64
	}) (*HostNode, int64, error) {
		st, rec, err := durable.Open(persistStoreCfg(fs))
		if err != nil {
			t.Fatal(err)
		}
		n := newDurableNode(t, st, rec, clock, nil)
		if err := n.SM.RestoreHistory(hist.Clone(), today.Add(-period), nil); err != nil {
			t.Fatal(err)
		}
		if err := n.Persist.Snapshot(); err != nil {
			t.Fatal(err)
		}
		r := rng.New(3)
		for i, at := 0, start; i < samples; i, at = i+1, at.Add(period) {
			n.Persist.Record(at, persistSample(r))
		}
		before := fs.BytesWritten()
		return n, before, n.Persist.Snapshot()
	}
	mem := durable.NewMemFS()
	probe := &writeEdgeFS{CrashFS: durable.NewCrashFS(mem, -1)}
	live, before, err := run(probe)
	if err != nil {
		t.Fatal(err)
	}
	size := probe.BytesWritten() - before
	part := mem.Size(dayPartName(today.AddDate(0, 0, -1)))
	var edges []int64 // where each write of the second snapshot starts
	for _, e := range probe.edges {
		if e >= before {
			edges = append(edges, e-before)
		}
	}
	if len(edges) != 8 || edges[3] != part {
		t.Fatalf("the second snapshot's writes start at %v of its %d bytes, want the %d-byte part's three (header, bytes, trailer), then the snapshot file's five (header, three payload pieces, trailer)", edges, size, part)
	}
	want := []queryAnswer{askTR(t, live, 1800), askTR(t, live, 2*3600)}
	if err := live.Persist.Close(); err != nil {
		t.Fatal(err)
	}
	st, rec, err := durable.Open(persistStoreCfg(mem))
	if err != nil {
		t.Fatal(err)
	}
	uncut := newDurableNode(t, st, rec, clock, nil)
	wantLog, _, _ := uncut.SM.ExportHistory()
	if err := uncut.Persist.Close(); err != nil {
		t.Fatal(err)
	}

	kills := []int64{part - 1, part, part + 1, size - 1}
	for _, edge := range edges {
		kills = append(kills, max(edge-1, 0), edge, edge+1)
	}
	r := rng.New(7).Split("snapshot-killpoints")
	for i := 0; i < 3; i++ {
		kills = append(kills, int64(r.Uint64()%uint64(part)), part+int64(r.Uint64()%uint64(size-part)))
	}
	for _, kill := range kills {
		mem := durable.NewMemFS()
		if _, _, err := run(durable.NewCrashFS(mem, before+kill)); !errors.Is(err, durable.ErrCrashed) {
			t.Fatalf("kill at snapshot byte %d: snapshot returned %v", kill, err)
		}
		st, rec, err := durable.Open(persistStoreCfg(mem))
		if err != nil {
			t.Fatalf("kill at snapshot byte %d: recovery refused: %v", kill, err)
		}
		replayed := 0
		for _, r := range rec.Records {
			if r.Type == durable.RecSample {
				replayed++
			}
		}
		n := newDurableNode(t, st, rec, clock, nil)
		if got := []queryAnswer{askTR(t, n, 1800), askTR(t, n, 2*3600)}; rec.Snapshot == "" || replayed != samples || got[0] != want[0] || got[1] != want[1] {
			t.Fatalf("kill at snapshot byte %d: replayed %d samples over the first snapshot (%v), answers %+v, live %+v",
				kill, replayed, rec.Snapshot != "", got, want)
		}
		if d, j := sameHistory(n, wantLog); d >= 0 {
			t.Fatalf("kill at snapshot byte %d: recovered day %d differs from the live node's at sample %d", kill, d, j)
		}
		if err := n.Persist.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// writeEdgeFS records, for every write to a .tmp file, how many bytes its
// CrashFS had taken before it: the write boundaries of the files a
// snapshot publishes.
type writeEdgeFS struct {
	*durable.CrashFS
	edges []int64
}

type writeEdgeFile struct {
	durable.File
	fs *writeEdgeFS
}

func (fs *writeEdgeFS) Append(name string) (durable.File, error) {
	f, err := fs.CrashFS.Append(name)
	if err != nil || filepath.Ext(name) != ".tmp" {
		return f, err
	}
	return writeEdgeFile{File: f, fs: fs}, nil
}

func (f writeEdgeFile) Write(p []byte) (int, error) {
	f.fs.edges = append(f.fs.edges, f.fs.BytesWritten())
	return f.File.Write(p)
}

// sameHistory compares n's history with want at Float64bits and returns
// the first day and sample that differ, or -1 for both; a missing day
// differs at sample -1.
func sameHistory(n *HostNode, want *trace.Machine) (day, sample int) {
	got, _, _ := n.SM.ExportHistory()
	for i := range max(len(got.Days), len(want.Days)) {
		if i >= len(got.Days) || i >= len(want.Days) || !got.Days[i].Date.Equal(want.Days[i].Date) {
			return i, -1
		}
		if j := firstBitDifference(got.Days[i].Samples, want.Days[i].Samples); j >= 0 {
			return i, j
		}
	}
	return -1, -1
}

// raceRegState wraps a RegState so a test can run code at the worst possible
// moment: after a snapshot exported the entry set but before it is written.
type raceRegState struct {
	RegState
	onExport func()
}

func (r *raceRegState) Export() []RegEntry {
	e := r.RegState.Export()
	if r.onExport != nil {
		r.onExport()
	}
	return e
}

// TestRegPersisterSnapshotExportRace is the deterministic regression test
// for the lost-update race between state export and WAL position capture:
// the registry sink appends its record after releasing the registry lock,
// so a registration landing between the snapshot's export and its write
// used to append before the recorded store position — exported state
// without the entry, WAL offset past its record — and the acknowledged
// registration silently vanished on recovery. The position must be captured
// before the export, making the in-flight record part of the replayed tail.
func TestRegPersisterSnapshotExportRace(t *testing.T) {
	fs := durable.NewMemFS()
	clock := simclock.NewVirtual(monday)
	st, rec, err := durable.Open(persistStoreCfg(fs))
	if err != nil {
		t.Fatal(err)
	}
	reg := ringOfOne(t, FedConfig{Clock: clock})
	wrapped := &raceRegState{RegState: reg}
	rp, err := NewRegPersister(st, rec, wrapped, nil)
	if err != nil {
		t.Fatal(err)
	}
	regTTL(t, reg, "m-pre", "a:1", 0)
	// The interleaving under test: the registration (mutation + WAL append)
	// completes between the snapshot's Export and its WriteSnapshot call.
	wrapped.onExport = func() {
		wrapped.onExport = nil
		regTTL(t, reg, "m-inflight", "b:2", 0)
	}
	if err := rp.writeSnapshot(); err != nil {
		t.Fatal(err)
	}
	if err := rp.Close(); err != nil {
		t.Fatal(err)
	}

	st2, rec2, err := durable.Open(persistStoreCfg(fs))
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	reg2 := ringOfOne(t, FedConfig{Clock: clock})
	rp2, err := NewRegPersister(st2, rec2, reg2, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer rp2.Close()
	got := make(map[string]bool)
	for _, e := range reg2.Export() {
		got[e.Machine] = true
	}
	if !got["m-pre"] || !got["m-inflight"] {
		t.Fatalf("acknowledged registration lost across restart: %v", got)
	}
}

// TestRegPersisterSnapshotChurn hammers concurrent registrations against a
// snapshot loop and requires every acknowledged registration to survive a
// restart — the probabilistic companion to the deterministic export-race
// test above, covering interleavings the wrapper cannot stage.
func TestRegPersisterSnapshotChurn(t *testing.T) {
	fs := durable.NewMemFS()
	clock := simclock.NewVirtual(monday)
	st, rec, err := durable.Open(persistStoreCfg(fs))
	if err != nil {
		t.Fatal(err)
	}
	reg := ringOfOne(t, FedConfig{Clock: clock})
	rp, err := NewRegPersister(st, rec, reg, nil)
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := rp.writeSnapshot(); err != nil {
				t.Errorf("snapshot during churn: %v", err)
				return
			}
		}
	}()
	const n = 300
	for i := 0; i < n; i++ {
		regTTL(t, reg, fmt.Sprintf("m-%03d", i), fmt.Sprintf("10.0.0.%d:7", i%250), 0)
	}
	close(stop)
	wg.Wait()
	if err := rp.Close(); err != nil {
		t.Fatal(err)
	}

	st2, rec2, err := durable.Open(persistStoreCfg(fs))
	if err != nil {
		t.Fatalf("recovery after churn: %v", err)
	}
	reg2 := ringOfOne(t, FedConfig{Clock: clock})
	rp2, err := NewRegPersister(st2, rec2, reg2, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer rp2.Close()
	got := make(map[string]bool)
	for _, e := range reg2.Export() {
		got[e.Machine] = true
	}
	for i := 0; i < n; i++ {
		if m := fmt.Sprintf("m-%03d", i); !got[m] {
			t.Fatalf("acknowledged registration %s lost across restart", m)
		}
	}
}

// TestRegPersisterRoundTrip covers the registry durability path: snapshot +
// WAL replay reconstruct the entry set, absolute expiries survive, a logged
// unregister (a record only older binaries wrote) stays gone, and an entry
// evicted on expiry is not persisted again.
func TestRegPersisterRoundTrip(t *testing.T) {
	fs := durable.NewMemFS()
	clock := simclock.NewVirtual(monday)
	st, rec, err := durable.Open(persistStoreCfg(fs))
	if err != nil {
		t.Fatal(err)
	}
	reg := ringOfOne(t, FedConfig{Clock: clock})
	rp, err := NewRegPersister(st, rec, reg, nil)
	if err != nil {
		t.Fatal(err)
	}
	regTTL(t, reg, "m-a", "a:1", 0)
	regTTL(t, reg, "m-b", "b:2", time.Hour)
	if err := rp.writeSnapshot(); err != nil {
		t.Fatal(err)
	}
	// Post-snapshot churn lands in the WAL tail.
	regTTL(t, reg, "m-c", "c:3", 0)
	if err := st.Append(durable.RecUnregister, wire.AppendString(nil, "m-a")); err != nil {
		t.Fatal(err)
	}
	reg.RestoreRemove("m-a")
	want := reg.Export()
	if err := rp.Close(); err != nil {
		t.Fatal(err)
	}

	st2, rec2, err := durable.Open(persistStoreCfg(fs))
	if err != nil {
		t.Fatal(err)
	}
	if rec2.Snapshot == "" || len(rec2.Records) == 0 {
		t.Fatalf("recovery shape: snapshot=%v records=%d", rec2.Snapshot != "", len(rec2.Records))
	}
	reg2 := ringOfOne(t, FedConfig{Clock: clock})
	rp2, err := NewRegPersister(st2, rec2, reg2, nil)
	if err != nil {
		t.Fatal(err)
	}
	got := reg2.Export()
	if len(got) != len(want) {
		t.Fatalf("restored %d entries, want %d: %+v", len(got), len(want), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("entry %d = %+v, want %+v", i, got[i], want[i])
		}
	}
	// The TTL deadline is absolute: advancing past it expires the restored
	// entry without any re-registration.
	clock.Advance(2 * time.Hour)
	if res := reg2.localResources(); len(res) != 1 || res[0].MachineID != "m-c" {
		t.Fatalf("live entries after the restored TTL ran out = %+v, want m-c only", res)
	}
	if err := rp2.Flush(); err != nil {
		t.Fatal(err)
	}

	// Third generation boots from the Flush snapshot alone, which no longer
	// carries the entry that discovery evicted.
	st3, rec3, err := durable.Open(persistStoreCfg(fs))
	if err != nil {
		t.Fatal(err)
	}
	if len(rec3.Records) != 0 {
		t.Fatalf("clean registry shutdown left %d WAL records", len(rec3.Records))
	}
	reg3 := ringOfOne(t, FedConfig{Clock: clock})
	if _, err := NewRegPersister(st3, rec3, reg3, nil); err != nil {
		t.Fatal(err)
	}
	if got := reg3.Export(); len(got) != 1 || got[0].Machine != "m-c" {
		t.Fatalf("third generation entries = %+v, want m-c only", got)
	}
}

// TestPersisterParentFormatDataDir recovers a node data directory whose
// snapshot the parent format wrote: an FGNS payload whose history is
// FGCSTRC1, untagged float32 days. The node comes back with the same days
// and answers QueryTR as the node that wrote them, and its next snapshot is
// FGCSTRC2.
func TestPersisterParentFormatDataDir(t *testing.T) {
	src := bareDurableNode(t)
	hist := historyMachine("lab-01", 4, 9)
	if err := src.SM.RestoreHistory(hist, codecStart.Add(-period), nil); err != nil {
		t.Fatal(err)
	}
	v2, err := encodeNodeSnapshot(t, src.Persist)
	if err != nil {
		t.Fatal(err)
	}
	// The payload with its history re-encoded as FGCSTRC1 wrote it.
	r := wire.NewReader(v2, "FGNS")
	r.Header(nodeSnapMagic, nodeSnapVersion)
	head := wire.AppendBytes(wire.AppendHeader(nil, nodeSnapMagic, nodeSnapVersion), r.Bytes())
	if r.Err() != nil {
		t.Fatal(r.Err())
	}
	payload := wire.AppendBytes(wire.AppendHeader(nil, nodeSnapMagic, nodeSnapVersion), fgcstrc1(hist))
	payload = append(payload, v2[len(head):]...)

	fs := durable.NewMemFS()
	st, _, err := durable.Open(persistStoreCfg(fs))
	if err != nil {
		t.Fatal(err)
	}
	seq, off := st.Position()
	if err := st.WriteSnapshotAt(seq, off, [][]byte{payload}); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st, rec, err := durable.Open(persistStoreCfg(fs))
	if err != nil {
		t.Fatal(err)
	}
	n := newDurableNode(t, st, rec, simclock.NewVirtual(codecStart.Add(time.Hour)), nil)
	defer n.Persist.Close()
	got, _, _ := n.SM.ExportHistory()
	if len(got.Days) != len(hist.Days) {
		t.Fatalf("recovered %d days, wrote %d", len(got.Days), len(hist.Days))
	}
	for i, d := range hist.Days {
		if j := firstBitDifference(got.Days[i].Samples, d.Samples); j >= 0 || !got.Days[i].Date.Equal(d.Date) {
			t.Fatalf("day %v differs at sample %d", d.Date, j)
		}
	}
	if a, b := askTR(t, n, 2*3600), askTR(t, src, 2*3600); a != b {
		t.Fatalf("QueryTR after recovery %+v, the node that wrote it %+v", a, b)
	}
	again, err := encodeNodeSnapshot(t, n.Persist)
	if err != nil || !bytes.Equal(again, v2) {
		t.Fatalf("the recovered node's snapshot differs from the FGCSTRC2 one (%v)", err)
	}
}

// fgcstrc1 encodes one machine's log as the parent format did: FGCSTRC1,
// each day's samples in 9-byte float32 records.
func fgcstrc1(m *trace.Machine) []byte {
	le := binary.LittleEndian
	b := le.AppendUint32([]byte("FGCSTRC1"), 1)
	b = le.AppendUint16(b, uint16(len(m.ID)))
	b = le.AppendUint64(append(b, m.ID...), uint64(m.Period))
	b = le.AppendUint32(b, uint32(len(m.Days)))
	for _, d := range m.Days {
		b = le.AppendUint32(le.AppendUint64(b, uint64(d.Date.Unix())), uint32(len(d.Samples)))
		for _, s := range d.Samples {
			b = le.AppendUint32(b, math.Float32bits(float32(s.CPU)))
			b = le.AppendUint32(b, math.Float32bits(float32(s.FreeMemMB)))
			up := byte(0)
			if s.Up {
				up = 1
			}
			b = append(b, up)
		}
	}
	return b
}

// TestRegPersisterParentFormatDataDir recovers a data directory shaped like
// the ones the standalone registry wrote before it became a ring of one: the
// FGRS golden as snapshot, then a register and an unregister record.
func TestRegPersisterParentFormatDataDir(t *testing.T) {
	snap := wiretest.Hex(t, "testdata/golden/fgrs.hex")
	fs := durable.NewMemFS()
	st, _, err := durable.Open(persistStoreCfg(fs))
	if err != nil {
		t.Fatal(err)
	}
	seq, off := st.Position()
	if err := st.WriteSnapshotAt(seq, off, [][]byte{snap}); err != nil {
		t.Fatal(err)
	}
	if err := st.Append(durable.RecRegister, durable.EncodeRegister(nil, "lab-03", "10.0.0.3:7171", 0)); err != nil {
		t.Fatal(err)
	}
	if err := st.Append(durable.RecUnregister, wire.AppendString(nil, "lab-02")); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2, rec, err := durable.Open(persistStoreCfg(fs))
	if err != nil {
		t.Fatal(err)
	}
	reg := ringOfOne(t, FedConfig{Clock: simclock.NewVirtual(codecStart)})
	rp, err := NewRegPersister(st2, rec, reg, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer rp.Close()
	want := []RegEntry{
		{Machine: "lab-01", Addr: "10.0.0.1:7171", Expires: codecStart.Add(90 * time.Second)},
		{Machine: "lab-03", Addr: "10.0.0.3:7171"},
	}
	got := reg.Export()
	if len(got) != len(want) {
		t.Fatalf("recovered %+v, want %+v", got, want)
	}
	for i := range want {
		if !got[i].Expires.Equal(want[i].Expires) || got[i].Machine != want[i].Machine || got[i].Addr != want[i].Addr {
			t.Fatalf("entry %d = %+v, want %+v", i, got[i], want[i])
		}
	}
	if res := reg.localResources(); len(res) != 2 {
		t.Fatalf("discover after recovery = %+v", res)
	}
}
