package durable

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"testing"
	"time"

	"fgcs/internal/trace"
	"fgcs/internal/wire"
)

// snapshotNow publishes payload as a snapshot of all state up to the current
// WAL position — exact here because the tests append from one goroutine.
func snapshotNow(st *Store, payload []byte) error {
	seq, off := st.Position()
	return snapshotAt(st, seq, off, payload)
}

// snapshotAt publishes payload at (seq, off).
func snapshotAt(st *Store, seq uint64, off int64, payload []byte) error {
	return st.WriteSnapshotAt(seq, off, [][]byte{payload})
}

// reopen closes nothing (the store may be dead) and opens a fresh store over
// the same FS.
func reopen(t *testing.T, fs FS, cfg Config) (*Store, *Recovery) {
	t.Helper()
	cfg.FS = fs
	st, rec, err := Open(cfg)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return st, rec
}

// snapshotPayload returns the payload of the snapshot rec chose, streamed by
// Recovery.ReadSnapshot (nil when Open chose none). The snapshot lists no
// parts.
func snapshotPayload(t testing.TB, rec *Recovery) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := rec.ReadSnapshot(func(p io.Reader) error { _, err := buf.ReadFrom(p); return err }, nil); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestStoreRoundTrip(t *testing.T) {
	fs := NewMemFS()
	st, rec := reopen(t, fs, Config{})
	if rec.Snapshot != "" || len(rec.Records) != 0 {
		t.Fatalf("fresh dir recovered state: %+v", rec)
	}
	var want []Record
	for i := 0; i < 100; i++ {
		payload := []byte(fmt.Sprintf("record-%03d", i))
		if err := st.Append(RecRegister, payload); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
		want = append(want, Record{Type: RecRegister, Payload: payload})
	}
	if err := st.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	st2, rec2 := reopen(t, fs, Config{})
	defer st2.Close()
	if rec2.TornBytes != 0 {
		t.Fatalf("clean close reported torn bytes: %d", rec2.TornBytes)
	}
	if len(rec2.Records) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(rec2.Records), len(want))
	}
	for i, r := range rec2.Records {
		if r.Type != want[i].Type || !bytes.Equal(r.Payload, want[i].Payload) {
			t.Fatalf("record %d mismatch: %+v", i, r)
		}
	}
}

func TestStoreRotationAndSealedSegments(t *testing.T) {
	fs := NewMemFS()
	// Tiny segments force many rotations.
	cfg := Config{SegmentBytes: 256}
	st, _ := reopen(t, fs, cfg)
	n := 200
	for i := 0; i < n; i++ {
		if err := st.Append(RecSample, []byte(fmt.Sprintf("s-%04d", i))); err != nil {
			t.Fatalf("append: %v", err)
		}
	}
	seq, _ := st.Position()
	if seq < 5 {
		t.Fatalf("expected several rotations, at segment %d", seq)
	}
	if err := st.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	st2, rec := reopen(t, fs, cfg)
	defer st2.Close()
	if len(rec.Records) != n {
		t.Fatalf("replayed %d records across %d segments, want %d", len(rec.Records), rec.Segments, n)
	}
	if rec.Segments != int(seq)+1 {
		t.Fatalf("scanned %d segments, want %d", rec.Segments, seq+1)
	}
}

func TestSnapshotCoversTailAndPrunes(t *testing.T) {
	fs := NewMemFS()
	cfg := Config{SegmentBytes: 256, KeepSnapshots: 1}
	st, _ := reopen(t, fs, cfg)
	for i := 0; i < 50; i++ {
		if err := st.Append(RecSample, []byte(fmt.Sprintf("pre-%04d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := snapshotNow(st, []byte("state-at-50")); err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	for i := 0; i < 7; i++ {
		if err := st.Append(RecSample, []byte(fmt.Sprintf("post-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st2, rec := reopen(t, fs, cfg)
	defer st2.Close()
	if string(snapshotPayload(t, rec)) != "state-at-50" {
		t.Fatalf("snapshot payload %q", snapshotPayload(t, rec))
	}
	if len(rec.Records) != 7 {
		t.Fatalf("replayed %d records after snapshot, want 7", len(rec.Records))
	}
	if string(rec.Records[0].Payload) != "post-0" {
		t.Fatalf("first replayed record %q", rec.Records[0].Payload)
	}
	// Pruning removed the pre-snapshot segments.
	names, _ := fs.List()
	segs := 0
	for _, n := range names {
		if seq, ok := parseSegmentName(n); ok {
			segs++
			if seq < rec.SnapshotSeq {
				t.Fatalf("segment %d below snapshot seq %d survived pruning", seq, rec.SnapshotSeq)
			}
		}
	}
	if segs == 0 {
		t.Fatal("no segments left at all")
	}
}

func TestSnapshotFallbackOnCorruptNewest(t *testing.T) {
	fs := NewMemFS()
	cfg := Config{KeepSnapshots: 2}
	st, _ := reopen(t, fs, cfg)
	if err := st.Append(RecSample, []byte("a")); err != nil {
		t.Fatal(err)
	}
	if err := snapshotNow(st, []byte("old")); err != nil {
		t.Fatal(err)
	}
	if err := st.Append(RecSample, []byte("b")); err != nil {
		t.Fatal(err)
	}
	if err := snapshotNow(st, []byte("new")); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	// Flip a bit in the newest snapshot.
	names, _ := fs.List()
	for i := len(names) - 1; i >= 0; i-- {
		if _, _, ok := parseSnapshotName(names[i]); ok {
			if !fs.Corrupt(names[i], int(fs.Size(names[i]))/2, 0x40) {
				t.Fatal("corrupt failed")
			}
			break
		}
	}
	st2, rec := reopen(t, fs, cfg)
	defer st2.Close()
	if string(snapshotPayload(t, rec)) != "old" {
		t.Fatalf("fallback snapshot payload %q, want old", snapshotPayload(t, rec))
	}
	if rec.SnapshotsSkipped != 1 {
		t.Fatalf("SnapshotsSkipped = %d", rec.SnapshotsSkipped)
	}
	// Replay after the old snapshot must include record "b".
	if len(rec.Records) != 1 || string(rec.Records[0].Payload) != "b" {
		t.Fatalf("replayed %v", rec.Records)
	}
}

// TestWriteSnapshotAtReplaysTailFromPosition pins the WriteSnapshotAt
// contract that closes the export/append race: a record appended between
// the position capture and the snapshot write is replayed on recovery,
// never hidden behind the snapshot offset.
func TestWriteSnapshotAtReplaysTailFromPosition(t *testing.T) {
	fs := NewMemFS()
	st, _ := reopen(t, fs, Config{})
	if err := st.Append(RecRegister, []byte("covered")); err != nil {
		t.Fatal(err)
	}
	seq, off := st.Position()
	// The interleaving the submit/register sinks produce: the component
	// mutated and logged after the snapshot captured its position.
	if err := st.Append(RecRegister, []byte("in-flight")); err != nil {
		t.Fatal(err)
	}
	if err := snapshotAt(st, seq, off, []byte("state")); err != nil {
		t.Fatalf("WriteSnapshotAt: %v", err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st2, rec := reopen(t, fs, Config{})
	defer st2.Close()
	if string(snapshotPayload(t, rec)) != "state" {
		t.Fatalf("snapshot payload %q", snapshotPayload(t, rec))
	}
	if len(rec.Records) != 1 || string(rec.Records[0].Payload) != "in-flight" {
		t.Fatalf("replayed %v, want just the in-flight record", rec.Records)
	}
	// A position ahead of the WAL is rejected outright.
	if err := snapshotAt(st2, seq+1, 0, []byte("x")); err == nil {
		t.Fatal("snapshot position ahead of the WAL accepted")
	}
}

// TestAllSnapshotsCorruptRefuses pins the refusal policy: when every
// retained snapshot fails validation and pruning already removed the
// history only they covered, Open must refuse rather than silently serve
// the surviving segment suffix as full state. Config.BestEffort is the
// explicit operator salvage override.
func TestAllSnapshotsCorruptRefuses(t *testing.T) {
	fs := NewMemFS()
	cfg := Config{SegmentBytes: 128, KeepSnapshots: 1}
	st, _ := reopen(t, fs, cfg)
	for i := 0; i < 40; i++ {
		if err := st.Append(RecSample, []byte(fmt.Sprintf("rec-%02d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := snapshotNow(st, []byte("full-state")); err != nil {
		t.Fatal(err)
	}
	if seq, _ := st.Position(); seq == 0 {
		t.Fatal("no rotation: the test needs pruned history")
	}
	_ = st.Close()
	if _, err := readAll(fs, segmentName(0)); err == nil {
		t.Fatal("segment 0 survived pruning; the WAL still covers full history")
	}
	names, _ := fs.List()
	nsnaps := 0
	for _, name := range names {
		if _, _, ok := parseSnapshotName(name); ok {
			if !fs.Corrupt(name, int(fs.Size(name))/2, 0x20) {
				t.Fatal("corrupt failed")
			}
			nsnaps++
		}
	}
	if nsnaps == 0 {
		t.Fatal("no snapshots on disk")
	}
	if _, _, err := Open(Config{FS: fs, SegmentBytes: 128, KeepSnapshots: 1}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Open with every snapshot corrupt: %v, want ErrCorrupt", err)
	}
	st2, rec, err := Open(Config{FS: fs, SegmentBytes: 128, KeepSnapshots: 1, BestEffort: true})
	if err != nil {
		t.Fatalf("best-effort open: %v", err)
	}
	defer st2.Close()
	if rec.Snapshot != "" || rec.SnapshotsSkipped != nsnaps || len(rec.Records) == 0 {
		t.Fatalf("salvage shape: snapshot=%v skipped=%d records=%d",
			rec.Snapshot != "", rec.SnapshotsSkipped, len(rec.Records))
	}
}

// TestAllSnapshotsCorruptFullWALProceeds: when the WAL still reaches back
// to segment 0, losing every snapshot costs nothing — replay from genesis
// rebuilds complete state — so Open proceeds without any override.
func TestAllSnapshotsCorruptFullWALProceeds(t *testing.T) {
	fs := NewMemFS()
	st, _ := reopen(t, fs, Config{})
	for i := 0; i < 10; i++ {
		if err := st.Append(RecSample, []byte(fmt.Sprintf("rec-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := snapshotNow(st, []byte("state")); err != nil {
		t.Fatal(err)
	}
	_ = st.Close()
	names, _ := fs.List()
	for _, name := range names {
		if _, _, ok := parseSnapshotName(name); ok {
			if !fs.Corrupt(name, int(fs.Size(name))/2, 0x04) {
				t.Fatal("corrupt failed")
			}
		}
	}
	st2, rec := reopen(t, fs, Config{})
	defer st2.Close()
	if rec.Snapshot != "" || rec.SnapshotsSkipped != 1 {
		t.Fatalf("recovery shape: snapshot=%v skipped=%d", rec.Snapshot != "", rec.SnapshotsSkipped)
	}
	if len(rec.Records) != 10 {
		t.Fatalf("replayed %d records from genesis, want 10", len(rec.Records))
	}
}

func TestTornTailTruncates(t *testing.T) {
	for cut := 1; cut <= 12; cut++ {
		fs := NewMemFS()
		st, _ := reopen(t, fs, Config{})
		if err := st.Append(RecSample, []byte("first")); err != nil {
			t.Fatal(err)
		}
		if err := st.Append(RecSample, []byte("second-record")); err != nil {
			t.Fatal(err)
		}
		_ = st.Close()
		name := segmentName(0)
		size := fs.Size(name)
		if err := fs.Truncate(name, size-int64(cut)); err != nil {
			t.Fatal(err)
		}
		st2, rec := reopen(t, fs, Config{})
		if rec.TornBytes == 0 {
			t.Fatalf("cut=%d: no torn bytes reported", cut)
		}
		if len(rec.Records) != 1 || string(rec.Records[0].Payload) != "first" {
			t.Fatalf("cut=%d: replayed %v, want just first", cut, rec.Records)
		}
		// The store keeps appending where the valid prefix ended.
		if err := st2.Append(RecSample, []byte("third")); err != nil {
			t.Fatalf("cut=%d: append after torn recovery: %v", cut, err)
		}
		_ = st2.Close()
		st3, rec3 := reopen(t, fs, Config{})
		if len(rec3.Records) != 2 || string(rec3.Records[1].Payload) != "third" {
			t.Fatalf("cut=%d: second recovery replayed %v", cut, rec3.Records)
		}
		_ = st3.Close()
	}
}

func TestCorruptMiddleRefuses(t *testing.T) {
	fs := NewMemFS()
	st, _ := reopen(t, fs, Config{})
	for i := 0; i < 10; i++ {
		if err := st.Append(RecSample, []byte(fmt.Sprintf("rec-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	_ = st.Close()
	// Flip a bit in the middle of the segment: a record with valid data
	// after it fails its checksum, which no torn write can explain.
	name := segmentName(0)
	if !fs.Corrupt(name, int(fs.Size(name))/2, 0x01) {
		t.Fatal("corrupt failed")
	}
	_, _, err := Open(Config{FS: fs})
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Open on corrupt middle: %v, want ErrCorrupt", err)
	}
}

func TestCorruptSealedSegmentRefuses(t *testing.T) {
	fs := NewMemFS()
	cfg := Config{SegmentBytes: 128}
	st, _ := reopen(t, fs, cfg)
	for i := 0; i < 40; i++ {
		if err := st.Append(RecSample, []byte(fmt.Sprintf("rec-%02d", i))); err != nil {
			t.Fatal(err)
		}
	}
	seq, _ := st.Position()
	if seq == 0 {
		t.Fatal("no rotation happened")
	}
	_ = st.Close()
	// Damage the tail of a sealed (non-active) segment: even tail damage is
	// refused there, because sealed segments are immutable.
	name := segmentName(0)
	if !fs.Corrupt(name, int(fs.Size(name))-2, 0x80) {
		t.Fatal("corrupt failed")
	}
	_, _, err := Open(Config{FS: fs, SegmentBytes: 128})
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Open on corrupt sealed segment: %v, want ErrCorrupt", err)
	}
}

func TestOversizeLengthRefuses(t *testing.T) {
	fs := NewMemFS()
	st, _ := reopen(t, fs, Config{})
	if err := st.Append(RecSample, []byte("x")); err != nil {
		t.Fatal(err)
	}
	_ = st.Close()
	// Append a frame claiming an absurd length followed by real-looking
	// bytes; the reader must reject it without allocating the claim.
	f, err := fs.Append(segmentName(0))
	if err != nil {
		t.Fatal(err)
	}
	frame := []byte{0xFF, 0xFF, 0xFF, 0x7F, 0x01, 0xAB, 0xCD, 0xEF, 0x12}
	if _, err := f.Write(frame); err != nil {
		t.Fatal(err)
	}
	_ = f.Close()
	_, _, err = Open(Config{FS: fs})
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Open with oversize length: %v, want ErrCorrupt", err)
	}
}

func TestCleanShutdownNeedsNoReplayAfterSnapshot(t *testing.T) {
	fs := NewMemFS()
	st, _ := reopen(t, fs, Config{})
	for i := 0; i < 20; i++ {
		if err := st.Append(RecSample, []byte("s")); err != nil {
			t.Fatal(err)
		}
	}
	if err := snapshotNow(st, []byte("final")); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st2, rec := reopen(t, fs, Config{})
	defer st2.Close()
	if len(rec.Records) != 0 || rec.TornBytes != 0 {
		t.Fatalf("clean shutdown still needed replay: %d records, %d torn bytes",
			len(rec.Records), rec.TornBytes)
	}
	if string(snapshotPayload(t, rec)) != "final" {
		t.Fatalf("snapshot payload %q", snapshotPayload(t, rec))
	}
}

func TestStoreOSFS(t *testing.T) {
	dir := t.TempDir()
	osfs, err := NewOSFS(dir)
	if err != nil {
		t.Fatal(err)
	}
	st, _ := reopen(t, osfs, Config{SegmentBytes: 512})
	for i := 0; i < 60; i++ {
		if err := st.Append(RecSample, []byte(fmt.Sprintf("os-%02d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := snapshotNow(st, []byte("os-state")); err != nil {
		t.Fatal(err)
	}
	if err := st.Append(RecSample, []byte("tail")); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st2, rec := reopen(t, osfs, Config{SegmentBytes: 512})
	defer st2.Close()
	if string(snapshotPayload(t, rec)) != "os-state" {
		t.Fatalf("snapshot payload %q", snapshotPayload(t, rec))
	}
	if len(rec.Records) != 1 || string(rec.Records[0].Payload) != "tail" {
		t.Fatalf("replayed %v", rec.Records)
	}
}

func TestSampleCoderRoundTrip(t *testing.T) {
	var enc, dec SampleCoder
	base := time.Date(2026, 8, 9, 12, 0, 0, 0, time.UTC)
	var buf []byte
	type rec struct {
		t time.Time
		s trace.Sample
	}
	var want []rec
	var frames [][]byte
	for i := 0; i < 500; i++ {
		ts := base.Add(time.Duration(i) * 6 * time.Second)
		s := QuantizeSample(trace.Sample{
			CPU:       float64(i%101) + 0.37,
			FreeMemMB: 1000 + float64(i%50)*3.3,
			Up:        i%7 != 0,
		})
		buf = enc.Encode(buf[:0], ts, s)
		frames = append(frames, append([]byte(nil), buf...))
		want = append(want, rec{t: QuantizeTime(ts), s: s})
		if i == 250 {
			enc.Reset() // snapshot boundary mid-stream
		}
	}
	for i, frame := range frames {
		ts, s, err := dec.Decode(frame)
		if err != nil {
			t.Fatalf("decode %d: %v", i, err)
		}
		if !ts.Equal(want[i].t) || s != want[i].s {
			t.Fatalf("record %d: got (%v %+v) want (%v %+v)", i, ts, s, want[i].t, want[i].s)
		}
	}
	// Replay starting at the reset point needs no earlier state.
	var dec2 SampleCoder
	if _, _, err := dec2.Decode(frames[251]); err != nil {
		t.Fatalf("decode at reset boundary: %v", err)
	}
	// A delta record with no base is rejected.
	var dec3 SampleCoder
	if _, _, err := dec3.Decode(frames[5]); err == nil {
		t.Fatal("delta record without base decoded")
	}
}

// TestSampleCoderStorableRange: every reading trace.Storable accepts round
// trips through the coder at Float64bits, out to ±2^40 units and as a
// delta from either end, and the readings past it that it refuses would
// not: a CPU of 1e17 is 1e19 units, past int64, and came back as
// −9.22e16 when the monitor still passed it to the log.
func TestSampleCoderStorableRange(t *testing.T) {
	edge := float64(1<<40) / trace.CPUUnit
	memEdge := float64(1<<40) / trace.MemUnit
	stored := []trace.Sample{
		{CPU: edge, FreeMemMB: memEdge, Up: true},
		{CPU: -edge, FreeMemMB: -memEdge},
		{CPU: 12.34, FreeMemMB: 1000.0625, Up: true},
		{CPU: edge, FreeMemMB: 0},
	}
	var enc, dec SampleCoder
	at := time.Date(2026, 8, 9, 12, 0, 0, 0, time.UTC)
	for i, s := range stored {
		s = QuantizeSample(s)
		if !trace.Storable(s) {
			t.Fatalf("%+v is not storable", s)
		}
		_, got, err := dec.Decode(enc.Encode(nil, at, s))
		if err != nil || math.Float64bits(got.CPU) != math.Float64bits(s.CPU) || math.Float64bits(got.FreeMemMB) != math.Float64bits(s.FreeMemMB) {
			t.Fatalf("sample %d %+v came back as %+v (%v)", i, s, got, err)
		}
	}
	for _, s := range []trace.Sample{{CPU: 1e17}, {CPU: edge + 1}, {FreeMemMB: -1e12}, {CPU: math.NaN()}} {
		if trace.Storable(QuantizeSample(s)) {
			t.Fatalf("%+v is storable", s)
		}
	}
	var fresh SampleCoder
	s := QuantizeSample(trace.Sample{CPU: 1e17})
	if _, got, err := fresh.Decode(new(SampleCoder).Encode(nil, at, s)); err == nil && got.CPU == s.CPU {
		t.Fatalf("%v round trips: the bound refuses a reading the coder keeps", s.CPU)
	}
}

func TestComponentCodecsRoundTrip(t *testing.T) {
	m, a, exp, err := DecodeRegister(EncodeRegister(nil, "lab-01", "10.0.0.1:7070", 1234567))
	if err != nil || m != "lab-01" || a != "10.0.0.1:7070" || exp != 1234567 {
		t.Fatalf("register round trip: %q %q %d %v", m, a, exp, err)
	}
	m, err = DecodeUnregister(wire.AppendString(nil, "lab-02"))
	if err != nil || m != "lab-02" {
		t.Fatalf("unregister round trip: %q %v", m, err)
	}
	k, id, err := DecodeSubmitKey(EncodeSubmitKey(nil, "key-9", "lab-01-job-3"))
	if err != nil || k != "key-9" || id != "lab-01-job-3" {
		t.Fatalf("submit-key round trip: %q %q %v", k, id, err)
	}
	m, p, tr, sv, err := DecodeAccuracy(EncodeAccuracy(nil, "lab-01", "SMP", 0.8125, true))
	if err != nil || m != "lab-01" || p != "SMP" || tr != 0.8125 || !sv {
		t.Fatalf("accuracy round trip: %q %q %v %v %v", m, p, tr, sv, err)
	}
	// Malformed inputs error rather than panic.
	if _, _, _, err := DecodeRegister([]byte{0xFF}); err == nil {
		t.Fatal("bad register decoded")
	}
	if _, _, err := DecodeSubmitKey([]byte{0x05, 'a'}); err == nil {
		t.Fatal("bad submit-key decoded")
	}
}
