package ishare

import (
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"testing"
	"time"
	"unsafe"

	"fgcs/internal/avail"
	"fgcs/internal/durable"
	"fgcs/internal/rng"
	"fgcs/internal/simclock"
	"fgcs/internal/trace"
	"fgcs/internal/wire"
)

// ExportHistory deep-copies what viewHistory shows, for tests that want to
// look at the recorded state after the fact.
func (sm *StateManager) ExportHistory() (m *trace.Machine, last time.Time, recent []trace.Sample) {
	recent = sm.viewHistory(func(live *trace.Machine, t time.Time) { m, last = live.Clone(), t })
	return m, last, recent
}

// TestRecordSteadyStateAllocatesNothing holds Record to its comment. It
// measures one run of many records rather than an average per call: a ring
// that reallocates every fifteenth sample averages to zero.
//
// AllocsPerRun counts every goroutine's allocations, and the start of each
// collection wakes the runtime's goroutine that cleans the unique package's
// maps (every binary that links net/netip has them), which allocates two
// 24-byte objects. A collection begun by the warm-up's day allocation can
// land that cleanup inside the measured run, so the collector is off while
// the test measures, and one forced collection first lets the woken cleanup
// run before the warm-up starts.
func TestRecordSteadyStateAllocatesNothing(t *testing.T) {
	sm, err := NewStateManager("m", period, avail.DefaultConfig(), simclock.NewVirtual(monday), nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	runtime.GC()
	at := monday
	// The warm-up run allocates the day and grows the ring; both runs fit
	// in that day.
	allocs := testing.AllocsPerRun(1, func() {
		for i := 0; i < 1400; i++ {
			sm.Record(at, sample(float64(i%90), 400))
			at = at.Add(period)
		}
	})
	if allocs != 0 {
		t.Fatalf("1400 records inside one day made %v allocations, want 0", allocs)
	}
}

// snapshotNode builds a durable node over fs whose recorder holds `days` full
// days ending the day before the virtual clock's, and publishes one snapshot.
// It returns the node and the size of that snapshot file.
func snapshotNode(t *testing.T, fs *durable.MemFS, days int) (*HostNode, int64) {
	t.Helper()
	st, rec, err := durable.Open(durable.Config{FS: fs, Sync: durable.SyncBatch})
	if err != nil {
		t.Fatal(err)
	}
	hist := historyMachine("lab-01", days, 9)
	today := monday.AddDate(0, 0, days)
	n := newDurableNode(t, st, rec, simclock.NewVirtual(today.Add(8*time.Hour)), nil)
	lastDay := hist.Days[days-1]
	if err := n.SM.RestoreHistory(hist, today.Add(-period), lastDay.Samples[lastDay.Len()-8:]); err != nil {
		t.Fatal(err)
	}
	if err := n.Persist.Snapshot(); err != nil {
		t.Fatal(err)
	}
	return n, fs.Size(newestSnapshot(t, fs))
}

// newestSnapshot returns the name of the newest snapshot file in fs.
func newestSnapshot(t testing.TB, fs *durable.MemFS) string {
	t.Helper()
	names, err := fs.List()
	if err != nil {
		t.Fatal(err)
	}
	newest := ""
	for _, name := range names { // sorted: the last snapshot is the newest
		if strings.HasPrefix(name, "snap-") && strings.HasSuffix(name, ".snap") {
			newest = name
		}
	}
	if newest == "" {
		t.Fatalf("no snapshot among %v", names)
	}
	return newest
}

// newestSnapshotPayload returns the payload of the newest snapshot in fs:
// what sits between the FGSP header and the CRC32C trailer.
func newestSnapshotPayload(t testing.TB, fs *durable.MemFS) []byte {
	t.Helper()
	f, err := fs.Open(newestSnapshot(t, fs))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	data, err := io.ReadAll(f)
	if err != nil || len(data) < 4 {
		t.Fatalf("snapshot of %d bytes (%v)", len(data), err)
	}
	r := wire.NewReader(data[:len(data)-4], "FGSP")
	r.Header([4]byte{'F', 'G', 'S', 'P'}, 1)
	r.Uvarint() // seq
	r.Uvarint() // offset
	payload := r.Bytes()
	if err := r.Done(); err != nil {
		t.Fatal(err)
	}
	return payload
}

// allocatedBy returns the bytes fn allocates.
func allocatedBy(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestSnapshotAllocCeiling is a tripwire for copies on the publication path.
// One snapshot of a 30-day log allocates ≈1.06× the file it writes: MemFS's
// own copy (the "disk"), one day of trace.WriteBinary's buffer and the
// 64 KiB chunk the file is streamed through. Encoding the whole payload into
// one buffer first, and a MemFS that re-copied a growing file, cost ≈2.0×;
// cloning the log, encoding it by reflection into a growing buffer and
// framing the result twice cost ≈10×.
func TestSnapshotAllocCeiling(t *testing.T) {
	fs := durable.NewMemFS()
	n, size := snapshotNode(t, fs, 30)
	var err error
	grew := allocatedBy(func() { err = n.Persist.Snapshot() })
	if err != nil {
		t.Fatal(err)
	}
	if float64(grew) > 1.25*float64(size) {
		t.Fatalf("a snapshot of %d KB allocated %d KB (%.2f×), ceiling 1.25×", size>>10, grew>>10, float64(grew)/float64(size))
	}
}

// TestRecoverAllocCeiling is the same tripwire for recovery: opening the
// store and replaying a 30-day snapshot allocates the recovered days
// themselves plus ≈0.10× the snapshot file (the day and machine structure
// around the samples, the 64 KiB read buffers, the decoder's scratch).
// Reading the snapshot file whole into memory cost ≈1.1×; a second copy of
// the payload and a reflective decode made it ≈4×.
func TestRecoverAllocCeiling(t *testing.T) {
	fs := durable.NewMemFS()
	n, size := snapshotNode(t, fs, 30)
	if err := n.Persist.Close(); err != nil {
		t.Fatal(err)
	}
	fresh := testNode(t, simclock.NewVirtual(monday), nil)
	var p *Persister
	var err error
	grew := allocatedBy(func() {
		st, rec, oerr := durable.Open(durable.Config{FS: fs, Sync: durable.SyncBatch})
		if err = oerr; err == nil {
			p, err = NewPersister(st, rec, fresh.SM, fresh.Gateway, nil)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	days := 0
	for _, d := range fresh.SM.history() {
		days += d.Len()
	}
	if days != 30*int(24*time.Hour/period) {
		t.Fatalf("recovered %d samples", days)
	}
	sampleBytes := uint64(days) * uint64(unsafe.Sizeof(trace.Sample{}))
	if ceiling := sampleBytes + uint64(0.25*float64(size)); grew > ceiling {
		t.Fatalf("recovering a %d KB snapshot allocated %d KB: %d KB of samples + %.2f× the file, ceiling 0.25×",
			size>>10, grew>>10, sampleBytes>>10, (float64(grew)-float64(sampleBytes))/float64(size))
	}
}

// restoredState fingerprints what a refused snapshot must leave as it was:
// the history log and its last-sample time, the recent ring, the submit
// table and the accuracy tracker.
func restoredState(n *HostNode) string {
	log, last, recent := n.SM.ExportHistory()
	submitted, nextID := n.Gateway.exportSubmitted()
	return fmt.Sprintf("%d days, last %v, %d recent, submits %v next %d, tracker %x",
		len(log.Days), last, len(recent), submitted, nextID, n.Obs().Tracker.ExportBinary())
}

// TestSnapshotInstallAllOrNothing: a snapshot whose checksum holds but
// whose FGNS payload does not decode — a malformed tracker blob at its very
// end, or a byte after that — fails NewPersister and leaves a fresh node's
// history, submit table and tracker as they were. The history used to be
// installed before the tracker blob was read.
func TestSnapshotInstallAllOrNothing(t *testing.T) {
	src := bareDurableNode(t)
	today := monday.AddDate(0, 0, 2)
	if err := src.SM.RestoreHistory(historyMachine("lab-01", 2, 9), today.Add(-period), []trace.Sample{{CPU: 5, FreeMemMB: 900, Up: true}}); err != nil {
		t.Fatal(err)
	}
	if _, err := src.Gateway.Submit(context.Background(), SubmitReq{Name: "j", WorkSeconds: 3600, MemMB: 50, IdempotencyKey: "retry-1"}); err != nil {
		t.Fatal(err)
	}
	src.Obs().Tracker.RestoreResolution("lab-01", "SMP", 0.75, true)
	good, err := encodeNodeSnapshot(t, src.Persist)
	if err != nil {
		t.Fatal(err)
	}
	r := wire.NewReader(good, "FGNS")
	r.Header(nodeSnapMagic, nodeSnapVersion)
	r.Bytes() // history
	r.Varint()
	for n := r.Count(recentSampleBytes, "recent"); n > 0; n-- {
		r.Float64()
		r.Float64()
		r.Bool()
	}
	for n := r.Count(2, "submit keys"); n > 0; n-- {
		r.Bytes()
		r.Bytes()
	}
	r.Uvarint()
	blob := r.Bytes()
	if err := r.Done(); err != nil || len(blob) == 0 {
		t.Fatalf("tracker blob of %d bytes (%v)", len(blob), err)
	}
	badBlob := append([]byte(nil), good...)
	badBlob[len(good)-len(blob)] ^= 0xFF // the blob's magic
	for _, c := range []struct {
		name    string
		payload []byte
	}{
		{"malformed tracker blob", badBlob},
		{"a trailing byte", append(append([]byte(nil), good...), 0)},
	} {
		fs := durable.NewMemFS()
		st, _, err := durable.Open(persistStoreCfg(fs))
		if err != nil {
			t.Fatal(err)
		}
		if err := st.WriteSnapshotAt(0, 13, int64(len(c.payload)), func(w io.Writer) error {
			_, err := w.Write(c.payload)
			return err
		}); err != nil {
			t.Fatal(err)
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		st, rec, err := durable.Open(persistStoreCfg(fs))
		if err != nil || rec.Snapshot == "" {
			t.Fatalf("%s: the snapshot does not validate (%v)", c.name, err)
		}
		fresh := testNode(t, simclock.NewVirtual(today.Add(8*time.Hour)), nil)
		before := restoredState(fresh)
		if _, err := NewPersister(st, rec, fresh.SM, fresh.Gateway, nil); err == nil {
			t.Fatalf("%s: restored", c.name)
		}
		if after := restoredState(fresh); after != before {
			t.Fatalf("%s: a refused snapshot changed the node:\n%s\nwas\n%s", c.name, after, before)
		}
		_ = st.Close()
	}
}

// TestSnapshotFallbackLastPayloadByte damages the newest snapshot in its
// last payload byte only — nothing but its checksum can tell. Recovery must
// read it to the end, fall back on the older snapshot and its longer WAL
// tail, and answer QueryTR as the node that wrote them did.
func TestSnapshotFallbackLastPayloadByte(t *testing.T) {
	const samples = 30
	today := monday.AddDate(0, 0, 2)
	start := today.Add(8 * time.Hour)
	clock := simclock.NewVirtual(start.Add(2 * samples * period))
	fs := durable.NewMemFS()
	st, rec, err := durable.Open(persistStoreCfg(fs))
	if err != nil {
		t.Fatal(err)
	}
	n := newDurableNode(t, st, rec, clock, nil)
	if err := n.SM.RestoreHistory(historyMachine("lab-01", 2, 9), today.Add(-period), nil); err != nil {
		t.Fatal(err)
	}
	r := rng.New(11)
	at := start
	for batch := 0; batch < 2; batch++ {
		if err := n.Persist.Snapshot(); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < samples; i++ {
			n.Persist.Record(at, persistSample(r))
			at = at.Add(period)
		}
	}
	want := []queryAnswer{askTR(t, n, 1800), askTR(t, n, 2*3600)}
	if err := n.Persist.Close(); err != nil {
		t.Fatal(err)
	}
	newest := newestSnapshot(t, fs)
	if !fs.Corrupt(newest, int(fs.Size(newest))-5, 0x01) { // 4 trailer bytes, then the payload
		t.Fatal("corrupt failed")
	}
	st2, rec2, err := durable.Open(persistStoreCfg(fs))
	if err != nil {
		t.Fatal(err)
	}
	replayed := 0
	for _, r := range rec2.Records {
		if r.Type == durable.RecSample {
			replayed++
		}
	}
	if rec2.SnapshotsSkipped != 1 || rec2.Snapshot == "" || rec2.Snapshot == newest || replayed != 2*samples {
		t.Fatalf("recovered %q past %d skipped with %d samples replayed; want the older snapshot past 1 and %d samples",
			rec2.Snapshot, rec2.SnapshotsSkipped, replayed, 2*samples)
	}
	n2 := newDurableNode(t, st2, rec2, clock, nil)
	defer n2.Persist.Close()
	if got := []queryAnswer{askTR(t, n2, 1800), askTR(t, n2, 2*3600)}; got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("recovered node answers %+v, the node before close %+v", got, want)
	}
}

// TestSnapshotChangedAfterValidation changes the chosen snapshot file
// between Open, which validated it, and NewPersister, which reads its
// payload: a flipped byte in the history or in the last payload byte, a
// file cut short by a byte or grown by one. The read must return ErrCorrupt
// and install nothing.
func TestSnapshotChangedAfterValidation(t *testing.T) {
	for _, c := range []struct {
		name   string
		change func(fs *durable.MemFS, name string, size int64)
	}{
		{"a flipped history byte", func(fs *durable.MemFS, name string, size int64) { fs.Corrupt(name, int(size/2), 0x10) }},
		{"a flipped last payload byte", func(fs *durable.MemFS, name string, size int64) { fs.Corrupt(name, int(size)-5, 0x01) }},
		{"cut short", func(fs *durable.MemFS, name string, size int64) { _ = fs.Truncate(name, size-1) }},
		{"grown", func(fs *durable.MemFS, name string, _ int64) {
			f, _ := fs.Append(name)
			_, _ = f.Write([]byte{0})
		}},
	} {
		fs := durable.NewMemFS()
		n, size := snapshotNode(t, fs, 3)
		if err := n.Persist.Close(); err != nil {
			t.Fatal(err)
		}
		st, rec, err := durable.Open(durable.Config{FS: fs, Sync: durable.SyncBatch})
		if err != nil || rec.Snapshot == "" {
			t.Fatalf("%s: no snapshot validated (%v)", c.name, err)
		}
		c.change(fs, rec.Snapshot, size)
		fresh := testNode(t, simclock.NewVirtual(monday), nil)
		before := restoredState(fresh)
		if _, err := NewPersister(st, rec, fresh.SM, fresh.Gateway, nil); !errors.Is(err, durable.ErrCorrupt) {
			t.Fatalf("%s: NewPersister returned %v, want ErrCorrupt", c.name, err)
		}
		if after := restoredState(fresh); after != before {
			t.Fatalf("%s: a changed snapshot changed the node:\n%s\nwas\n%s", c.name, after, before)
		}
		_ = st.Close()
	}
}

// TestSnapshotUnderConcurrentQueries runs the three things that touch the
// recorder's log on a live node — samples landing, queries reading day
// windows, snapshots encoding the log in place — from three goroutines, then
// recovers from what the last snapshot and the WAL tail hold and requires the
// recovered node to answer as the live one does. Run under -race: a snapshot
// that read the log outside the recorder's lock, or kept it, fails here.
func TestSnapshotUnderConcurrentQueries(t *testing.T) {
	const rounds, perRound = 200, 5
	fs := durable.NewMemFS()
	st, rec, err := durable.Open(persistStoreCfg(fs))
	if err != nil {
		t.Fatal(err)
	}
	hist := historyMachine("lab-01", 3, 9)
	today := monday.AddDate(0, 0, 3)
	start := today.Add(8 * time.Hour)
	clock := simclock.NewVirtual(start.Add(rounds * perRound * period))
	n := newDurableNode(t, st, rec, clock, nil)
	if err := n.SM.RestoreHistory(hist, today.Add(-period), nil); err != nil {
		t.Fatal(err)
	}

	ctx := context.Background()
	var wg sync.WaitGroup
	wg.Add(3)
	go func() {
		defer wg.Done()
		r := rng.New(5)
		at := start
		for i := 0; i < rounds*perRound; i++ {
			n.Persist.Record(at, persistSample(r))
			at = at.Add(period)
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			if _, err := n.Gateway.QueryTR(ctx, QueryTRReq{LengthSeconds: 1800, GuestMemMB: 100}); err != nil {
				t.Errorf("query %d: %v", i, err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			if err := n.Persist.Snapshot(); err != nil {
				t.Errorf("snapshot %d: %v", i, err)
				return
			}
		}
	}()
	wg.Wait()
	if t.Failed() {
		return
	}

	live := []queryAnswer{askTR(t, n, 1800), askTR(t, n, 2*3600)}
	if err := n.Persist.Close(); err != nil {
		t.Fatal(err)
	}
	st2, rec2, err := durable.Open(persistStoreCfg(fs))
	if err != nil {
		t.Fatal(err)
	}
	if rec2.Snapshot == "" {
		t.Fatal("no snapshot recovered")
	}
	n2 := newDurableNode(t, st2, rec2, clock, nil)
	defer n2.Persist.Close()
	if got := []queryAnswer{askTR(t, n2, 1800), askTR(t, n2, 2*3600)}; got[0] != live[0] || got[1] != live[1] {
		t.Fatalf("recovered node answers %+v, live node %+v", got, live)
	}
	wantLog, wantLast, wantRecent := n.SM.ExportHistory()
	gotLog, gotLast, gotRecent := n2.SM.ExportHistory()
	if !wantLast.Equal(gotLast) || len(wantRecent) != len(gotRecent) || len(wantLog.Days) != len(gotLog.Days) {
		t.Fatalf("recovered state shape differs: last %v vs %v, ring %d vs %d, days %d vs %d",
			gotLast, wantLast, len(gotRecent), len(wantRecent), len(gotLog.Days), len(wantLog.Days))
	}
	// A snapshot stores float32; samples replayed from the WAL tail come back
	// at the WAL's own precision.
	narrow := func(s trace.Sample) trace.Sample {
		return trace.Sample{CPU: float64(float32(s.CPU)), FreeMemMB: float64(float32(s.FreeMemMB)), Up: s.Up}
	}
	for i, d := range wantLog.Days {
		for j, s := range d.Samples {
			if got := gotLog.Days[i].Samples[j]; narrow(got) != narrow(s) {
				t.Fatalf("day %d sample %d: recovered %+v, live %+v", i, j, got, s)
			}
		}
	}
}
