package ishare

import (
	"context"
	"encoding/binary"
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

// history is every day a prediction can pool from: the preloaded days and a
// deep copy of the recorded ones, merged as completedDays merges them.
func (sm *StateManager) history() []*trace.Day {
	var pre []*trace.Day
	if sm.preloaded != nil {
		pre = sm.preloaded.Days
	}
	live, _, _ := sm.ExportHistory()
	return mergeDays(pre, live.Days)
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
// days ending the day before the virtual clock's, and publishes one snapshot:
// a part for each day but the last, and the snapshot file. It returns the
// node and the size of that snapshot file.
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

// newestSnapshotPayload returns the payload of the newest snapshot in fs.
func newestSnapshotPayload(t testing.TB, fs *durable.MemFS) []byte {
	t.Helper()
	return filePayload(t, fs, newestSnapshot(t, fs))
}

// filePayload returns what sits between the header of the snapshot or part
// file name — an FGSP header, its part list skipped, or an FGPT one — and
// its CRC32C trailer.
func filePayload(t testing.TB, fs *durable.MemFS, name string) []byte {
	t.Helper()
	f, err := fs.Open(name)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	data, err := io.ReadAll(f)
	if err != nil || len(data) < 9 {
		t.Fatalf("%s: %d bytes (%v)", name, len(data), err)
	}
	p := data[5 : len(data)-4]
	uvarint := func() uint64 {
		x, n := binary.Uvarint(p)
		if n <= 0 {
			t.Fatalf("%s: malformed header", name)
		}
		p = p[n:]
		return x
	}
	switch string(data[:5]) {
	case "FGSP\x01":
		uvarint() // seq
		uvarint() // offset
	case "FGSP\x02":
		uvarint()
		uvarint()
		for n := uvarint(); n > 0; n-- {
			uvarint() // key
			p = p[4:] // its file's CRC32C
		}
	case "FGPT\x01":
		uvarint() // key
	default:
		t.Fatalf("%s: header %q", name, data[:5])
	}
	if size := uvarint(); size != uint64(len(p)) {
		t.Fatalf("%s: a payload of %d bytes declared as %d", name, len(p), size)
	}
	return p
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
// The second snapshot of a 30-day log lists the 29 parts the first one
// published and writes only its own file, the last day and the tail, and
// allocates ≈1.2× that file: MemFS's own copy (the "disk") and the part
// list. The inline history and the chunk the file is streamed through are
// scratch the persister and the store keep. When every snapshot wrote the
// whole log it allocated ≈1.06–1.18× a file thirty times the size;
// encoding the whole payload into one buffer first, and a MemFS that
// re-copied a growing file, cost ≈2.0×; cloning the log, encoding it by
// reflection into a growing buffer and framing the result twice cost ≈10×.
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
// store and replaying a 30-day snapshot, its file and 29 parts, allocates
// the recovered days themselves plus ≈360 KB that do not grow with the
// files: the samples' rounding up to whole pages (≈6.6 KB a day), the one
// 64 KiB buffer Open and the decode read every file through, the decoder's
// scratch, one compact day body, and each part's reader. The ceiling is the
// samples, 256 KiB and 0.25× the files, so reading them whole into memory
// (≈1.0× their size more) trips it, as would a read buffer or a body
// scratch per part (≈100 KB each). Reading the snapshot file whole cost
// ≈1.1×; a second copy of the payload and a reflective decode made it ≈4×.
func TestRecoverAllocCeiling(t *testing.T) {
	fs := durable.NewMemFS()
	n, _ := snapshotNode(t, fs, 30)
	if err := n.Persist.Close(); err != nil {
		t.Fatal(err)
	}
	var size int64
	for name := range snapshotFiles(t, fs) {
		size += fs.Size(name)
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
	if ceiling := sampleBytes + 256<<10 + uint64(0.25*float64(size)); grew > ceiling {
		t.Fatalf("recovering a snapshot of %d KB in its files allocated %d KB: %d KB of samples + %d KB, ceiling 256 KB + 0.25× the files",
			size>>10, grew>>10, sampleBytes>>10, (grew-sampleBytes)>>10)
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
		if err := st.WriteSnapshotAt(0, 13, [][]byte{c.payload}); err != nil {
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
