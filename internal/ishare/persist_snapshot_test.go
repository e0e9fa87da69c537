package ishare

import (
	"context"
	"runtime"
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
func TestRecordSteadyStateAllocatesNothing(t *testing.T) {
	sm, err := NewStateManager("m", period, avail.DefaultConfig(), simclock.NewVirtual(monday), nil, 0)
	if err != nil {
		t.Fatal(err)
	}
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

// newestSnapshotPayload returns the payload of the newest snapshot in fs.
func newestSnapshotPayload(t testing.TB, fs *durable.MemFS) []byte {
	t.Helper()
	data, err := fs.ReadFile(newestSnapshot(t, fs))
	if err != nil {
		t.Fatal(err)
	}
	_, _, payload, err := durable.ReadSnapshot(data)
	if err != nil {
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
// themselves plus ≈1.1× the snapshot file (MemFS's read copy, the decode
// chunk, the WAL tail); a second copy of the payload and a reflective decode
// made it ≈4×.
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
	for _, d := range fresh.SM.History() {
		days += d.Len()
	}
	if days != 30*int(24*time.Hour/period) {
		t.Fatalf("recovered %d samples", days)
	}
	sampleBytes := uint64(days) * uint64(unsafe.Sizeof(trace.Sample{}))
	if ceiling := sampleBytes + uint64(2.5*float64(size)); grew > ceiling {
		t.Fatalf("recovering a %d KB snapshot allocated %d KB: %d KB of samples + %.1f× the file, ceiling 2.5×",
			size>>10, grew>>10, sampleBytes>>10, float64(grew-sampleBytes)/float64(size))
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
	if rec2.SnapshotPayload == nil {
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
