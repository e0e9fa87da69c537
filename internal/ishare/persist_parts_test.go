package ishare

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"fgcs/internal/avail"
	"fgcs/internal/durable"
	"fgcs/internal/monitor"
	"fgcs/internal/rng"
	"fgcs/internal/simclock"
	"fgcs/internal/trace"
	"fgcs/internal/wire"
)

// partCountFS counts the part files published through it.
type partCountFS struct {
	durable.FS
	published []string
}

func (c *partCountFS) Rename(oldname, newname string) error {
	if strings.HasPrefix(newname, "part-") {
		c.published = append(c.published, newname)
	}
	return c.FS.Rename(oldname, newname)
}

// dayPartName names the part of the day that starts at midnight.
func dayPartName(midnight time.Time) string {
	return fmt.Sprintf("part-%016x.part", midnight.Unix())
}

// recordSpan records d of seeded samples from *at on, through p.
func recordSpan(p *Persister, r *rng.Stream, at *time.Time, d time.Duration) {
	for end := at.Add(d); at.Before(end); *at = at.Add(period) {
		p.Record(*at, persistSample(r))
	}
}

// TestSnapshotBytesFlatInHistory: the bytes one snapshot writes — its file
// and the parts it publishes — do not grow with the history the node holds.
// A node holding 7 days and one holding 56 each publish their history,
// record the first hour of a new day and snapshot again; that second
// snapshot publishes one part, the day that ended, and writes the new day
// inline, and the two differ by less than one day's part (the longer part
// list, ≈9 B a day). When every snapshot wrote every day, they differed by
// 49 days.
func TestSnapshotBytesFlatInHistory(t *testing.T) {
	var wrote [2]int64
	var part int64
	for i, days := range []int{7, 56} {
		mem := durable.NewMemFS()
		fs := durable.NewCrashFS(mem, -1)
		st, rec, err := durable.Open(durable.Config{FS: fs, Sync: durable.SyncBatch})
		if err != nil {
			t.Fatal(err)
		}
		today := monday.AddDate(0, 0, days)
		n := newDurableNode(t, st, rec, simclock.NewVirtual(today.Add(time.Hour)), nil)
		if err := n.SM.RestoreHistory(historyMachine("lab-01", days, 9), today.Add(-period), nil); err != nil {
			t.Fatal(err)
		}
		if err := n.Persist.Snapshot(); err != nil {
			t.Fatal(err)
		}
		at := today
		recordSpan(n.Persist, rng.New(5), &at, time.Hour)
		before := fs.BytesWritten()
		if err := n.Persist.Snapshot(); err != nil {
			t.Fatal(err)
		}
		wrote[i] = fs.BytesWritten() - before
		part = mem.Size(dayPartName(today.AddDate(0, 0, -1)))
		if err := n.Persist.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if part <= 0 || wrote[0] <= part || wrote[1]-wrote[0] < 0 || wrote[1]-wrote[0] >= part {
		t.Fatalf("a snapshot wrote %d B over 7 days and %d B over 56, a day's part is %d B: the snapshot grows with the history",
			wrote[0], wrote[1], part)
	}
}

// TestPersisterCrashFallsBackToOlderParts damages the newest snapshot of a
// node, or a part only it lists: recovery falls back to the older snapshot,
// reads the parts that one lists, replays the longer WAL tail and holds the
// node's history bit for bit. A part both kept snapshots list is damaged
// only by refusing to recover: the WAL no longer reaches back to the start,
// and nothing may come back shorter than the node was.
func TestPersisterCrashFallsBackToOlderParts(t *testing.T) {
	const days = 3
	today := monday.AddDate(0, 0, days)
	clock := simclock.NewVirtual(today.Add(12 * time.Hour))
	sealed := today.AddDate(0, 0, -1) // the day only the newest snapshot has a part of
	for _, c := range []struct {
		name    string
		damage  func(fs *durable.MemFS, newest string)
		refused bool
	}{
		{"newest snapshot's last payload byte", func(fs *durable.MemFS, newest string) { fs.Corrupt(newest, int(fs.Size(newest))-5, 0x01) }, false},
		{"the newest's own part missing", func(fs *durable.MemFS, _ string) { _ = fs.Remove(dayPartName(sealed)) }, false},
		{"the newest's own part flipped", func(fs *durable.MemFS, _ string) { fs.Corrupt(dayPartName(sealed), 100, 0x20) }, false},
		{"a shared part missing", func(fs *durable.MemFS, _ string) { _ = fs.Remove(dayPartName(monday)) }, true},
		{"a shared part flipped", func(fs *durable.MemFS, _ string) { fs.Corrupt(dayPartName(monday.AddDate(0, 0, 1)), 100, 0x20) }, true},
	} {
		fs := durable.NewMemFS()
		st, rec, err := durable.Open(persistStoreCfg(fs))
		if err != nil {
			t.Fatal(err)
		}
		live := newDurableNode(t, st, rec, clock, nil)
		if err := live.SM.RestoreHistory(historyMachine("lab-01", days, 9), sealed.Add(-period), nil); err != nil {
			t.Fatal(err)
		}
		// Three snapshots — the last over a new day — with samples between
		// them: retention drops the first and the segments only it needed.
		r, at := rng.New(21), sealed
		for _, span := range []time.Duration{3 * time.Hour, 22 * time.Hour, 2 * time.Hour} {
			if err := live.Persist.Snapshot(); err != nil {
				t.Fatal(err)
			}
			recordSpan(live.Persist, r, &at, span)
		}
		want, _, _ := live.SM.ExportHistory()
		answers := []queryAnswer{askTR(t, live, 1800), askTR(t, live, 2*3600)}
		if err := live.Persist.Close(); err != nil {
			t.Fatal(err)
		}
		newest := newestSnapshot(t, fs)
		c.damage(fs, newest)
		st, rec, err = durable.Open(persistStoreCfg(fs))
		if c.refused {
			if !errors.Is(err, durable.ErrCorrupt) {
				t.Fatalf("%s: Open returned %v, want ErrCorrupt", c.name, err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("%s: recovery refused: %v", c.name, err)
		}
		if rec.SnapshotsSkipped != 1 || rec.Snapshot == "" || rec.Snapshot == newest || len(rec.Records) != int(24*time.Hour/period) {
			t.Fatalf("%s: recovered %q past %d skipped with %d records; want the older snapshot and a 24 h tail",
				c.name, rec.Snapshot, rec.SnapshotsSkipped, len(rec.Records))
		}
		n := newDurableNode(t, st, rec, clock, nil)
		if d, j := sameHistory(n, want); d >= 0 {
			t.Fatalf("%s: recovered day %d differs from the node's at sample %d", c.name, d, j)
		}
		if got := []queryAnswer{askTR(t, n, 1800), askTR(t, n, 2*3600)}; got[0] != answers[0] || got[1] != answers[1] {
			t.Fatalf("%s: recovered node answers %+v, the node before close %+v", c.name, got, answers)
		}
		if err := n.Persist.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestPersisterV1DataDirPartsOnce recovers a data directory whose snapshot
// an FGNS version 1 payload holds, four days inline. Its first snapshot
// publishes each sealed day as a part exactly once, the next publishes
// none, one after a midnight publishes the day that ended, and the first
// snapshot after a restart, which knows its parts from the snapshot it
// recovered, publishes none again. The last recovery holds the history bit
// for bit.
func TestPersisterV1DataDirPartsOnce(t *testing.T) {
	const days = 4
	src := bareDurableNode(t)
	if err := src.SM.RestoreHistory(historyMachine("lab-01", days, 9), codecStart.Add(-period), nil); err != nil {
		t.Fatal(err)
	}
	v2, err := encodeNodeSnapshot(t, src.Persist)
	if err != nil {
		t.Fatal(err)
	}
	// The version 1 payload: the version 2 one with every day inline.
	log, _, _ := src.SM.ExportHistory()
	hist, err := trace.AppendBinary(nil, &trace.Dataset{Machines: []*trace.Machine{log}})
	if err != nil {
		t.Fatal(err)
	}
	head := wire.NewReader(v2, "FGNS")
	head.Header(nodeSnapMagic, nodeSnapVersion)
	inline := head.Bytes()
	rest := v2[5+len(wire.AppendUvarint(nil, uint64(len(inline))))+len(inline):]
	payload := wire.AppendBytes(wire.AppendHeader(nil, nodeSnapMagic, 1), hist)
	payload = append(payload, rest...)

	mem := durable.NewMemFS()
	fs := &partCountFS{FS: mem}
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
	clock := simclock.NewVirtual(codecStart.Add(time.Hour))
	open := func() *HostNode {
		t.Helper()
		st, rec, err := durable.Open(persistStoreCfg(fs))
		if err != nil {
			t.Fatal(err)
		}
		return newDurableNode(t, st, rec, clock, nil)
	}
	snapshot := func(n *HostNode, want ...string) {
		t.Helper()
		fs.published = nil
		if err := n.Persist.Snapshot(); err != nil {
			t.Fatal(err)
		}
		if strings.Join(fs.published, " ") != strings.Join(want, " ") {
			t.Fatalf("the snapshot published parts %v, want %v", fs.published, want)
		}
	}
	n := open()
	var sealed []string
	for _, d := range log.Days[:days-1] {
		sealed = append(sealed, dayPartName(d.Date))
	}
	snapshot(n, sealed...)
	snapshot(n)
	at := codecStart.Truncate(24 * time.Hour)
	recordSpan(n.Persist, rng.New(8), &at, time.Hour)
	snapshot(n, dayPartName(log.Days[days-1].Date))
	want, _, _ := n.SM.ExportHistory()
	if err := n.Persist.Close(); err != nil {
		t.Fatal(err)
	}
	n = open()
	defer n.Persist.Close()
	snapshot(n)
	if d, j := sameHistory(n, want); d >= 0 || len(want.Days) != days+1 {
		t.Fatalf("recovered day %d of %d differs at sample %d", d, len(want.Days), j)
	}
}

// TestPersisterDropsOutOfRangeSample: a finite reading whose WAL unit count
// would not fit the log is dropped, not logged and not applied, and the
// samples around it are, live and replayed.
func TestPersisterDropsOutOfRangeSample(t *testing.T) {
	fs := durable.NewMemFS()
	st, rec, err := durable.Open(persistStoreCfg(fs))
	if err != nil {
		t.Fatal(err)
	}
	n := newDurableNode(t, st, rec, simclock.NewVirtual(codecStart), nil)
	at := codecStart
	for _, cpu := range []float64{12.5, 1e17, 13.25} {
		n.Persist.Record(at, trace.Sample{CPU: cpu, FreeMemMB: 400, Up: true})
		at = at.Add(period)
	}
	check := func(n *HostNode, what string) {
		t.Helper()
		log, last, _ := n.SM.ExportHistory()
		day := log.Days[0]
		i := day.IndexAt(codecStart.Sub(day.Date))
		if got := []float64{day.Samples[i].CPU, day.Samples[i+1].CPU, day.Samples[i+2].CPU}; got[0] != 12.5 || got[1] != 0 || got[2] != 13.25 || !last.Equal(at.Add(-period)) {
			t.Fatalf("%s: CPU %v to %v, want [12.5 0 13.25]: the out-of-range reading was applied", what, got, last)
		}
	}
	check(n, "live")
	if err := n.Persist.Close(); err != nil {
		t.Fatal(err)
	}
	st, rec, err = durable.Open(persistStoreCfg(fs))
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Records) != 2 {
		t.Fatalf("the WAL holds %d records, want the 2 in-range samples", len(rec.Records))
	}
	n = newDurableNode(t, st, rec, simclock.NewVirtual(codecStart), nil)
	defer n.Persist.Close()
	check(n, "replayed")
}

// TestPersisterBoundsOutageBackfill: a node whose last sample is 20 years
// old back-fills only the last monitor.MaxBackfill of the gap, so the
// sample that ends it adds at most a week and a day to the history, and
// the next snapshot publishes at most that many parts, not a day of down
// samples for each day of the 20 years. An hourly period keeps the
// unbounded back-fill this guards against small enough to fail fast.
func TestPersisterBoundsOutageBackfill(t *testing.T) {
	const hourly = time.Hour
	then := monday.Add(8 * time.Hour)
	now := then.AddDate(20, 0, 0)
	fs := &partCountFS{FS: durable.NewMemFS()}
	st, rec, err := durable.Open(persistStoreCfg(fs))
	if err != nil {
		t.Fatal(err)
	}
	n, err := NewHostNode(NodeConfig{
		MachineID: "lab-01", Cfg: avail.DefaultConfig(), Period: hourly, Clock: simclock.NewVirtual(now),
		Durable: st, DurableRecovery: rec,
	}, staticSource{})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Persist.Close()
	up := trace.Sample{CPU: 5, FreeMemMB: 100, Up: true}
	n.Persist.Record(then, up)
	if err := n.Persist.Snapshot(); err != nil {
		t.Fatal(err)
	}
	n.Persist.Record(now, up)
	bound := int(monitor.MaxBackfill/(24*time.Hour)) + 1
	if days := len(n.SM.history()); days-1 > bound {
		t.Errorf("the sample after a 20-year gap added %d days to the history, want at most %d", days-1, bound)
	}
	if err := n.Persist.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if len(fs.published) > bound {
		t.Fatalf("the snapshot after a 20-year gap published %d parts, want at most %d", len(fs.published), bound)
	}
}
