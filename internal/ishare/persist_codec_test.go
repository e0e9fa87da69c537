package ishare

import (
	"bytes"
	"context"
	"maps"
	"runtime"
	"strings"
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

var codecStart = time.Date(2005, 9, 2, 8, 0, 0, 0, time.UTC)

// bareDurableNode builds a host node over an empty in-memory store: the
// components decodeNodeSnapshot installs into.
func bareDurableNode(t testing.TB) *HostNode {
	t.Helper()
	st, rec, err := durable.Open(persistStoreCfg(durable.NewMemFS()))
	if err != nil {
		t.Fatal(err)
	}
	n, err := NewHostNode(NodeConfig{
		MachineID: "lab-01", Cfg: avail.DefaultConfig(), Period: period,
		Clock: simclock.NewVirtual(codecStart.Add(time.Hour)), Durable: st, DurableRecovery: rec,
	}, staticSource{})
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// durableNodeFrom recovers a host node from the data directory fs holds.
func durableNodeFrom(t testing.TB, fs durable.FS) *HostNode {
	t.Helper()
	st, rec, err := durable.Open(durable.Config{FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	n, err := NewHostNode(NodeConfig{
		MachineID: "lab-01", Cfg: avail.DefaultConfig(), Period: period,
		Clock: simclock.NewVirtual(codecStart.Add(time.Hour)), Durable: st, DurableRecovery: rec,
	}, staticSource{})
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// snapshotFiles returns the payload of every snapshot and part file in fs,
// by name.
func snapshotFiles(t testing.TB, fs *durable.MemFS) map[string][]byte {
	t.Helper()
	names, err := fs.List()
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string][]byte)
	for _, name := range names {
		if strings.HasPrefix(name, "snap-") || strings.HasPrefix(name, "part-") {
			out[name] = filePayload(t, fs, name)
		}
	}
	return out
}

// republish recovers a node from the snapshot fs holds and publishes that
// node's snapshot through a fresh store, whose files it returns.
func republish(t testing.TB, fs *durable.MemFS) (*durable.MemFS, error) {
	t.Helper()
	n := durableNodeFrom(t, fs)
	defer n.Persist.Close()
	return publishNodeSnapshot(t, n.Persist)
}

// sampleNodeSnapshot is the FGNS payload of sampleNode's snapshot.
func sampleNodeSnapshot(t testing.TB) []byte {
	t.Helper()
	enc, err := encodeNodeSnapshot(t, sampleNode(t).Persist)
	if err != nil {
		t.Fatal(err)
	}
	return enc
}

// sampleNode is a seeded node: one keyed submit, a recent ring, a few
// resolved predictions, and a history log of two short days, one of each
// FGCSTRC2 day tag: a compact day of samples at WAL precision, as a node
// records them, which its snapshot writes as a part, and a float32 day
// holding one that is not, as a preloaded trace may, which its FGNS
// payload carries inline. A full day of history is ≈ 30–50 KB;
// TestPersisterCrashQueryTREquality covers snapshots that carry full days.
func sampleNode(t testing.TB) *HostNode {
	t.Helper()
	n := bareDurableNode(t)
	if _, err := n.Gateway.Submit(context.Background(), SubmitReq{Name: "j", WorkSeconds: 3600, MemMB: 50, IdempotencyKey: "retry-1"}); err != nil {
		t.Fatal(err)
	}
	r := rng.New(41)
	log, _, _ := n.SM.ExportHistory()
	for i, exact := range []bool{true, false} {
		day := &trace.Day{Date: codecStart.Truncate(24*time.Hour).AddDate(0, 0, i-2), Period: period}
		for j := 0; j < 11; j++ {
			day.Samples = append(day.Samples, persistSample(r))
		}
		if !exact {
			day.Samples[3].CPU = 12.345
		}
		if err := log.AddDay(day); err != nil {
			t.Fatal(err)
		}
	}
	recent := []trace.Sample{persistSample(r), persistSample(r), {}, persistSample(r)}
	if err := n.SM.RestoreHistory(log, codecStart, recent); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		n.Obs().Tracker.RestoreResolution("lab-01", "SMP", 0.75, i != 1)
	}
	return n
}

// encodeNodeSnapshot publishes p's snapshot through a fresh in-memory store
// and returns its FGNS payload, what the snapshot file holds beside its
// parts.
func encodeNodeSnapshot(t testing.TB, p *Persister) ([]byte, error) {
	t.Helper()
	fs, err := publishNodeSnapshot(t, p)
	if err != nil {
		return nil, err
	}
	return newestSnapshotPayload(t, fs), nil
}

// publishNodeSnapshot publishes p's snapshot, its parts and its payload,
// through a fresh in-memory store and returns the store's files.
func publishNodeSnapshot(t testing.TB, p *Persister) (*durable.MemFS, error) {
	t.Helper()
	fs := durable.NewMemFS()
	st, _, err := durable.Open(durable.Config{FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	p.mu.Lock()
	defer p.mu.Unlock()
	parts, payload, err := p.nodeSnapshot()
	if err != nil {
		return fs, err
	}
	seq, off := st.Position()
	return fs, st.WriteSnapshotAt(seq, off, payload, parts...)
}

// restoreInto returns a decoder that streams an FGNS payload, one whose
// snapshot lists no parts, through p's decoder and installs what it
// decoded.
func restoreInto(p *Persister) func(data []byte) error {
	return func(data []byte) error {
		var dec trace.Decoder
		st, err := p.decodeNodeSnapshot(bytes.NewReader(data), &dec)
		if err == nil {
			err = st.install(p)
		}
		return err
	}
}

// recodeNodeSnapshot installs data into a fresh node and encodes that node.
func recodeNodeSnapshot(t testing.TB, data []byte) ([]byte, error) {
	n := bareDurableNode(t)
	if err := restoreInto(n.Persist)(data); err != nil {
		return nil, err
	}
	return encodeNodeSnapshot(t, n.Persist)
}

// sampleRegSnapshot is the FGRS payload a registry shard holding two
// entries publishes through its RegPersister.
func sampleRegSnapshot(t testing.TB) []byte {
	t.Helper()
	fs := durable.NewMemFS()
	st, rec, err := durable.Open(persistStoreCfg(fs))
	if err != nil {
		t.Fatal(err)
	}
	reg := &fixedRegState{entries: []RegEntry{
		{Machine: "lab-01", Addr: "10.0.0.1:7171", Expires: codecStart.Add(90 * time.Second)},
		{Machine: "lab-02", Addr: "10.0.0.2:7171"},
	}}
	rp, err := NewRegPersister(st, rec, reg, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer rp.Close()
	if err := rp.writeSnapshot(); err != nil {
		t.Fatal(err)
	}
	return newestSnapshotPayload(t, fs)
}

// fixedRegState is a RegState whose entry set is fixed.
type fixedRegState struct{ entries []RegEntry }

func (f *fixedRegState) SetSink(func(RegEntry)) {}
func (f *fixedRegState) Export() []RegEntry     { return f.entries }
func (f *fixedRegState) Restore([]RegEntry)     {}
func (f *fixedRegState) RestoreRemove(string)   {}

// TestSnapshotCodecs pins FGNS version 2 — its payload, the last day inline
// in FGCSTRC2, and its one part, a sealed day — and FGRS to their encoders'
// bytes (FGRS's written by the commit before internal/wire existed),
// decodes them back to the same state, and runs the shared decoder property
// check on each. The FGNS version 1 payloads of the parent formats, the
// whole history inline in FGCSTRC2 or FGCSTRC1, stay decodable and
// re-encode as version 2: the first holds the sample node's state.
// TestPersisterParentFormatDataDir recovers FGCSTRC1 days.
func TestSnapshotCodecs(t *testing.T) {
	t.Run("FGNS", func(t *testing.T) {
		fs, err := publishNodeSnapshot(t, sampleNode(t).Persist)
		if err != nil {
			t.Fatal(err)
		}
		files := snapshotFiles(t, fs)
		good := newestSnapshotPayload(t, fs)
		if len(files) != 2 {
			t.Fatalf("the sample node's snapshot is %d files, want the snapshot and one part", len(files))
		}
		wiretest.Golden(t, "testdata/golden/fgns-v2.hex", good)
		for name, part := range files {
			if strings.HasPrefix(name, "part-") {
				wiretest.Golden(t, "testdata/golden/fgns-v2-part.hex", part)
			}
		}
		if again, err := republish(t, fs); err != nil || !maps.EqualFunc(snapshotFiles(t, again), files, bytes.Equal) {
			t.Fatalf("recover and snapshot again differs from the original (%v)", err)
		}
		// A payload carries whatever history its snapshot's parts do not:
		// all of it, when there are none.
		if again, err := recodeNodeSnapshot(t, good); err != nil || !bytes.Equal(again, good) {
			t.Fatalf("decode and re-encode differs from the original (%v)", err)
		}
		v1 := wiretest.Hex(t, "testdata/golden/fgns-fgcstrc2.hex")
		if again, err := recodeNodeSnapshot(t, v1); err != nil || !bytes.Equal(again, good) {
			t.Fatalf("the version 1 payload re-encodes as\n%x\nwant\n%x (%v)", again, good, err)
		}
		// fgns.hex holds no days: its history differs from its version 2
		// re-encoding in the magic alone.
		parent := wiretest.Hex(t, "testdata/golden/fgns.hex")
		want := bytes.Replace(parent, []byte("FGCSTRC1"), []byte("FGCSTRC2"), 1)
		want[4] = nodeSnapVersion
		if again, err := recodeNodeSnapshot(t, parent); err != nil || !bytes.Equal(again, want) {
			t.Fatalf("the FGCSTRC1 payload re-encodes as\n%x\nwant\n%x (%v)", again, want, err)
		}
		// One node serves every input: a rejected payload installs nothing
		// and an accepted one replaces the state wholesale. Building it
		// outside keeps its allocations out of the decoder's account.
		wiretest.CheckDecoder(t, good, restoreInto(bareDurableNode(t).Persist))
	})
	t.Run("FGRS", func(t *testing.T) {
		good := sampleRegSnapshot(t)
		wiretest.Golden(t, "testdata/golden/fgrs.hex", good)
		entries, err := decodeRegSnapshot(good)
		if err != nil || len(entries) != 2 || !entries[1].Expires.IsZero() || !bytes.Equal(encodeRegSnapshot(entries), good) {
			t.Fatalf("decoded %+v (%v)", entries, err)
		}
		// A snapshot entry is a RecRegister payload: one decoder reads both.
		first := durable.EncodeRegister(nil, "lab-01", "10.0.0.1:7171", timeToMs(entries[0].Expires))
		if !bytes.HasPrefix(good[6:], first) { // 6 = magic, version, count
			t.Errorf("first entry %x is not the register record %x", good[6:], first)
		}
		wiretest.CheckDecoder(t, good, func(p []byte) error { _, err := decodeRegSnapshot(p); return err })
	})
}

// TestNodeSnapshotSubmitKeyClaim is the regression test for the unbounded
// submit-key count: a payload of a few dozen bytes — valid empty history, no
// recent samples, then a claim of 1<<22 submit keys with nothing behind it —
// used to size a map from the claim before the first key failed to parse.
func TestNodeSnapshotSubmitKeyClaim(t *testing.T) {
	empty := bareDurableNode(t)
	good, err := encodeNodeSnapshot(t, empty.Persist)
	if err != nil {
		t.Fatal(err)
	}
	r := wire.NewReader(good, "t")
	r.Header(nodeSnapMagic, nodeSnapVersion)
	hist := r.Bytes() // a valid history holding no samples
	if r.Err() != nil {
		t.Fatal(r.Err())
	}
	crafted := wire.AppendHeader(nil, nodeSnapMagic, nodeSnapVersion)
	crafted = wire.AppendBytes(crafted, hist)
	crafted = wire.AppendVarint(crafted, 0)      // last-sample time
	crafted = wire.AppendUvarint(crafted, 0)     // recent samples
	crafted = wire.AppendUvarint(crafted, 1<<22) // submit keys, and nothing after

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err = restoreInto(empty.Persist)(crafted)
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Errorf("rejecting a %d-byte snapshot allocated %d bytes", len(crafted), grew)
	}
	if err == nil || !strings.Contains(err.Error(), "submit keys") {
		t.Errorf("crafted %d-byte snapshot: err = %v", len(crafted), err)
	}
}

// FuzzDecodeNodeSnapshot hammers the FGNS decoder, which a host node runs on
// the snapshot file it finds in its data directory. No input may panic it or
// allocate out of proportion before it is rejected; an accepted input yields
// a node whose snapshot restores to the same snapshot.
func FuzzDecodeNodeSnapshot(f *testing.F) {
	good := sampleNodeSnapshot(f)
	f.Add(good)
	f.Add(good[:len(good)/2])
	f.Add(append(append([]byte(nil), good...), 0))
	f.Add([]byte("FGNS\x01\x00"))
	f.Fuzz(func(t *testing.T, data []byte) {
		n := bareDurableNode(t)
		if wiretest.Bounded(t, data, restoreInto(n.Persist)) != nil {
			return
		}
		fs, err := publishNodeSnapshot(t, n.Persist)
		if err != nil {
			t.Fatal(err)
		}
		want := snapshotFiles(t, fs)
		if again, err := republish(t, fs); err != nil || !maps.EqualFunc(snapshotFiles(t, again), want, bytes.Equal) {
			t.Fatalf("snapshot of an accepted input does not restore to itself (%v)", err)
		}
	})
}

// FuzzDecodeRegSnapshot does the same for the registry shard's FGRS format.
func FuzzDecodeRegSnapshot(f *testing.F) {
	good := sampleRegSnapshot(f)
	f.Add(good)
	f.Add(good[:len(good)-3])
	f.Add(encodeRegSnapshot(nil))
	f.Add([]byte("FGRS\x01\xFF\xFF\x03"))
	f.Fuzz(func(t *testing.T, data []byte) {
		var entries []RegEntry
		if wiretest.Bounded(t, data, func(p []byte) (err error) { entries, err = decodeRegSnapshot(p); return }) != nil {
			return
		}
		enc := encodeRegSnapshot(entries)
		again, err := decodeRegSnapshot(enc)
		if err != nil || !bytes.Equal(encodeRegSnapshot(again), enc) {
			t.Fatalf("accepted %+v, re-encoded and decoded %+v (%v)", entries, again, err)
		}
	})
}
