package ishare

import (
	"bytes"
	"context"
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

// sampleNodeSnapshot encodes a seeded node: one keyed submit, a recent ring,
// a few resolved predictions, and a history log holding no day. A day of
// history is 130 KB of trace.WriteBinary's format, which FGNS only frames;
// TestPersisterCrashQueryTREquality covers snapshots that carry days.
func sampleNodeSnapshot(t testing.TB) []byte {
	t.Helper()
	n := bareDurableNode(t)
	if _, err := n.Gateway.Submit(context.Background(), SubmitReq{Name: "j", WorkSeconds: 3600, MemMB: 50, IdempotencyKey: "retry-1"}); err != nil {
		t.Fatal(err)
	}
	r := rng.New(41)
	log, _, _ := n.SM.ExportHistory()
	recent := []trace.Sample{persistSample(r), persistSample(r), {}, persistSample(r)}
	if err := n.SM.RestoreHistory(log, codecStart, recent); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		n.Obs().Tracker.RestoreResolution("lab-01", "SMP", 0.75, i != 1)
	}
	enc, err := encodeNodeSnapshot(t, n.Persist)
	if err != nil {
		t.Fatal(err)
	}
	return enc
}

// encodeNodeSnapshot publishes p's FGNS payload through a fresh in-memory
// store and returns what the snapshot file holds.
func encodeNodeSnapshot(t testing.TB, p *Persister) ([]byte, error) {
	t.Helper()
	fs := durable.NewMemFS()
	st, _, err := durable.Open(durable.Config{FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	p.mu.Lock()
	defer p.mu.Unlock()
	size, write := p.nodeSnapshot()
	seq, off := st.Position()
	if err := st.WriteSnapshotAt(seq, off, size, write); err != nil {
		return nil, err
	}
	return newestSnapshotPayload(t, fs), nil
}

// restoreInto returns a decoder that streams an FGNS payload through p's
// decoder and installs what it decoded.
func restoreInto(p *Persister) func(data []byte) error {
	return func(data []byte) error {
		install, err := p.decodeNodeSnapshot(bytes.NewReader(data))
		if err == nil {
			err = install()
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

// TestSnapshotCodecs pins FGNS and FGRS to bytes written by the commit
// before internal/wire existed, decodes them back to the same state, and
// runs the shared decoder property check on each.
func TestSnapshotCodecs(t *testing.T) {
	t.Run("FGNS", func(t *testing.T) {
		good := sampleNodeSnapshot(t)
		wiretest.Golden(t, "testdata/golden/fgns.hex", good)
		if again, err := recodeNodeSnapshot(t, good); err != nil || !bytes.Equal(again, good) {
			t.Fatalf("decode and re-encode differs from the original (%v)", err)
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
		enc, err := encodeNodeSnapshot(t, n.Persist)
		if err != nil {
			t.Fatal(err)
		}
		if again, err := recodeNodeSnapshot(t, enc); err != nil || !bytes.Equal(again, enc) {
			t.Fatalf("snapshot of an accepted input does not restore to itself (%v):\n%x\n%x", err, enc, again)
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
