package durable

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"slices"
	"strings"
	"testing"

	"fgcs/internal/rng"
	"fgcs/internal/wire"
	"fgcs/internal/wire/wiretest"
)

// encodeSnapshot frames payload as a snapshot covering (seq, offset) that
// lists parts, in one buffer, as the store did before it streamed the
// file: the reference the streamed file is held to.
func encodeSnapshot(seq uint64, offset int64, parts []partRef, payload []byte) []byte {
	buf := make([]byte, 0, len(payload)+32)
	if len(parts) == 0 {
		buf = wire.AppendHeader(buf, snapMagic, 1)
	} else {
		buf = wire.AppendHeader(buf, snapMagic, 2)
	}
	buf = wire.AppendUvarint(buf, seq)
	buf = wire.AppendUvarint(buf, uint64(offset))
	if len(parts) > 0 {
		buf = wire.AppendUvarint(buf, uint64(len(parts)))
		for _, p := range parts {
			buf = binary.LittleEndian.AppendUint32(wire.AppendUvarint(buf, p.key), p.sum)
		}
	}
	buf = wire.AppendBytes(buf, payload)
	return binary.LittleEndian.AppendUint32(buf, crc32.Checksum(buf, castagnoli))
}

// TestSnapshotFileMatchesReference compares the file WriteSnapshotAt leaves
// behind with the single-buffer encoding, byte for byte, whether the payload
// is one slice or seeded pieces.
func TestSnapshotFileMatchesReference(t *testing.T) {
	r := rng.New(5)
	for _, size := range []int{0, 1, 4095, 3*snapshotChunk - 20, 1 << 20} {
		payload := make([]byte, size)
		for i := range payload {
			payload[i] = byte(i * 31)
		}
		for _, pieces := range []string{"one slice", "seeded pieces"} {
			var split [][]byte
			for rest := payload; len(rest) > 0; {
				n := len(rest)
				if pieces != "one slice" {
					n = min(n, 1+int(r.Uint64()%(snapshotChunk+snapshotChunk/2)))
				}
				split, rest = append(split, rest[:n]), rest[n:]
			}
			fs := NewMemFS()
			st, _, err := Open(Config{FS: fs})
			if err != nil {
				t.Fatal(err)
			}
			if err := st.Append(RecSample, []byte("moves the position off the segment header")); err != nil {
				t.Fatal(err)
			}
			seq, off := st.Position()
			if err := st.WriteSnapshotAt(seq, off, split); err != nil {
				t.Fatal(err)
			}
			got, err := readAll(fs, snapshotName(seq, off))
			if err != nil {
				t.Fatal(err)
			}
			if want := encodeSnapshot(seq, off, nil, payload); !bytes.Equal(got, want) {
				t.Fatalf("%d-byte payload as %s: snapshot file is %d bytes, reference %d, or differs in content", size, pieces, len(got), len(want))
			}
			if names, _ := fs.List(); len(names) != 2 {
				t.Fatalf("%d-byte payload as %s: files %v, want one segment and one snapshot", size, pieces, names)
			}
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}
}

var errFault = errors.New("injected file fault")

// failFS fails one operation on the .tmp files written through it: the
// write numbered failWrite, counting from 0, after half its bytes have
// reached the file, or the sync numbered failSync (-1: none).
type failFS struct {
	FS
	failWrite, failSync int
	writes, syncs       int
}

type failFile struct {
	File
	fs *failFS
}

func (fs *failFS) Append(name string) (File, error) {
	f, err := fs.FS.Append(name)
	if err != nil || !isTmp(name) {
		return f, err
	}
	return failFile{File: f, fs: fs}, nil
}

func (f failFile) Write(p []byte) (int, error) {
	if f.fs.writes++; f.fs.writes-1 == f.fs.failWrite {
		n, _ := f.File.Write(p[:len(p)/2])
		return n, errFault
	}
	return f.File.Write(p)
}

func (f failFile) Sync() error {
	if f.fs.syncs++; f.fs.syncs-1 == f.fs.failSync {
		return errFault
	}
	return f.File.Sync()
}

// TestPublishFailureLeavesThePreviousSnapshot fails each write and each
// sync of a snapshot that lists a published part and a new one in turn:
// the new part's file takes writes 0-2 (header, bytes, trailer) and sync
// 0, the snapshot's writes 3-6 (header, two payload pieces, trailer) and
// sync 1. No failure leaves a snapshot or a .tmp file; a part whose own
// file completed stays, unlisted. Recovery finds the previous snapshot
// and its tail, and the store publishes the next snapshot once the faults
// stop.
func TestPublishFailureLeavesThePreviousSnapshot(t *testing.T) {
	const writes, syncs = 7, 2
	for i := 0; i < writes+syncs; i++ {
		mem := NewMemFS()
		fs := &failFS{FS: mem, failWrite: -1, failSync: -1}
		st, _ := reopen(t, fs, Config{})
		seq, off := st.Position()
		if err := st.WriteSnapshotAt(seq, off, [][]byte{[]byte("previous")}, dayPart(1)); err != nil {
			t.Fatal(err)
		}
		if err := st.Append(RecSample, []byte("tail")); err != nil {
			t.Fatal(err)
		}
		want, _ := mem.List()
		if i >= 3 && i < writes || i == writes+1 {
			want = append(want, partName(2))
			slices.Sort(want)
		}
		fs.writes, fs.syncs = 0, 0
		if i < writes {
			fs.failWrite = i
		} else {
			fs.failSync = i - writes
		}
		seq, off = st.Position()
		next := [][]byte{[]byte("next "), []byte("snapshot")}
		if err := st.WriteSnapshotAt(seq, off, next, dayPart(1), dayPart(2)); !errors.Is(err, errFault) {
			t.Fatalf("fault %d: WriteSnapshotAt returned %v, want the fault", i, err)
		}
		if got, _ := mem.List(); !slices.Equal(got, want) {
			t.Fatalf("fault %d: files %v, want %v", i, got, want)
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		fs.failWrite, fs.failSync = -1, -1
		st, rec := reopen(t, fs, Config{})
		if payload, parts, err := readParts(t, rec); err != nil || string(payload) != "previous" || len(parts) != 1 || len(rec.Records) != 1 {
			t.Fatalf("fault %d: recovered %q with %d parts and %d records (%v), want the previous snapshot and its tail", i, payload, len(parts), len(rec.Records), err)
		}
		seq, off = st.Position()
		if err := st.WriteSnapshotAt(seq, off, next, dayPart(1), dayPart(2)); err != nil {
			t.Fatalf("fault %d: the next snapshot failed: %v", i, err)
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		_, rec = reopen(t, mem, Config{})
		if payload, parts, err := readParts(t, rec); err != nil || string(payload) != "next snapshot" || strings.Join(parts, ",") != "part 1,part 2" {
			t.Fatalf("fault %d: recovered %q with parts %q (%v) after the faults stopped", i, payload, parts, err)
		}
	}
}

// codecReader is the buffer the snapshot entry of byteCodecs streams
// through, allocated once so that wiretest.Bounded counts only what the
// scan allocates.
var codecReader = newFileReader(nil)

// byteCodecs lists the formats of this package — the four component record
// payloads, decoded from a slice, and the snapshot file, streamed — each
// with one seeded encoding and a recode function that decodes its input and
// re-encodes the values it read.
var byteCodecs = []struct {
	name   string
	good   []byte
	recode func(p []byte) ([]byte, error)
}{
	{"register", EncodeRegister(nil, "lab-01", "10.0.0.1:7070", 1126166400000), func(p []byte) ([]byte, error) {
		m, a, exp, err := DecodeRegister(p)
		return EncodeRegister(nil, m, a, exp), err
	}},
	{"unregister", wire.AppendString(nil, "lab-02"), func(p []byte) ([]byte, error) {
		m, err := DecodeUnregister(p)
		return wire.AppendString(nil, m), err
	}},
	{"submitkey", EncodeSubmitKey(nil, "key-9", "lab-01-job-3"), func(p []byte) ([]byte, error) {
		k, id, err := DecodeSubmitKey(p)
		return EncodeSubmitKey(nil, k, id), err
	}},
	{"accuracy", EncodeAccuracy(nil, "lab-01", "SMP", 0.8125, true), func(p []byte) ([]byte, error) {
		m, pr, tr, sv, err := DecodeAccuracy(p)
		return EncodeAccuracy(nil, m, pr, tr, sv), err
	}},
	{"snapshot", encodeSnapshot(4, 1234, nil, []byte("application-state")), func(p []byte) ([]byte, error) {
		codecReader.reset(bytes.NewReader(p))
		seq, off, parts, payload, err := scanSnapshotAll(codecReader)
		return encodeSnapshot(seq, off, parts, payload), err
	}},
	{"snapshot-parts", encodeSnapshot(5, 77, []partRef{{key: 1125446400, sum: 0xdeadbeef}, {key: 1125532800, sum: 7}}, []byte("the last day")), func(p []byte) ([]byte, error) {
		codecReader.reset(bytes.NewReader(p))
		seq, off, parts, payload, err := scanSnapshotAll(codecReader)
		return encodeSnapshot(seq, off, parts, payload), err
	}},
}

// TestByteCodecs pins every encoder to bytes written by the commit before
// internal/wire existed, decodes them back, and runs the shared decoder
// property check on each.
func TestByteCodecs(t *testing.T) {
	for _, c := range byteCodecs {
		t.Run(c.name, func(t *testing.T) {
			wiretest.Golden(t, "testdata/golden/"+c.name+".hex", c.good)
			if again, err := c.recode(c.good); err != nil || !bytes.Equal(again, c.good) {
				t.Fatalf("decode and re-encode gave %x (%v), want %x", again, err, c.good)
			}
			wiretest.CheckDecoder(t, c.good, func(p []byte) error { _, err := c.recode(p); return err })
		})
	}
}

// TestAccuracyRecordBool pins the one tightening of the record formats: the
// outcome byte is 0 or 1, so an accepted record re-encodes to itself.
func TestAccuracyRecordBool(t *testing.T) {
	rec := EncodeAccuracy(nil, "m", "SMP", 0.5, false)
	rec[len(rec)-1] = 2
	if _, _, _, _, err := DecodeAccuracy(rec); err == nil {
		t.Fatal("outcome byte 2 accepted")
	}
}

// FuzzDecodeRecords hammers the four record-payload decoders the recovery
// path runs on every WAL record. No input may panic one or allocate out of
// proportion before it is rejected, and whatever one accepts re-encodes to
// bytes that decode to the same values.
func FuzzDecodeRecords(f *testing.F) {
	for _, c := range byteCodecs {
		f.Add(c.good)
		f.Add(c.good[:len(c.good)-1])
	}
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0x7F, 'x'})
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, c := range byteCodecs[:len(byteCodecs)-1] {
			var enc []byte
			if wiretest.Bounded(t, data, func(p []byte) (err error) { enc, err = c.recode(p); return }) != nil {
				continue
			}
			if again, err := c.recode(enc); err != nil || !bytes.Equal(again, enc) {
				t.Fatalf("%s: accepted %x, re-encoded %x, which decodes to %x (%v)", c.name, data, enc, again, err)
			}
		}
	})
}
