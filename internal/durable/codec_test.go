package durable

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"testing"

	"fgcs/internal/wire"
	"fgcs/internal/wire/wiretest"
)

// encodeSnapshot frames payload as a snapshot covering (seq, offset) in one
// buffer, as the store did before it streamed the three parts: the reference
// the streamed file is held to.
func encodeSnapshot(seq uint64, offset int64, payload []byte) []byte {
	buf := make([]byte, 0, len(payload)+32)
	buf = wire.AppendHeader(buf, snapMagic, snapVersion)
	buf = wire.AppendUvarint(buf, seq)
	buf = wire.AppendUvarint(buf, uint64(offset))
	buf = wire.AppendBytes(buf, payload)
	return binary.LittleEndian.AppendUint32(buf, crc32.Checksum(buf, castagnoli))
}

// TestSnapshotFileMatchesReference compares the file WriteSnapshotAt leaves
// behind with the single-buffer encoding, byte for byte.
func TestSnapshotFileMatchesReference(t *testing.T) {
	for _, size := range []int{0, 1, 4095, 1 << 20} {
		fs := NewMemFS()
		st, _, err := Open(Config{FS: fs})
		if err != nil {
			t.Fatal(err)
		}
		if err := st.Append(RecSample, []byte("moves the position off the segment header")); err != nil {
			t.Fatal(err)
		}
		payload := make([]byte, size)
		for i := range payload {
			payload[i] = byte(i * 31)
		}
		seq, off := st.Position()
		if err := st.WriteSnapshotAt(seq, off, payload); err != nil {
			t.Fatal(err)
		}
		got, err := fs.ReadFile(snapshotName(seq, off))
		if err != nil {
			t.Fatal(err)
		}
		if want := encodeSnapshot(seq, off, payload); !bytes.Equal(got, want) {
			t.Fatalf("%d-byte payload: snapshot file is %d bytes, reference %d, or differs in content", size, len(got), len(want))
		}
		if names, _ := fs.List(); len(names) != 2 {
			t.Fatalf("%d-byte payload: files %v, want one segment and one snapshot", size, names)
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// byteCodecs lists the slice-decoded formats of this package — the four
// component record payloads and the snapshot file — each with one seeded
// encoding and a recode function that decodes its input and re-encodes the
// values it read.
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
	{"snapshot", encodeSnapshot(4, 1234, []byte("application-state")), func(p []byte) ([]byte, error) {
		seq, off, payload, err := ReadSnapshot(p)
		return encodeSnapshot(seq, off, payload), err
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
