package durable

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"slices"
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
// arrives in one write or in seeded pieces that straddle the chunk edges.
func TestSnapshotFileMatchesReference(t *testing.T) {
	r := rng.New(5)
	for _, size := range []int{0, 1, 4095, 3*snapshotChunk - 20, 1 << 20} {
		payload := make([]byte, size)
		for i := range payload {
			payload[i] = byte(i * 31)
		}
		for _, pieces := range []string{"one write", "seeded pieces"} {
			fs := NewMemFS()
			st, _, err := Open(Config{FS: fs})
			if err != nil {
				t.Fatal(err)
			}
			if err := st.Append(RecSample, []byte("moves the position off the segment header")); err != nil {
				t.Fatal(err)
			}
			seq, off := st.Position()
			err = st.WriteSnapshotAt(seq, off, int64(size), func(w io.Writer) error {
				for rest := payload; len(rest) > 0; {
					n := len(rest)
					if pieces != "one write" {
						n = min(n, 1+int(r.Uint64()%(snapshotChunk+snapshotChunk/2)))
					}
					if _, err := w.Write(rest[:n]); err != nil {
						return err
					}
					rest = rest[n:]
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			got, err := readAll(fs, snapshotName(seq, off))
			if err != nil {
				t.Fatal(err)
			}
			if want := encodeSnapshot(seq, off, nil, payload); !bytes.Equal(got, want) {
				t.Fatalf("%d-byte payload in %s: snapshot file is %d bytes, reference %d, or differs in content", size, pieces, len(got), len(want))
			}
			if names, _ := fs.List(); len(names) != 2 {
				t.Fatalf("%d-byte payload in %s: files %v, want one segment and one snapshot", size, pieces, names)
			}
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestSnapshotSizeMismatchPublishesNothing: a payload that ends short of its
// declared size or runs past it, or whose writer fails, leaves no snapshot
// and no tmp file behind — also when whole chunks already reached the file —
// and the store recovers the snapshot before it.
func TestSnapshotSizeMismatchPublishesNothing(t *testing.T) {
	fs := NewMemFS()
	st, _, err := Open(Config{FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	if err := snapshotNow(st, []byte("previous")); err != nil {
		t.Fatal(err)
	}
	if err := st.Append(RecSample, []byte("tail")); err != nil {
		t.Fatal(err)
	}
	before, _ := fs.List()
	big := make([]byte, 3*snapshotChunk)
	for _, c := range []struct {
		name     string
		declared int64
		writes   [][]byte
		fail     bool
	}{
		{"short", 10, [][]byte{big[:9]}, false},
		{"long", 10, [][]byte{big[:11]}, false},
		{"long by a second write", 10, [][]byte{big[:10], big[:1]}, false},
		{"short after three chunks", int64(len(big)) + 1, [][]byte{big}, false},
		{"writer error", 10, [][]byte{big[:10]}, true},
	} {
		seq, off := st.Position()
		err := st.WriteSnapshotAt(seq, off, c.declared, func(w io.Writer) error {
			for _, p := range c.writes {
				if _, err := w.Write(p); err != nil {
					return err
				}
			}
			if c.fail {
				return errors.New("exporter failed")
			}
			return nil
		})
		if err == nil {
			t.Fatalf("%s: a payload declared as %d bytes was published", c.name, c.declared)
		}
		if after, _ := fs.List(); !slices.Equal(after, before) {
			t.Fatalf("%s: files %v, want %v", c.name, after, before)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st2, rec := reopen(t, fs, Config{})
	defer st2.Close()
	if string(snapshotPayload(t, rec)) != "previous" || len(rec.Records) != 1 {
		t.Fatalf("recovered snapshot %q and %d records, want the previous one and the tail", snapshotPayload(t, rec), len(rec.Records))
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
