package durable

import (
	"bytes"
	"testing"

	"fgcs/internal/wire/wiretest"
)

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
	{"unregister", EncodeUnregister(nil, "lab-02"), func(p []byte) ([]byte, error) {
		m, err := DecodeUnregister(p)
		return EncodeUnregister(nil, m), err
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
