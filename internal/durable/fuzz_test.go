package durable

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"fgcs/internal/wire/wiretest"
)

// fuzzMaxRecord caps claimed record lengths during fuzzing so a lying length
// prefix can never translate into a large allocation.
const fuzzMaxRecord = 1 << 16

// segSeeds builds the checked-in seed corpus for FuzzReadSegment: a valid
// sealed segment, a torn tail, a bad CRC with valid data after it, and an
// oversize claimed length.
func segSeeds() map[string][]byte {
	valid := appendSegmentHeader(nil, 3)
	valid = appendRecordFrame(valid, RecSample, []byte("sample-payload"))
	valid = appendRecordFrame(valid, RecRegister, []byte("lab-01"))
	valid = appendRecordFrame(valid, recSeal, nil)

	torn := appendSegmentHeader(nil, 0)
	torn = appendRecordFrame(torn, RecSample, []byte("kept"))
	torn = append(torn, appendRecordFrame(nil, RecSample, []byte("cut-mid-frame"))[:7]...)

	badcrc := appendSegmentHeader(nil, 1)
	badcrc = appendRecordFrame(badcrc, RecSample, []byte("first"))
	start := len(badcrc)
	badcrc = appendRecordFrame(badcrc, RecSample, []byte("damaged"))
	badcrc[start+3] ^= 0x10
	badcrc = appendRecordFrame(badcrc, RecSample, []byte("after"))

	oversize := appendSegmentHeader(nil, 2)
	oversize = append(oversize, 0xFF, 0xFF, 0xFF, 0x7F, RecSample, 0x00)

	return map[string][]byte{
		"valid":           valid,
		"truncated-tail":  torn,
		"bad-crc":         badcrc,
		"oversize-length": oversize,
	}
}

// snapSeeds builds the checked-in seed corpus for FuzzReadSnapshot.
func snapSeeds() map[string][]byte {
	valid := encodeSnapshot(4, 1234, []byte("application-state"))

	truncated := encodeSnapshot(1, 99, []byte("soon-cut"))
	truncated = truncated[:len(truncated)-6]

	badcrc := encodeSnapshot(2, 77, []byte("flip-me"))
	badcrc[len(badcrc)/2] ^= 0x01

	oversize := append([]byte(nil), snapMagic[:]...)
	oversize = append(oversize, snapVersion, 0x01, 0x02, 0xFF, 0xFF, 0xFF, 0x7F, 0xAA)

	return map[string][]byte{
		"valid":           valid,
		"truncated-tail":  truncated,
		"bad-crc":         badcrc,
		"oversize-length": oversize,
	}
}

// FuzzReadSegment hammers the segment reader with arbitrary bytes under both
// active- and sealed-segment policies. Invariants: never panics, never
// reports Valid beyond the input, and truncation is idempotent — re-reading
// the valid prefix as an active segment yields the same records with nothing
// torn.
func FuzzReadSegment(f *testing.F) {
	for _, seed := range segSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, last := range []bool{true, false} {
			var recs []Record
			scan, err := ReadSegment(data, last, fuzzMaxRecord, func(off int64, r Record) error {
				recs = append(recs, Record{Type: r.Type, Payload: append([]byte(nil), r.Payload...)})
				return nil
			})
			if scan.Valid > int64(len(data)) {
				t.Fatalf("Valid %d beyond input %d", scan.Valid, len(data))
			}
			if err != nil {
				continue
			}
			if last && scan.TornBytes != len(data)-int(scan.Valid) {
				t.Fatalf("torn accounting off: %d torn, %d trailing", scan.TornBytes, len(data)-int(scan.Valid))
			}
			if scan.Valid < segHeaderLen {
				continue
			}
			var again []Record
			scan2, err := ReadSegment(data[:scan.Valid], true, fuzzMaxRecord, func(off int64, r Record) error {
				again = append(again, Record{Type: r.Type, Payload: append([]byte(nil), r.Payload...)})
				return nil
			})
			if err != nil || scan2.TornBytes != 0 {
				t.Fatalf("valid prefix does not re-read cleanly: %v (torn %d)", err, scan2.TornBytes)
			}
			if len(again) != len(recs) {
				t.Fatalf("re-read of valid prefix yields %d records, first pass %d", len(again), len(recs))
			}
			for i := range recs {
				if recs[i].Type != again[i].Type || !bytes.Equal(recs[i].Payload, again[i].Payload) {
					t.Fatalf("record %d differs between passes", i)
				}
			}
		}
	})
}

// FuzzReadSnapshot hammers the snapshot reader. Invariants: never panics or
// allocates out of proportion (wiretest.Bounded), and anything that decodes
// re-encodes byte-identically (the format is canonical), so a decoded
// snapshot can always be re-persisted.
func FuzzReadSnapshot(f *testing.F) {
	for _, seed := range snapSeeds() {
		f.Add(seed)
	}
	recode := byteCodecs[len(byteCodecs)-1].recode // ReadSnapshot, then encodeSnapshot
	f.Fuzz(func(t *testing.T, data []byte) {
		var again []byte
		if wiretest.Bounded(t, data, func(p []byte) (err error) { again, err = recode(p); return }) != nil {
			return
		}
		if !bytes.Equal(again, data) {
			t.Fatalf("snapshot encoding not canonical:\ngot  %x\nwant %x", again, data)
		}
	})
}

// TestFuzzSeedCorpusCheckedIn pins the generated seed corpora to the files
// under testdata/fuzz so `go test` (without -fuzz) replays them and CI
// notices drift between the generators above and the checked-in bytes.
// Regenerate with FGCS_REGEN_CORPUS=1 go test ./internal/durable/ -run
// TestFuzzSeedCorpusCheckedIn.
func TestFuzzSeedCorpusCheckedIn(t *testing.T) {
	for target, seeds := range map[string]map[string][]byte{
		"FuzzReadSegment":  segSeeds(),
		"FuzzReadSnapshot": snapSeeds(),
	} {
		dir := filepath.Join("testdata", "fuzz", target)
		if os.Getenv("FGCS_REGEN_CORPUS") == "1" {
			if err := os.MkdirAll(dir, 0o755); err != nil {
				t.Fatal(err)
			}
			for name, data := range seeds {
				body := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", data)
				if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
					t.Fatal(err)
				}
			}
		}
		for name, data := range seeds {
			got, err := os.ReadFile(filepath.Join(dir, name))
			if err != nil {
				t.Fatalf("%s/%s missing (regenerate with FGCS_REGEN_CORPUS=1): %v", target, name, err)
			}
			want := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", data)
			if string(got) != want {
				t.Fatalf("%s/%s drifted from its generator", target, name)
			}
		}
	}
}
