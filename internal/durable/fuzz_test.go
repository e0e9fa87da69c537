package durable

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"fgcs/internal/wire/wiretest"
)

// fuzzMaxRecord caps claimed record lengths during fuzzing so a lying length
// prefix can never translate into a large allocation.
const fuzzMaxRecord = 1 << 16

// refReadSnapshot is the whole-buffer snapshot reader recovery ran before
// it streamed, kept as the reference scanFile is held to. It validates
// a snapshot file and returns the WAL position it covers, the parts it
// lists and its payload (aliasing data). Any damage — bad magic, an empty
// part list, claimed length beyond the file, bytes between payload and
// checksum, checksum mismatch — returns ErrCorrupt.
func refReadSnapshot(data []byte) (seq uint64, offset int64, parts []partRef, payload []byte, err error) {
	bad := func(reason string) (uint64, int64, []partRef, []byte, error) {
		return 0, 0, nil, nil, fmt.Errorf("%w: %s", ErrCorrupt, reason)
	}
	if len(data) < 4 {
		return bad("short snapshot")
	}
	body, sum := data[:len(data)-4], binary.LittleEndian.Uint32(data[len(data)-4:])
	if len(body) < 5 || [4]byte(body[:4]) != snapMagic || (body[4] != 1 && body[4] != 2) {
		return bad("bad magic or version")
	}
	p := body[5:]
	uvarint := func() (uint64, bool) {
		x, n := binary.Uvarint(p)
		if n <= 0 {
			return 0, false
		}
		p = p[n:]
		return x, true
	}
	s, ok1 := uvarint()
	o, ok2 := uvarint()
	if !ok1 || !ok2 {
		return bad("short or malformed header")
	}
	if body[4] == 2 {
		n, ok := uvarint()
		if !ok || n == 0 {
			return bad("short or empty part list")
		}
		for ; n > 0; n-- {
			key, ok := uvarint()
			if !ok || len(p) < 4 {
				return bad("short part list")
			}
			parts = append(parts, partRef{key: key, sum: binary.LittleEndian.Uint32(p)})
			p = p[4:]
		}
	}
	if size, ok := uvarint(); !ok || size != uint64(len(p)) {
		return bad("payload length")
	}
	if crc32.Checksum(body, castagnoli) != sum {
		return bad("checksum mismatch")
	}
	return s, int64(o), parts, p, nil
}

// refReadSegment is the whole-buffer segment reader recovery ran before it
// streamed, kept as the reference scanSegment is held to. It scans one
// segment file, streaming each good record to fn with its start offset. last marks the active (highest-seq) segment: only there
// is trailing damage treated as a torn write — reported via TornBytes so the
// store can truncate — and only when nothing but the damage follows. Damage
// in a sealed segment, or a bad record with more data after it, returns
// ErrCorrupt: that cannot be a torn append, someone altered bytes at rest.
// Record payloads passed to fn alias data; callers copy what they keep.
// Claimed lengths above maxRecord (0 = DefaultMaxRecordBytes) are rejected
// without allocating, so the reader is safe on untrusted input.
func refReadSegment(data []byte, last bool, maxRecord int, fn func(off int64, r Record) error) (SegmentScan, error) {
	if maxRecord <= 0 {
		maxRecord = DefaultMaxRecordBytes
	}
	var scan SegmentScan
	if len(data) < segHeaderLen {
		if last {
			// A crash while writing the very first header of a fresh
			// segment: nothing durable was acknowledged in it yet.
			scan.TornBytes = len(data)
			return scan, nil
		}
		return scan, fmt.Errorf("%w: short sealed segment", ErrCorrupt)
	}
	seq, err := parseSegmentHeader(data)
	if err != nil {
		return scan, err
	}
	scan.Seq = seq
	off := int64(segHeaderLen)
	// torn classifies trailing damage: a torn write in the active segment is
	// truncated, anything else refuses.
	torn := func(reason string) (SegmentScan, error) {
		if last && !scan.Sealed {
			scan.Valid = off
			scan.TornBytes = len(data) - int(off)
			return scan, nil
		}
		return scan, fmt.Errorf("%w: %s at offset %d of segment %d", ErrCorrupt, reason, off, seq)
	}
	for int(off) < len(data) {
		if scan.Sealed {
			// Data after a seal cannot come from an append — appends go to
			// the next segment once this one is sealed.
			return scan, fmt.Errorf("%w: data after seal in segment %d", ErrCorrupt, seq)
		}
		rest := data[off:]
		n, vn := binary.Uvarint(rest)
		if vn <= 0 {
			if vn == 0 {
				// Incomplete varint at EOF: a cut mid-length-prefix.
				return torn("truncated record length")
			}
			return scan, fmt.Errorf("%w: malformed record length at offset %d of segment %d", ErrCorrupt, off, seq)
		}
		if n == 0 || n > uint64(maxRecord) {
			// A truncating cut shortens data, it never rewrites the length
			// bytes — an impossible length is corruption wherever it sits.
			return scan, fmt.Errorf("%w: record length %d out of range at offset %d of segment %d", ErrCorrupt, n, off, seq)
		}
		frame := vn + int(n) + 4
		if frame > len(rest) {
			return torn("truncated record")
		}
		want := binary.LittleEndian.Uint32(rest[frame-4 : frame])
		if crc32.Checksum(rest[:frame-4], castagnoli) != want {
			if last && int(off)+frame == len(data) {
				// Bad checksum on the final record with nothing after it:
				// indistinguishable from a partially persisted final sector.
				return torn("checksum mismatch on tail record")
			}
			return scan, fmt.Errorf("%w: checksum mismatch at offset %d of segment %d", ErrCorrupt, off, seq)
		}
		typ := rest[vn]
		if typ == recSeal {
			if n != 1 {
				return scan, fmt.Errorf("%w: seal record with payload in segment %d", ErrCorrupt, seq)
			}
			scan.Sealed = true
			off += int64(frame)
			scan.Valid = off
			continue
		}
		if fn != nil {
			if err := fn(off, Record{Type: typ, Payload: rest[vn+1 : vn+int(n)]}); err != nil {
				return scan, err
			}
		}
		off += int64(frame)
		scan.Valid = off
	}
	scan.Valid = off
	if !last && !scan.Sealed {
		return scan, fmt.Errorf("%w: segment %d is not sealed but is not the active segment", ErrCorrupt, seq)
	}
	return scan, nil
}

// readAll returns the contents of name, read through FS.Open.
func readAll(fs FS, name string) ([]byte, error) {
	f, err := fs.Open(name)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return io.ReadAll(f)
}

// memFileOf returns a MemFS holding data as the file "f".
func memFileOf(data []byte) *MemFS {
	fs := NewMemFS()
	h, _ := fs.Append("f")
	_, _ = h.Write(data)
	return fs
}

// scanBufs are the buffer sizes the streamed scanners run with under the
// fuzz targets: one byte and sixteen make every field straddle a refill, a
// compaction or a growth; snapshotChunk is what recovery uses.
var scanBufs = []int{1, 16, snapshotChunk}

// streamSnapshot runs scanFile over the snapshot file "f" of fs through a buffer
// of bufSize bytes.
func streamSnapshot(fs FS, bufSize int) (seq uint64, offset int64, parts []partRef, payload []byte, err error) {
	f, err := fs.Open("f")
	if err != nil {
		return 0, 0, nil, nil, err
	}
	defer f.Close()
	return scanSnapshotAll(&fileReader{r: f, buf: make([]byte, bufSize)})
}

// scanSnapshotAll runs scanFile over the snapshot file fr reads and returns what
// it read, the payload collected.
func scanSnapshotAll(fr *fileReader) (seq uint64, offset int64, parts []partRef, payload []byte, err error) {
	var got bytes.Buffer
	h, err := scanFile(fr, snapMagic, func(_ *fileHeader, p io.Reader) error {
		_, err := got.ReadFrom(p)
		return err
	})
	if err != nil {
		return 0, 0, nil, nil, err
	}
	return h.seq, h.offset, h.parts, got.Bytes(), nil
}

// sameVerdict reports whether two scans agree: both accepted, or both
// refused as corrupt.
func sameVerdict(a, b error) bool {
	return (a == nil) == (b == nil) && errors.Is(a, ErrCorrupt) == errors.Is(b, ErrCorrupt)
}

// scannedRecord is one record a segment scan handed out, copied.
type scannedRecord struct {
	off int64
	typ byte
	pay string
}

// collect returns a scan callback that appends each record to recs.
func collect(recs *[]scannedRecord) func(off int64, r Record) error {
	return func(off int64, r Record) error {
		*recs = append(*recs, scannedRecord{off, r.Type, string(r.Payload)})
		return nil
	}
}

// streamSegment runs scanSegment over the file "f" of fs through a buffer
// of bufSize bytes.
func streamSegment(fs FS, bufSize int, last bool) (SegmentScan, []scannedRecord, error) {
	f, err := fs.Open("f")
	if err != nil {
		return SegmentScan{}, nil, err
	}
	defer f.Close()
	var recs []scannedRecord
	scan, err := scanSegment(&fileReader{r: f, buf: make([]byte, bufSize)}, last, fuzzMaxRecord, collect(&recs))
	return scan, recs, err
}

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
	valid := encodeSnapshot(4, 1234, nil, []byte("application-state"))

	withParts := encodeSnapshot(6, 4321, []partRef{{key: 1125446400, sum: 0x01020304}, {key: 1125532800, sum: 0xfffefdfc}}, []byte("the last day"))

	truncated := encodeSnapshot(1, 99, nil, []byte("soon-cut"))
	truncated = truncated[:len(truncated)-6]

	badcrc := encodeSnapshot(2, 77, nil, []byte("flip-me"))
	badcrc[len(badcrc)/2] ^= 0x01

	oversize := append([]byte(nil), snapMagic[:]...)
	oversize = append(oversize, snapVersion, 0x01, 0x02, 0xFF, 0xFF, 0xFF, 0x7F, 0xAA)

	return map[string][]byte{
		"valid":           valid,
		"valid-parts":     withParts,
		"truncated-tail":  truncated,
		"bad-crc":         badcrc,
		"oversize-length": oversize,
	}
}

// FuzzReadSegment runs the streamed segment scanner over a MemFS file
// holding arbitrary bytes, under both active- and sealed-segment policies
// and through buffers from one byte to snapshotChunk, against the
// whole-buffer reference: the same verdict, the same Seq, Valid, TornBytes
// and Sealed, and the same records at the same offsets. Invariants on top:
// Valid never passes the input, and truncation is idempotent — re-reading
// the valid prefix as an active segment yields the same records with
// nothing torn.
func FuzzReadSegment(f *testing.F) {
	for _, seed := range segSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		fs := memFileOf(data)
		for _, last := range []bool{true, false} {
			var want []scannedRecord
			wantScan, wantErr := refReadSegment(data, last, fuzzMaxRecord, collect(&want))
			for _, size := range scanBufs {
				scan, recs, err := streamSegment(fs, size, last)
				if !sameVerdict(err, wantErr) || scan != wantScan || !slices.Equal(recs, want) {
					t.Fatalf("last=%v, %d-byte buffer: streamed %+v, %d records (%v); reference %+v, %d records (%v)",
						last, size, scan, len(recs), err, wantScan, len(want), wantErr)
				}
			}
			scan := wantScan
			if scan.Valid > int64(len(data)) {
				t.Fatalf("Valid %d beyond input %d", scan.Valid, len(data))
			}
			if wantErr != nil {
				continue
			}
			if last && scan.TornBytes != len(data)-int(scan.Valid) {
				t.Fatalf("torn accounting off: %d torn, %d trailing", scan.TornBytes, len(data)-int(scan.Valid))
			}
			if scan.Valid < segHeaderLen {
				continue
			}
			scan2, again, err := streamSegment(memFileOf(data[:scan.Valid]), snapshotChunk, true)
			if err != nil || scan2.TornBytes != 0 {
				t.Fatalf("valid prefix does not re-read cleanly: %v (torn %d)", err, scan2.TornBytes)
			}
			if !slices.Equal(again, want) {
				t.Fatalf("re-read of valid prefix yields %d records, first pass %d", len(again), len(want))
			}
		}
	})
}

// FuzzReadSnapshot runs the streamed snapshot scanner over a MemFS file
// holding arbitrary bytes, through buffers from one byte to snapshotChunk,
// against the whole-buffer reference: the same verdict and the same (seq,
// offset, payload). On top, the scanner never panics or allocates out of
// proportion (wiretest.Bounded), and anything that validates re-encodes
// byte-identically (the format is canonical), so a validated snapshot can
// always be re-persisted.
func FuzzReadSnapshot(f *testing.F) {
	for _, seed := range snapSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		wantSeq, wantOff, wantParts, wantPayload, wantErr := refReadSnapshot(data)
		fs := memFileOf(data)
		for _, size := range scanBufs {
			seq, off, parts, payload, err := streamSnapshot(fs, size)
			if !sameVerdict(err, wantErr) || seq != wantSeq || off != wantOff || !slices.Equal(parts, wantParts) || !bytes.Equal(payload, wantPayload) {
				t.Fatalf("%d-byte buffer: streamed (%d, %d, %v, %d bytes, %v); reference (%d, %d, %v, %d bytes, %v)",
					size, seq, off, parts, len(payload), err, wantSeq, wantOff, wantParts, len(wantPayload), wantErr)
			}
		}
		fr := newFileReader(nil)
		if wiretest.Bounded(t, data, func(p []byte) error {
			fr.reset(bytes.NewReader(p))
			_, err := scanFile(fr, snapMagic, nil)
			return err
		}) != nil {
			return
		}
		if again := encodeSnapshot(wantSeq, wantOff, wantParts, wantPayload); !bytes.Equal(again, data) {
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
