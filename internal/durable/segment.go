package durable

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
)

// Segment file layout:
//
//	magic "FGWS" | version byte | seq uint64 BE          (13-byte header)
//	record*                                              (see below)
//
// Record frame, mirroring the frame.go wire idiom (uvarint lengths, trailing
// checksum):
//
//	uvarint n        n = 1 + len(payload)
//	type byte
//	payload          n-1 bytes
//	crc32c uint32 LE over the whole frame so far (length bytes included)
//
// A rotation seals the segment with a zero-payload record of the reserved
// seal type; every segment but the active (highest-seq) one must end with
// it. The checksum polynomial is Castagnoli, the same one storage systems
// use for torn-write detection.

var segMagic = [4]byte{'F', 'G', 'W', 'S'}

// segVersion is the on-disk segment format version.
const segVersion = 1

// segHeaderLen is the byte length of a segment header.
const segHeaderLen = 4 + 1 + 8

// recSeal marks the end of a sealed (rotated) segment. The type is reserved:
// Append rejects it.
const recSeal = 0xFF

// DefaultMaxRecordBytes caps one record's frame in a Store: Append refuses a
// larger record, and reads treat larger claimed lengths as corruption rather
// than allocating from untrusted input.
const DefaultMaxRecordBytes = 1 << 20

// castagnoli is the CRC32C table shared by all framing.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrCorrupt reports checksummed state that is damaged in a way a torn tail
// cannot explain — a bad record with valid data after it, a sealed segment
// that fails validation, an impossible length. Recovery refuses to proceed
// rather than silently drop acknowledged history.
var ErrCorrupt = errors.New("durable: corrupt state")

// Record is one WAL entry: an application-defined type byte plus an opaque
// payload.
type Record struct {
	// Type tags the payload codec (see the Rec* constants in codec.go).
	Type byte
	// Payload is the encoded record body.
	Payload []byte
}

// appendSegmentHeader appends a segment header for seq.
func appendSegmentHeader(buf []byte, seq uint64) []byte {
	buf = append(buf, segMagic[:]...)
	buf = append(buf, segVersion)
	return binary.BigEndian.AppendUint64(buf, seq)
}

// parseSegmentHeader validates a header and returns its seq.
func parseSegmentHeader(data []byte) (uint64, error) {
	if len(data) < segHeaderLen {
		return 0, fmt.Errorf("%w: short segment header", ErrCorrupt)
	}
	if [4]byte(data[:4]) != segMagic {
		return 0, fmt.Errorf("%w: bad segment magic", ErrCorrupt)
	}
	if data[4] != segVersion {
		return 0, fmt.Errorf("%w: segment version %d", ErrCorrupt, data[4])
	}
	return binary.BigEndian.Uint64(data[5:13]), nil
}

// appendRecordFrame appends one framed record (lengths, type, payload,
// CRC32C trailer) to buf.
func appendRecordFrame(buf []byte, typ byte, payload []byte) []byte {
	start := len(buf)
	buf = binary.AppendUvarint(buf, uint64(1+len(payload)))
	buf = append(buf, typ)
	buf = append(buf, payload...)
	sum := crc32.Checksum(buf[start:], castagnoli)
	return binary.LittleEndian.AppendUint32(buf, sum)
}

// SegmentScan is the outcome of reading one segment file.
type SegmentScan struct {
	// Seq is the segment's sequence number from its header.
	Seq uint64
	// Valid is the byte offset just past the last good record (records plus
	// header); the file is consistent up to here.
	Valid int64
	// TornBytes counts trailing bytes past Valid attributable to a torn
	// write (only ever non-zero for the active segment).
	TornBytes int
	// Sealed reports a clean rotation seal at the end.
	Sealed bool
}

// scanSegment scans the segment file fr reads, streaming each good record to
// fn with its start offset. last marks the active (highest-seq) segment:
// only there is trailing damage treated as a torn write — reported via
// TornBytes so the store can truncate — and only when nothing but the
// damage follows. Damage in a sealed segment, or a bad record with more data
// after it, returns ErrCorrupt: that cannot be a torn append, someone
// altered bytes at rest. Record payloads passed to fn alias fr's buffer
// until fn returns; callers copy what they keep. Claimed lengths above
// maxRecord (0 = DefaultMaxRecordBytes) are rejected before anything is
// read or allocated for them, so the buffer grows at most to the largest
// frame and the reader is safe on untrusted input.
func scanSegment(fr *fileReader, last bool, maxRecord int, fn func(off int64, r Record) error) (SegmentScan, error) {
	if maxRecord <= 0 {
		maxRecord = DefaultMaxRecordBytes
	}
	var scan SegmentScan
	hdr, err := fr.fill(segHeaderLen)
	if err != nil {
		return scan, err
	}
	if len(hdr) < segHeaderLen {
		if last {
			// A crash while writing the very first header of a fresh
			// segment: nothing durable was acknowledged in it yet.
			scan.TornBytes = len(hdr)
			return scan, nil
		}
		return scan, fmt.Errorf("%w: short sealed segment", ErrCorrupt)
	}
	seq, err := parseSegmentHeader(hdr)
	if err != nil {
		return scan, err
	}
	scan.Seq = seq
	fr.skip(segHeaderLen)
	// torn classifies trailing damage — the rest bytes left in the file: a
	// torn write in the active segment is truncated, anything else refuses.
	torn := func(rest int, reason string) (SegmentScan, error) {
		if last && !scan.Sealed {
			scan.Valid = fr.off
			scan.TornBytes = rest
			return scan, nil
		}
		return scan, fmt.Errorf("%w: %s at offset %d of segment %d", ErrCorrupt, reason, fr.off, seq)
	}
	for {
		// A varint ends within MaxVarintLen64 bytes or is malformed; one
		// byte more tells the two apart.
		rest, err := fr.fill(binary.MaxVarintLen64 + 1)
		if err != nil {
			return scan, err
		}
		if len(rest) == 0 {
			break
		}
		if scan.Sealed {
			// Data after a seal cannot come from an append — appends go to
			// the next segment once this one is sealed.
			return scan, fmt.Errorf("%w: data after seal in segment %d", ErrCorrupt, seq)
		}
		n, vn := binary.Uvarint(rest)
		if vn <= 0 {
			if vn == 0 {
				// Incomplete varint at EOF: a cut mid-length-prefix.
				return torn(len(rest), "truncated record length")
			}
			return scan, fmt.Errorf("%w: malformed record length at offset %d of segment %d", ErrCorrupt, fr.off, seq)
		}
		if n == 0 || n > uint64(maxRecord) {
			// A truncating cut shortens data, it never rewrites the length
			// bytes — an impossible length is corruption wherever it sits.
			return scan, fmt.Errorf("%w: record length %d out of range at offset %d of segment %d", ErrCorrupt, n, fr.off, seq)
		}
		frame := vn + int(n) + 4
		// The byte past the frame, if any, tells a tail record from one
		// with data after it.
		if rest, err = fr.fill(frame + 1); err != nil {
			return scan, err
		}
		if frame > len(rest) {
			return torn(len(rest), "truncated record")
		}
		want := binary.LittleEndian.Uint32(rest[frame-4 : frame])
		if crc32.Checksum(rest[:frame-4], castagnoli) != want {
			if last && len(rest) == frame {
				// Bad checksum on the final record with nothing after it:
				// indistinguishable from a partially persisted final sector.
				return torn(frame, "checksum mismatch on tail record")
			}
			return scan, fmt.Errorf("%w: checksum mismatch at offset %d of segment %d", ErrCorrupt, fr.off, seq)
		}
		typ := rest[vn]
		if typ == recSeal {
			if n != 1 {
				return scan, fmt.Errorf("%w: seal record with payload in segment %d", ErrCorrupt, seq)
			}
			scan.Sealed = true
		} else if fn != nil {
			if err := fn(fr.off, Record{Type: typ, Payload: rest[vn+1 : vn+int(n)]}); err != nil {
				return scan, err
			}
		}
		fr.skip(frame)
		scan.Valid = fr.off
	}
	scan.Valid = fr.off
	if !last && !scan.Sealed {
		return scan, fmt.Errorf("%w: segment %d is not sealed but is not the active segment", ErrCorrupt, seq)
	}
	return scan, nil
}
