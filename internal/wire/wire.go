// Package wire is the codec toolkit shared by the formats that are decoded
// from a whole byte slice: FGAT and FGOS (internal/obs), the WAL record
// payloads (internal/durable), FGRS and the fields after FGNS's history log
// (internal/ishare). The FGSP header is appended here too.
// The Append functions write fields; Reader reads them back and owns the
// hardening rules, so no format restates them:
//
//   - count before allocate: Count checks a claimed element count against
//     the bytes that remain before the caller sizes anything by it;
//   - sticky error: a short or malformed field poisons the Reader, every
//     later read returns a zero value, and the first error is what Err and
//     Done report — a decoder reads a whole layout and checks once, but a
//     loop that inserts into a map or appends must stop on Err() != nil;
//   - no trailing bytes: Done fails unless the input was consumed exactly.
//
// durable's streamed segment and snapshot scans, with the segment scan's
// torn-vs-corrupt verdicts, and the stream decoders (ishare.DecodeFrame on a
// bufio.Reader, trace.ReadBinary on a possibly gzipped io.Reader) stay
// hand-written: a stream cannot see "bytes remaining" and paces allocation
// by arrival instead, and a torn tail is not an error.
package wire

import (
	"encoding/binary"
	"fmt"
	"math"
)

// AppendHeader appends a format's 4-byte magic and its version byte.
func AppendHeader(buf []byte, magic [4]byte, version byte) []byte {
	return append(append(buf, magic[:]...), version)
}

// AppendUvarint appends v as an unsigned varint.
func AppendUvarint(buf []byte, v uint64) []byte { return binary.AppendUvarint(buf, v) }

// AppendVarint appends v as a zigzag varint.
func AppendVarint(buf []byte, v int64) []byte { return binary.AppendVarint(buf, v) }

// AppendFloat64 appends v's exact IEEE-754 bits, little-endian, so a decoded
// sum is bit-identical to the encoded one.
func AppendFloat64(buf []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
}

// AppendBool appends v as one byte, 0 or 1.
func AppendBool(buf []byte, v bool) []byte {
	if v {
		return append(buf, 1)
	}
	return append(buf, 0)
}

// AppendString appends s behind its uvarint length.
func AppendString(buf []byte, s string) []byte {
	return append(binary.AppendUvarint(buf, uint64(len(s))), s...)
}

// AppendBytes appends b behind its uvarint length.
func AppendBytes(buf []byte, b []byte) []byte {
	return append(binary.AppendUvarint(buf, uint64(len(b))), b...)
}

// Reader decodes fields appended by the Append functions from one byte
// slice. Keep it a local value and pass its address down: the decoders it
// serves run on the snapshot and recovery paths and must not allocate for it.
type Reader struct {
	p    []byte
	name string
	err  error
}

// NewReader reads data; name (say "obs: tracker snapshot") prefixes every
// error the Reader reports.
func NewReader(data []byte, name string) Reader { return Reader{p: data, name: name} }

// Fail poisons the Reader with a format-level error — a duplicate key, a
// value out of range — unless an earlier error already did.
func (r *Reader) Fail(format string, args ...interface{}) {
	if r.err == nil {
		r.err = fmt.Errorf("%s: %s", r.name, fmt.Sprintf(format, args...))
		r.p = nil
	}
}

// Err returns the first error, or nil.
func (r *Reader) Err() error { return r.err }

// Done returns the first error, or an error if bytes remain unread.
func (r *Reader) Done() error {
	if len(r.p) != 0 {
		r.Fail("%d trailing bytes", len(r.p))
	}
	return r.err
}

// Header consumes a 4-byte magic and a version byte and fails on a mismatch.
func (r *Reader) Header(magic [4]byte, version byte) {
	if len(r.p) < 5 || [4]byte(r.p[:4]) != magic {
		r.Fail("bad magic")
		return
	}
	if r.p[4] != version {
		r.Fail("unsupported version %d", r.p[4])
		return
	}
	r.p = r.p[5:]
}

// Uvarint consumes an unsigned varint.
func (r *Reader) Uvarint() uint64 {
	v, n := binary.Uvarint(r.p)
	if n <= 0 {
		r.Fail("short or malformed uvarint")
		return 0
	}
	r.p = r.p[n:]
	return v
}

// Varint consumes a zigzag varint.
func (r *Reader) Varint() int64 {
	v, n := binary.Varint(r.p)
	if n <= 0 {
		r.Fail("short or malformed varint")
		return 0
	}
	r.p = r.p[n:]
	return v
}

// Float64 consumes 8 little-endian bytes of IEEE-754 bits.
func (r *Reader) Float64() float64 {
	if len(r.p) < 8 {
		r.Fail("short float64")
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(r.p))
	r.p = r.p[8:]
	return v
}

// Bool consumes one byte and accepts only 0 and 1, so every accepted input
// re-encodes to itself.
func (r *Reader) Bool() bool {
	if len(r.p) < 1 || r.p[0] > 1 {
		r.Fail("short or malformed bool")
		return false
	}
	v := r.p[0] == 1
	r.p = r.p[1:]
	return v
}

// Bytes consumes a uvarint length and that many bytes. The result aliases
// the input.
func (r *Reader) Bytes() []byte {
	n := r.Uvarint()
	if n > uint64(len(r.p)) {
		r.Fail("field of %d bytes in %d", n, len(r.p))
		return nil
	}
	b := r.p[:n:n]
	r.p = r.p[n:]
	return b
}

// String consumes a length-prefixed string.
func (r *Reader) String() string { return string(r.Bytes()) }

// Count consumes a uvarint element count and fails unless the remaining
// bytes can hold that many elements of at least minBytes (>= 1) each. Size
// slices and maps only from its result.
func (r *Reader) Count(minBytes int, what string) int {
	n := r.Uvarint()
	if n > uint64(len(r.p)/minBytes) {
		r.Fail("claims %d %s in %d bytes", n, what, len(r.p))
		return 0
	}
	return int(n)
}
