package durable

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"strconv"
	"strings"

	"fgcs/internal/wire"
)

// Snapshot file layout:
//
//	magic "FGSP" | version byte       1, or 2 when the snapshot lists parts
//	uvarint seq | uvarint offset      WAL position the payload covers
//	uvarint parts                     version 2 only, at least one:
//	  uvarint key | crc32c uint32 LE    a part's key and its file's trailer
//	uvarint len(payload) | payload    opaque application state
//	crc32c uint32 LE                  over everything above
//
// Part file layout, one file per key, named for it:
//
//	magic "FGPT" | version 1
//	uvarint key | uvarint len(payload) | payload
//	crc32c uint32 LE
//
// Every file is written under a .tmp name, synced, then renamed into place,
// so it either exists whole or not at all, and a snapshot's parts are in
// place before the snapshot is. A snapshot's name carries the same (seq,
// offset) as its header so recovery can order candidates without opening
// them; its part list carries each part's checksum, so a part file that is
// not the one the snapshot was written with fails its validation.

var (
	snapMagic = [4]byte{'F', 'G', 'S', 'P'}
	partMagic = [4]byte{'F', 'G', 'P', 'T'}
)

// On-disk format versions.
const (
	snapVersion      = 1 // a snapshot that lists no parts
	snapVersionParts = 2 // a snapshot that lists parts
	partVersion      = 1
)

// snapshotName names the snapshot covering WAL position (seq, offset).
func snapshotName(seq uint64, offset int64) string {
	return fmt.Sprintf("snap-%016x-%016x.snap", seq, uint64(offset))
}

// segmentName names the WAL segment with the given sequence number.
func segmentName(seq uint64) string {
	return fmt.Sprintf("wal-%016x.seg", seq)
}

// partName names the part file of key.
func partName(key uint64) string {
	return fmt.Sprintf("part-%016x.part", key)
}

// parseSnapshotName extracts (seq, offset) from a snapshot file name.
func parseSnapshotName(name string) (seq uint64, offset int64, ok bool) {
	f, ok := nameFields(name, "snap-", ".snap", 2)
	return f[0], int64(f[1]), ok
}

// parseSegmentName extracts the sequence number from a segment file name.
func parseSegmentName(name string) (seq uint64, ok bool) {
	f, ok := nameFields(name, "wal-", ".seg", 1)
	return f[0], ok
}

// parsePartName extracts the key from a part file name.
func parsePartName(name string) (key uint64, ok bool) {
	f, ok := nameFields(name, "part-", ".part", 1)
	return f[0], ok
}

// nameFields parses a file name made of prefix, n fields of 16 hex digits
// joined by '-', and suffix. It allocates nothing: retention parses every
// name in the directory at every snapshot.
func nameFields(name, prefix, suffix string, n int) (f [2]uint64, ok bool) {
	if len(name) != len(prefix)+17*n-1+len(suffix) || !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, suffix) {
		return f, false
	}
	for i := 0; i < n; i++ {
		at := len(prefix) + 17*i
		if i > 0 && name[at-1] != '-' {
			return f, false
		}
		v, err := strconv.ParseUint(name[at:at+16], 16, 64)
		if err != nil {
			return f, false
		}
		f[i] = v
	}
	return f, true
}

// partRef is one entry of a snapshot's part list: the part's key and the
// CRC32C trailer of its file.
type partRef struct {
	key uint64
	sum uint32
}

// fileHeader is what a snapshot's or a part's header says, and the file's
// CRC32C trailer once the file has validated.
type fileHeader struct {
	seq    uint64    // snapshot: the WAL position the payload covers
	offset int64     // snapshot
	parts  []partRef // snapshot: the parts it lists
	key    uint64    // part
	size   int64     // payload bytes
	sum    uint32    // the trailer
}

// appendSnapshotHeader appends the header of a snapshot covering (seq,
// offset) that lists parts, up to and including its payload size.
func appendSnapshotHeader(buf []byte, seq uint64, offset int64, parts []partRef, size int64) []byte {
	version := byte(snapVersion)
	if len(parts) > 0 {
		version = snapVersionParts
	}
	buf = wire.AppendHeader(buf, snapMagic, version)
	buf = wire.AppendUvarint(buf, seq)
	buf = wire.AppendUvarint(buf, uint64(offset))
	if len(parts) > 0 {
		buf = wire.AppendUvarint(buf, uint64(len(parts)))
		for _, p := range parts {
			buf = binary.LittleEndian.AppendUint32(wire.AppendUvarint(buf, p.key), p.sum)
		}
	}
	return wire.AppendUvarint(buf, uint64(size))
}

// appendPartHeader appends the header of key's part file, up to and
// including its payload size.
func appendPartHeader(buf []byte, key uint64, size int64) []byte {
	buf = wire.AppendHeader(buf, partMagic, partVersion)
	buf = wire.AppendUvarint(buf, key)
	return wire.AppendUvarint(buf, uint64(size))
}

// corrupt reports damage to the file kind names.
func corrupt(kind, reason string) error { return fmt.Errorf("%w: %s: %s", ErrCorrupt, kind, reason) }

// fileKind names the kind of file magic frames, for errors.
func fileKind(magic [4]byte) string {
	if magic == partMagic {
		return "part"
	}
	return "snapshot"
}

// headerReader consumes a file header's fields through a fileReader,
// summing them into the file's CRC32C; the first failure sticks in err.
type headerReader struct {
	fr   *fileReader
	kind string
	sum  uint32
	err  error
}

// take consumes the next n bytes, which the buffer must hold whole.
func (h *headerReader) take(n int, what string) []byte {
	if h.err != nil {
		return nil
	}
	b, err := h.fr.fill(n)
	if err == nil && len(b) < n {
		err = corrupt(h.kind, what)
	}
	if err != nil {
		h.err = err
		return nil
	}
	h.sum = crc32.Update(h.sum, castagnoli, b[:n])
	h.fr.skip(n)
	return b[:n]
}

func (h *headerReader) uvarint() uint64 {
	if h.err != nil {
		return 0
	}
	b, err := h.fr.fill(binary.MaxVarintLen64)
	if err != nil {
		h.err = err
		return 0
	}
	x, n := binary.Uvarint(b)
	if n <= 0 {
		h.err = corrupt(h.kind, "short or malformed header")
		return 0
	}
	h.take(n, "")
	return x
}

// readHeader reads the header of a snapshot (magic snapMagic) or a part
// file (partMagic) from fr and returns it with the CRC32C of its bytes. A
// part list is read as its entries arrive, never sized by its count.
func readHeader(fr *fileReader, magic [4]byte) (h fileHeader, sum uint32, err error) {
	r := headerReader{fr: fr, kind: fileKind(magic)}
	hdr := r.take(5, "bad magic or version")
	if r.err != nil {
		return h, 0, r.err
	}
	switch version := hdr[4]; {
	case [4]byte(hdr[:4]) != magic:
		return h, 0, corrupt(r.kind, "bad magic or version")
	case magic == partMagic && version == partVersion:
		h.key = r.uvarint()
	case magic == snapMagic && (version == snapVersion || version == snapVersionParts):
		h.seq, h.offset = r.uvarint(), int64(r.uvarint())
		if version == snapVersionParts {
			n := r.uvarint()
			if n == 0 && r.err == nil {
				r.err = corrupt(r.kind, "a part list of none")
			}
			for ; n > 0 && r.err == nil; n-- {
				key := r.uvarint()
				if b := r.take(4, "short or malformed header"); b != nil {
					h.parts = append(h.parts, partRef{key: key, sum: binary.LittleEndian.Uint32(b)})
				}
			}
		}
	default:
		return h, 0, corrupt(r.kind, "bad magic or version")
	}
	size := r.uvarint()
	if r.err == nil && size > math.MaxInt64 {
		r.err = corrupt(r.kind, "payload size out of range")
	}
	h.size = int64(size)
	return h, r.sum, r.err
}

// scanFile validates the snapshot or part file fr reads — header, payload
// and CRC32C trailer, streamed through fr's buffer — and returns its
// header. Once the header is read it hands the payload to fn (nil skips
// it) as a reader of exactly h.size bytes; whatever fn leaves unread is
// read and checksummed after it returns. Any damage — bad magic, a payload
// or trailer cut short, bytes after the trailer, a checksum mismatch —
// returns ErrCorrupt, in preference to fn's own error, which the damage
// explains; these files are published atomically, so unlike the active
// segment there is no torn state to tolerate.
func scanFile(fr *fileReader, magic [4]byte, fn func(h *fileHeader, payload io.Reader) error) (fileHeader, error) {
	h, sum, err := readHeader(fr, magic)
	if err != nil {
		return fileHeader{}, err
	}
	kind := fileKind(magic)
	left := &io.LimitedReader{R: fr, N: h.size}
	crc := crcWriter(sum)
	payload := io.TeeReader(left, &crc)
	if fn != nil {
		err = fn(&h, payload)
	}
	// What fn left unread is checksummed where fr buffered it.
	for left.N > 0 {
		b, rerr := fr.fill(1)
		if rerr != nil {
			return fileHeader{}, rerr
		}
		if len(b) == 0 {
			break // cut short
		}
		b = b[:min(int64(len(b)), left.N)]
		crc.Write(b)
		fr.skip(len(b))
		left.N -= int64(len(b))
	}
	trailer, rerr := fr.fill(5)
	switch {
	case rerr != nil:
		return fileHeader{}, rerr
	case left.N > 0:
		return fileHeader{}, corrupt(kind, "payload cut short")
	case len(trailer) != 4:
		return fileHeader{}, corrupt(kind, fmt.Sprintf("%d bytes where the 4-byte checksum belongs", len(trailer)))
	case binary.LittleEndian.Uint32(trailer) != uint32(crc):
		return fileHeader{}, corrupt(kind, "checksum mismatch")
	}
	h.sum = uint32(crc)
	return h, err
}

// crcWriter runs a CRC32C over what is written to it.
type crcWriter uint32

func (c *crcWriter) Write(p []byte) (int, error) {
	*c = crcWriter(crc32.Update(uint32(*c), castagnoli, p))
	return len(p), nil
}

// snapshotChunk is the buffer recovery reads every snapshot and part file
// through (but for a larger frame).
const snapshotChunk = 64 << 10

// publishFile publishes the file name atomically — tmp file, sync, rename —
// and returns its CRC32C trailer. It writes hdr, which ends in the payload
// size, then each piece of the payload, then the trailer, one Write each;
// an error from the file removes the tmp file.
func publishFile(fs FS, name string, hdr []byte, payload ...[]byte) (uint32, error) {
	tmp := name + ".tmp"
	f, err := fs.Append(tmp)
	if err != nil {
		return 0, err
	}
	sum := crc32.Checksum(hdr, castagnoli)
	_, err = f.Write(hdr)
	for _, p := range payload {
		if err == nil {
			sum = crc32.Update(sum, castagnoli, p)
			_, err = f.Write(p)
		}
	}
	if err == nil {
		_, err = f.Write(binary.LittleEndian.AppendUint32(hdr[:0], sum))
	}
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		_ = fs.Remove(tmp)
		return 0, err
	}
	return sum, fs.Rename(tmp, name)
}
