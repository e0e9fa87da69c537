package durable

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"

	"fgcs/internal/wire"
)

// Snapshot file layout:
//
//	magic "FGSP" | version byte
//	uvarint seq | uvarint offset      WAL position the payload covers
//	uvarint len(payload) | payload    opaque application state
//	crc32c uint32 LE                  over everything above
//
// The file is written under a .tmp name, synced, then renamed into place, so
// a snapshot either exists whole or not at all; its name carries the same
// (seq, offset) as the header so recovery can order candidates without
// opening them.

var snapMagic = [4]byte{'F', 'G', 'S', 'P'}

// snapVersion is the on-disk snapshot format version.
const snapVersion = 1

// snapshotName names the snapshot covering WAL position (seq, offset).
func snapshotName(seq uint64, offset int64) string {
	return fmt.Sprintf("snap-%016x-%016x.snap", seq, uint64(offset))
}

// segmentName names the WAL segment with the given sequence number.
func segmentName(seq uint64) string {
	return fmt.Sprintf("wal-%016x.seg", seq)
}

// parseSnapshotName extracts (seq, offset) from a snapshot file name.
func parseSnapshotName(name string) (seq uint64, offset int64, ok bool) {
	var s, o uint64
	if n, err := fmt.Sscanf(name, "snap-%016x-%016x.snap", &s, &o); err != nil || n != 2 {
		return 0, 0, false
	}
	return s, int64(o), true
}

// parseSegmentName extracts the sequence number from a segment file name.
func parseSegmentName(name string) (seq uint64, ok bool) {
	var s uint64
	if n, err := fmt.Sscanf(name, "wal-%016x.seg", &s); err != nil || n != 1 {
		return 0, false
	}
	return s, true
}

// snapHeaderMax bounds a snapshot header: magic, version, three uvarints.
const snapHeaderMax = 5 + 3*binary.MaxVarintLen64

// scanSnapshot validates the snapshot file fr reads — header, payload and
// CRC32C trailer, streamed through fr's buffer — and returns the WAL
// position it covers and its payload size. Once the header is read it hands
// the payload to fn (nil skips it) as a reader of exactly size bytes;
// whatever fn leaves unread is read and checksummed after it returns. Any
// damage — bad magic, a payload or trailer cut short, bytes after the
// trailer, a checksum mismatch — returns ErrCorrupt, in preference to fn's
// own error, which the damage explains; snapshots are published atomically,
// so unlike the active segment there is no torn state to tolerate.
func scanSnapshot(fr *fileReader, fn func(seq uint64, offset, size int64, payload io.Reader) error) (seq uint64, offset, size int64, err error) {
	corrupt := func(reason string) error { return fmt.Errorf("%w: snapshot: %s", ErrCorrupt, reason) }
	hdr, err := fr.fill(snapHeaderMax)
	if err != nil {
		return 0, 0, 0, err
	}
	if len(hdr) < 5 || [4]byte(hdr[:4]) != snapMagic || hdr[4] != snapVersion {
		return 0, 0, 0, corrupt("bad magic or version")
	}
	var v [3]uint64 // seq, offset, payload size
	rest := hdr[5:]
	for i := range v {
		x, n := binary.Uvarint(rest)
		if n <= 0 {
			return 0, 0, 0, corrupt("short or malformed header")
		}
		v[i], rest = x, rest[n:]
	}
	if v[2] > math.MaxInt64 {
		return 0, 0, 0, corrupt("payload size out of range")
	}
	sum := crc32.New(castagnoli)
	sum.Write(hdr[:len(hdr)-len(rest)])
	fr.skip(len(hdr) - len(rest))
	left := &io.LimitedReader{R: fr, N: int64(v[2])}
	payload := io.TeeReader(left, sum)
	if fn != nil {
		err = fn(v[0], int64(v[1]), int64(v[2]), payload)
	}
	if _, rerr := io.Copy(io.Discard, payload); rerr != nil {
		return 0, 0, 0, rerr
	}
	trailer, rerr := fr.fill(5)
	switch {
	case rerr != nil:
		return 0, 0, 0, rerr
	case left.N > 0:
		return 0, 0, 0, corrupt("payload cut short")
	case len(trailer) != 4:
		return 0, 0, 0, corrupt(fmt.Sprintf("%d bytes where the 4-byte checksum belongs", len(trailer)))
	case binary.LittleEndian.Uint32(trailer) != sum.Sum32():
		return 0, 0, 0, corrupt("checksum mismatch")
	}
	return v[0], int64(v[1]), int64(v[2]), err
}

// snapshotChunk bounds the one buffer a snapshot file is written through,
// and the one recovery reads every file through (but for a larger frame).
const snapshotChunk = 64 << 10

// snapshotWriter streams a snapshot file through its chunk, writing full
// chunks at multiples of snapshotChunk and a shorter one where the declared
// bytes end; it runs the CRC32C and refuses bytes beyond the declared count.
type snapshotWriter struct {
	f     File
	chunk []byte
	sum   uint32
	left  int64 // bytes still to come
	err   error
}

func (w *snapshotWriter) Write(p []byte) (int, error) {
	if w.err == nil && int64(len(p)) > w.left {
		w.err = fmt.Errorf("durable: snapshot payload runs past its declared size")
	}
	if w.err != nil {
		return 0, w.err
	}
	w.left -= int64(len(p))
	w.sum = crc32.Update(w.sum, castagnoli, p)
	for rest := p; len(rest) > 0 && w.err == nil; {
		n := copy(w.chunk[len(w.chunk):cap(w.chunk)], rest)
		w.chunk, rest = w.chunk[:len(w.chunk)+n], rest[n:]
		if len(w.chunk) == cap(w.chunk) || w.left == 0 {
			_, w.err = w.f.Write(w.chunk)
			w.chunk = w.chunk[:0]
		}
	}
	return len(p), w.err
}

// writeSnapshotFile publishes the snapshot covering (seq, offset) atomically:
// tmp file, sync, rename into place. write streams exactly size payload bytes
// between the header and the CRC32C trailer; anything else — fewer or more
// bytes, an error from write or from the file — removes the tmp file.
func writeSnapshotFile(fs FS, seq uint64, offset int64, size int64, write func(w io.Writer) error) error {
	if size < 0 {
		return fmt.Errorf("durable: snapshot payload size %d", size)
	}
	name := snapshotName(seq, offset)
	tmp := name + ".tmp"
	f, err := fs.Append(tmp)
	if err != nil {
		return err
	}
	hdr := wire.AppendHeader(make([]byte, 0, 5+3*binary.MaxVarintLen64), snapMagic, snapVersion)
	hdr = wire.AppendUvarint(hdr, seq)
	hdr = wire.AppendUvarint(hdr, uint64(offset))
	hdr = wire.AppendUvarint(hdr, uint64(size))
	total := int64(len(hdr)) + size
	w := &snapshotWriter{f: f, chunk: make([]byte, 0, min(snapshotChunk, total+4)), left: total}
	_, _ = w.Write(hdr) // a failed write sticks in w.err
	if err = write(w); err == nil {
		err = w.err // in case write dropped it
	}
	if err == nil && w.left > 0 {
		err = fmt.Errorf("durable: snapshot payload ended %d bytes short of its declared %d", w.left, size)
	}
	if err == nil {
		w.left = 4 // the trailer, checksummed by nothing
		_, err = w.Write(binary.LittleEndian.AppendUint32(hdr[:0], w.sum))
	}
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		_ = fs.Remove(tmp)
		return err
	}
	return fs.Rename(tmp, name)
}
