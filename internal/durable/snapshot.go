package durable

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"

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

// ReadSnapshot validates a snapshot file and returns the WAL position it
// covers and its payload (aliasing data). Any damage — bad magic, claimed
// length beyond the file, bytes between payload and checksum, checksum
// mismatch — returns ErrCorrupt; snapshots are published atomically, so
// unlike the active segment there is no torn state to tolerate.
func ReadSnapshot(data []byte) (seq uint64, offset int64, payload []byte, err error) {
	if len(data) < 4 {
		return 0, 0, nil, fmt.Errorf("%w: short snapshot", ErrCorrupt)
	}
	body, sum := data[:len(data)-4], binary.LittleEndian.Uint32(data[len(data)-4:])
	r := wire.NewReader(body, "snapshot")
	r.Header(snapMagic, snapVersion)
	seq, off, payload := r.Uvarint(), r.Uvarint(), r.Bytes()
	if r.Done() == nil && crc32.Checksum(body, castagnoli) != sum {
		r.Fail("checksum mismatch")
	}
	if err := r.Err(); err != nil {
		return 0, 0, nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	return seq, int64(off), payload, nil
}

// writeSnapshotFile publishes payload as the snapshot covering (seq, offset)
// atomically: tmp file, sync, rename into place. The payload is never copied
// into a frame: header, payload and checksum trailer are written in turn, the
// CRC32C running over the first two.
func writeSnapshotFile(fs FS, seq uint64, offset int64, payload []byte) error {
	name := snapshotName(seq, offset)
	tmp := name + ".tmp"
	f, err := fs.Append(tmp)
	if err != nil {
		return err
	}
	hdr := wire.AppendHeader(make([]byte, 0, 5+3*binary.MaxVarintLen64), snapMagic, snapVersion)
	hdr = wire.AppendUvarint(hdr, seq)
	hdr = wire.AppendUvarint(hdr, uint64(offset))
	hdr = wire.AppendUvarint(hdr, uint64(len(payload)))
	sum := crc32.Update(crc32.Update(0, castagnoli, hdr), castagnoli, payload)
	for _, part := range [][]byte{hdr, payload, binary.LittleEndian.AppendUint32(nil, sum)} {
		if _, err = f.Write(part); err != nil {
			break
		}
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
