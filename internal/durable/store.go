package durable

import (
	"errors"
	"fmt"
	"io"
	"sort"
	"sync"
)

// SyncPolicy selects when the store issues fsync barriers on the WAL.
type SyncPolicy int

const (
	// SyncAlways fsyncs after every append: an acknowledged write is
	// durable. The default, and what the crash harness assumes.
	SyncAlways SyncPolicy = iota
	// SyncBatch fsyncs on rotation, snapshot and Close only; a crash may
	// lose the unsynced suffix (still recovered prefix-consistently).
	SyncBatch
	// SyncNever leaves flushing entirely to the OS.
	SyncNever
)

// ParseSyncPolicy maps the -fsync flag values (always, batch, off) to a
// policy.
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch s {
	case "always", "":
		return SyncAlways, nil
	case "batch":
		return SyncBatch, nil
	case "off", "never":
		return SyncNever, nil
	}
	return 0, fmt.Errorf("durable: unknown fsync policy %q (want always, batch or off)", s)
}

// Config configures a Store.
type Config struct {
	// FS is the backing filesystem (required).
	FS FS
	// SegmentBytes rotates the active segment once it exceeds this size
	// (0 = 4 MiB).
	SegmentBytes int64
	// KeepSnapshots retains this many newest snapshots; older ones and the
	// segments only they need are pruned after each successful snapshot
	// (0 = 2).
	KeepSnapshots int
	// Sync is the WAL fsync policy.
	Sync SyncPolicy
	// BestEffort opens the store even when every retained snapshot fails
	// validation and the surviving segments provably do not reach back to
	// the start of history — a state Open normally refuses with ErrCorrupt,
	// because the segment replay alone reconstructs only part of the state
	// the snapshots held. The recovered state is the valid segment suffix:
	// an explicit operator salvage switch, never the default.
	BestEffort bool
}

// Recovery reports what Open reconstructed from the data directory. Open
// reads every file as a stream through one bounded buffer and keeps no
// snapshot payload: ReadSnapshot streams it from the file when the caller
// is ready to decode it.
type Recovery struct {
	// Snapshot names the snapshot file Open chose: the newest whose header,
	// payload and CRC32C trailer validated ("" when none did).
	Snapshot string
	// SnapshotSeq / SnapshotOffset is the WAL position the snapshot covers.
	SnapshotSeq    uint64
	SnapshotOffset int64
	// SnapshotBytes is the size of the chosen snapshot's payload.
	SnapshotBytes int64
	// Records is the replayed WAL tail: every record appended after the
	// snapshot position, in order. The payloads of one segment's records
	// share one buffer.
	Records []Record
	// TornBytes counts bytes truncated from the active segment's torn tail.
	TornBytes int
	// SnapshotsSkipped counts corrupt snapshots passed over before a valid
	// (or no) snapshot was chosen.
	SnapshotsSkipped int
	// Segments counts WAL segment files scanned.
	Segments int

	fs FS
}

// ReadSnapshot streams the chosen snapshot's payload to fn as a reader of
// exactly SnapshotBytes bytes, through one bounded buffer; without a chosen
// snapshot it does nothing. The file is read and checksummed again: if it
// no longer holds what Open validated — another header, bytes missing or
// added, a CRC32C mismatch at the trailer — ReadSnapshot returns
// ErrCorrupt, whatever fn returned. Install what fn decoded only after a
// nil return.
func (rec *Recovery) ReadSnapshot(fn func(payload io.Reader) error) error {
	if rec.Snapshot == "" {
		return nil
	}
	f, err := rec.fs.Open(rec.Snapshot)
	if err != nil {
		return err
	}
	defer f.Close()
	_, _, _, err = scanSnapshot(newFileReader(f), func(seq uint64, offset, size int64, payload io.Reader) error {
		if seq != rec.SnapshotSeq || offset != rec.SnapshotOffset || size != rec.SnapshotBytes {
			return fmt.Errorf("%w: snapshot %s changed since it was validated", ErrCorrupt, rec.Snapshot)
		}
		return fn(payload)
	})
	return err
}

// Store is an append-only segment WAL plus snapshot retention over one FS
// directory. Appends are framed with CRC32C and a seal record closes each
// rotated segment; WriteSnapshotAt publishes application state atomically at
// the current WAL position and prunes state older than the retention
// window. A Store is safe for concurrent use.
type Store struct {
	cfg Config

	snap   sync.Mutex // serializes snapshot publications; appends never take it
	mu     sync.Mutex
	cur    File
	curSeq uint64
	curOff int64
	buf    []byte
	closed bool
}

// ErrClosed reports an operation on a closed store.
var ErrClosed = errors.New("durable: store closed")

// Open recovers a store from cfg.FS: it loads the newest snapshot that
// validates (falling back to older ones when damaged), replays the WAL tail
// after the snapshot position, truncates a torn tail in the active segment,
// and leaves the store ready to append. Unexplained damage — a bad checksum
// with valid data after it, a sealed segment that fails validation, a gap in
// the segment sequence — returns ErrCorrupt and refuses to open.
func Open(cfg Config) (*Store, *Recovery, error) {
	if cfg.FS == nil {
		return nil, nil, fmt.Errorf("durable: Config.FS is required")
	}
	if cfg.SegmentBytes <= 0 {
		cfg.SegmentBytes = 4 << 20
	}
	if cfg.KeepSnapshots <= 0 {
		cfg.KeepSnapshots = 2
	}
	names, err := cfg.FS.List()
	if err != nil {
		return nil, nil, err
	}
	var segs []uint64
	var snaps []string
	for _, name := range names {
		if isTmp(name) {
			// Interrupted snapshot publication; the rename never happened.
			_ = cfg.FS.Remove(name)
			continue
		}
		if seq, ok := parseSegmentName(name); ok {
			segs = append(segs, seq)
			continue
		}
		if _, _, ok := parseSnapshotName(name); ok {
			snaps = append(snaps, name)
		}
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i] < segs[j] })
	// Newest snapshot first; fall back on damage.
	sort.Slice(snaps, func(i, j int) bool { return snaps[i] > snaps[j] })

	rec := &Recovery{fs: cfg.FS}
	fr := newFileReader(nil) // the one buffer every file is read through
	for _, name := range snaps {
		f, err := cfg.FS.Open(name)
		if err != nil {
			return nil, nil, err
		}
		fr.reset(f)
		seq, off, size, err := scanSnapshot(fr, nil)
		f.Close()
		if errors.Is(err, ErrCorrupt) {
			rec.SnapshotsSkipped++
			continue
		}
		if err != nil {
			return nil, nil, err
		}
		rec.Snapshot, rec.SnapshotSeq, rec.SnapshotOffset, rec.SnapshotBytes = name, seq, off, size
		break
	}
	if len(snaps) > 0 && rec.Snapshot == "" && !cfg.BestEffort {
		// Every retained snapshot failed validation. Replaying the surviving
		// segments is only complete when they reach back to segment 0 (the
		// start of history); otherwise pruned history existed solely in the
		// snapshots and proceeding would silently serve partial state.
		if len(segs) == 0 || segs[0] != 0 {
			return nil, nil, fmt.Errorf("%w: all %d snapshots failed validation and the WAL does not reach back to segment 0 (set Config.BestEffort to salvage the segment suffix)", ErrCorrupt, rec.SnapshotsSkipped)
		}
	}

	st := &Store{cfg: cfg}
	// Scan segments at or after the snapshot position. Sequence numbers must
	// be contiguous from there: a missing middle segment is lost history.
	scanFrom := rec.SnapshotSeq
	var scan []uint64
	for _, seq := range segs {
		if seq >= scanFrom {
			scan = append(scan, seq)
		}
	}
	if rec.Snapshot != "" {
		if len(scan) == 0 || scan[0] != rec.SnapshotSeq {
			return nil, nil, fmt.Errorf("%w: snapshot covers segment %d but it is missing", ErrCorrupt, rec.SnapshotSeq)
		}
	}
	for i, seq := range scan {
		if i > 0 && seq != scan[i-1]+1 {
			return nil, nil, fmt.Errorf("%w: segment sequence gap %d -> %d", ErrCorrupt, scan[i-1], seq)
		}
	}
	var lastScan SegmentScan
	lastIdx := len(scan) - 1
	for i, seq := range scan {
		f, err := cfg.FS.Open(segmentName(seq))
		if err != nil {
			return nil, nil, err
		}
		fr.reset(f)
		last := i == lastIdx
		from := int64(segHeaderLen)
		if rec.Snapshot != "" && seq == rec.SnapshotSeq {
			from = rec.SnapshotOffset
		}
		// The kept payloads go into one buffer per segment; a payload
		// slice taken while it grew is re-pointed at its final array below.
		var keep []byte
		first := len(rec.Records)
		sc, err := scanSegment(fr, last, DefaultMaxRecordBytes, func(off int64, r Record) error {
			if off >= from {
				keep = append(keep, r.Payload...)
				rec.Records = append(rec.Records, Record{Type: r.Type, Payload: keep[len(keep)-len(r.Payload):]})
			}
			return nil
		})
		f.Close()
		if err != nil {
			return nil, nil, err
		}
		for j, at := first, 0; j < len(rec.Records); j++ {
			n := len(rec.Records[j].Payload)
			rec.Records[j].Payload = keep[at : at+n : at+n]
			at += n
		}
		if sc.Seq != seq && sc.Valid >= segHeaderLen {
			return nil, nil, fmt.Errorf("%w: segment file %s claims seq %d", ErrCorrupt, segmentName(seq), sc.Seq)
		}
		rec.Segments++
		if last {
			lastScan = sc
			if sc.TornBytes > 0 {
				rec.TornBytes = sc.TornBytes
				if sc.Valid < segHeaderLen {
					// The crash cut the segment header itself: nothing was
					// ever durable here. Drop the file; it is recreated
					// below with a clean header under the same seq.
					if err := cfg.FS.Remove(segmentName(seq)); err != nil {
						return nil, nil, err
					}
				} else if err := cfg.FS.Truncate(segmentName(seq), sc.Valid); err != nil {
					return nil, nil, err
				}
			}
		}
	}

	switch {
	case len(scan) == 0:
		// Fresh directory (or everything pruned): start at the segment after
		// the snapshot position so positions keep increasing monotonically.
		start := rec.SnapshotSeq
		if rec.Snapshot != "" {
			start++
		}
		if err := st.openSegment(start); err != nil {
			return nil, nil, err
		}
	case lastScan.Valid < segHeaderLen:
		// The active segment's header was torn away; reuse its seq.
		if err := st.openSegment(scan[lastIdx]); err != nil {
			return nil, nil, err
		}
	case lastScan.Sealed:
		// Crash between sealing a segment and opening the next: resume in a
		// fresh one.
		if err := st.openSegment(scan[lastIdx] + 1); err != nil {
			return nil, nil, err
		}
	default:
		f, err := cfg.FS.Append(segmentName(scan[lastIdx]))
		if err != nil {
			return nil, nil, err
		}
		st.cur = f
		st.curSeq = scan[lastIdx]
		st.curOff = lastScan.Valid
	}
	return st, rec, nil
}

// openSegment starts a fresh segment file with the given seq and writes its
// header. Callers hold st.mu (or own st exclusively during Open).
func (st *Store) openSegment(seq uint64) error {
	f, err := st.cfg.FS.Append(segmentName(seq))
	if err != nil {
		return err
	}
	hdr := appendSegmentHeader(st.buf[:0], seq)
	if _, err := f.Write(hdr); err != nil {
		_ = f.Close()
		return err
	}
	if st.cfg.Sync != SyncNever {
		if err := f.Sync(); err != nil {
			_ = f.Close()
			return err
		}
		// Sync covers the file's bytes, not its directory entry: without a
		// directory fsync a power loss can drop the freshly created segment
		// whole, taking every record later fsync-acknowledged into it.
		if err := st.cfg.FS.SyncDir(); err != nil {
			_ = f.Close()
			return err
		}
	}
	st.cur = f
	st.curSeq = seq
	st.curOff = segHeaderLen
	return nil
}

// Append durably logs one record. With SyncAlways a nil return means the
// record is on stable storage; with weaker policies it is at least in the
// OS. The reserved seal type is rejected.
func (st *Store) Append(typ byte, payload []byte) error {
	if typ == recSeal {
		return fmt.Errorf("durable: record type %#x is reserved", typ)
	}
	if 1+len(payload) > DefaultMaxRecordBytes {
		return fmt.Errorf("durable: record of %d bytes exceeds cap %d", len(payload), DefaultMaxRecordBytes)
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.closed {
		return ErrClosed
	}
	st.buf = appendRecordFrame(st.buf[:0], typ, payload)
	if st.curOff+int64(len(st.buf)) > st.cfg.SegmentBytes && st.curOff > segHeaderLen {
		if err := st.rotate(); err != nil {
			return err
		}
		// rotate reuses st.buf for the seal and header; reframe.
		st.buf = appendRecordFrame(st.buf[:0], typ, payload)
	}
	if _, err := st.cur.Write(st.buf); err != nil {
		return err
	}
	st.curOff += int64(len(st.buf))
	if st.cfg.Sync == SyncAlways {
		return st.cur.Sync()
	}
	return nil
}

// rotate seals the active segment and opens the next one. Callers hold
// st.mu.
func (st *Store) rotate() error {
	seal := appendRecordFrame(st.buf[:0], recSeal, nil)
	if _, err := st.cur.Write(seal); err != nil {
		return err
	}
	if st.cfg.Sync != SyncNever {
		if err := st.cur.Sync(); err != nil {
			return err
		}
	}
	if err := st.cur.Close(); err != nil {
		return err
	}
	return st.openSegment(st.curSeq + 1)
}

// Position returns the current WAL position: the (segment, offset) the next
// append will land at.
func (st *Store) Position() (seq uint64, offset int64) {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.curSeq, st.curOff
}

// WriteSnapshotAt publishes a snapshot of all state up to the WAL position
// (seq, offset), atomically, then prunes snapshots beyond the retention
// window and the segments only they kept alive. write streams the payload,
// exactly size bytes, into the file through one bounded chunk; appends go on
// meanwhile, and write must not publish a snapshot itself. The caller
// captured the position with Position() BEFORE exporting the state the
// payload encodes. Capturing the position first closes the export/append
// race: a record appended before the captured position belongs to a
// mutation applied before the capture (components mutate, then log), so the
// export already includes it; a record appended at or after the position is
// replayed on top during recovery, which is safe because restores are
// idempotent upserts. A position ahead of the WAL is rejected.
func (st *Store) WriteSnapshotAt(seq uint64, offset int64, size int64, write func(w io.Writer) error) error {
	st.snap.Lock()
	defer st.snap.Unlock()
	if err := st.syncThrough(seq, offset); err != nil {
		return err
	}
	if err := writeSnapshotFile(st.cfg.FS, seq, offset, size, write); err != nil {
		return err
	}
	st.prune()
	return nil
}

// syncThrough makes the WAL a snapshot at (seq, offset) covers durable: the
// active segment, since sealed ones were synced at rotation.
func (st *Store) syncThrough(seq uint64, offset int64) error {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.closed {
		return ErrClosed
	}
	if seq > st.curSeq || (seq == st.curSeq && offset > st.curOff) {
		return fmt.Errorf("durable: snapshot position %d/%d is ahead of the WAL at %d/%d", seq, offset, st.curSeq, st.curOff)
	}
	if st.cfg.Sync == SyncNever {
		return nil
	}
	return st.cur.Sync()
}

// prune removes snapshots beyond KeepSnapshots and segments older than every
// kept snapshot. Failures are ignored: retention is advisory, correctness
// never depends on it. Callers hold st.snap; the active segment is never
// older than a snapshot, so appends need not wait.
func (st *Store) prune() {
	names, err := st.cfg.FS.List()
	if err != nil {
		return
	}
	type snap struct {
		name string
		seq  uint64
	}
	var snaps []snap
	var segs []uint64
	for _, name := range names {
		if seq, _, ok := parseSnapshotName(name); ok {
			snaps = append(snaps, snap{name: name, seq: seq})
		} else if seq, ok := parseSegmentName(name); ok {
			segs = append(segs, seq)
		}
	}
	sort.Slice(snaps, func(i, j int) bool { return snaps[i].name > snaps[j].name })
	keepFrom := uint64(0)
	for i, s := range snaps {
		if i < st.cfg.KeepSnapshots {
			if i == st.cfg.KeepSnapshots-1 || i == len(snaps)-1 {
				keepFrom = s.seq
			}
			continue
		}
		_ = st.cfg.FS.Remove(s.name)
	}
	if len(snaps) == 0 {
		return
	}
	for _, seq := range segs {
		if seq < keepFrom {
			_ = st.cfg.FS.Remove(segmentName(seq))
		}
	}
}

// Sync forces an fsync barrier on the active segment regardless of policy.
func (st *Store) Sync() error {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.closed {
		return ErrClosed
	}
	return st.cur.Sync()
}

// Close syncs and closes the WAL. Further operations return ErrClosed.
func (st *Store) Close() error {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.closed {
		return nil
	}
	st.closed = true
	err := st.cur.Sync()
	if cerr := st.cur.Close(); err == nil {
		err = cerr
	}
	return err
}
