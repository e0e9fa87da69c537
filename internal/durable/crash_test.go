package durable

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"testing"

	"fgcs/internal/rng"
)

// crashCfg is the store shape the crash harness uses: small segments force
// rotations inside the sweep, and two retained snapshots exercise pruning.
func crashCfg(fs FS) Config {
	return Config{FS: fs, SegmentBytes: 512, KeepSnapshots: 2, Sync: SyncAlways}
}

// runWorkload drives a fixed, seeded append/snapshot sequence against fs
// until it completes or the FS crashes. It returns every record payload whose
// Append was attempted, in order, and how many of those were acknowledged
// (returned nil). Snapshot payloads encode the number of records they cover,
// so recovery can be checked without replaying application logic.
func runWorkload(fs FS, seed uint64) (attempted [][]byte, acked int) {
	rs := rng.New(seed)
	st, _, err := Open(crashCfg(fs))
	if err != nil {
		return nil, 0
	}
	defer st.Close()
	const n = 120
	for i := 0; i < n; i++ {
		// Varying payload sizes move record boundaries around so the byte
		// sweep cuts through lengths, types, payloads and checksums alike.
		payload := []byte(fmt.Sprintf("r-%04d-%0*x", i, 1+int(rs.Uint64()%9), rs.Uint64()&0xFFFF))
		attempted = append(attempted, payload)
		if err := st.Append(RecSample, payload); err != nil {
			return attempted, acked
		}
		acked++
		if (i+1)%17 == 0 {
			snap := binary.AppendUvarint(nil, uint64(i+1))
			if err := snapshotNow(st, snap); err != nil {
				return attempted, acked
			}
		}
	}
	return attempted, acked
}

// verifyPrefixConsistent opens the surviving state and checks the recovered
// record sequence is a prefix of the attempted one that includes every
// acknowledged record: nothing acknowledged lost, nothing invented, order
// preserved. It returns the recovered record count.
func verifyPrefixConsistent(t *testing.T, fs FS, attempted [][]byte, acked int, label string) int {
	t.Helper()
	st, rec, err := Open(crashCfg(fs))
	if err != nil {
		t.Fatalf("%s: recovery failed: %v", label, err)
	}
	defer st.Close()
	base := 0
	if rec.Snapshot != "" {
		v, vn := binary.Uvarint(snapshotPayload(t, rec))
		if vn <= 0 {
			t.Fatalf("%s: unreadable snapshot payload", label)
		}
		base = int(v)
	}
	total := base + len(rec.Records)
	if total < acked {
		t.Fatalf("%s: lost acknowledged records: recovered %d, acked %d", label, total, acked)
	}
	if total > len(attempted) {
		t.Fatalf("%s: invented records: recovered %d, attempted %d", label, total, len(attempted))
	}
	for j, r := range rec.Records {
		if r.Type != RecSample || !bytes.Equal(r.Payload, attempted[base+j]) {
			t.Fatalf("%s: replayed record %d diverges from attempted sequence", label, base+j)
		}
	}
	return total
}

// dumpFS captures the complete byte state of a MemFS for determinism checks.
func dumpFS(t *testing.T, fs *MemFS) map[string][]byte {
	t.Helper()
	names, err := fs.List()
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string][]byte, len(names))
	for _, n := range names {
		data, err := readAll(fs, n)
		if err != nil {
			t.Fatal(err)
		}
		out[n] = data
	}
	return out
}

// crashCycle runs the seeded workload killed at byte offset killAt, recovers,
// verifies prefix-consistency, and returns the post-recovery FS dump plus the
// recovered record count.
func crashCycle(t *testing.T, seed uint64, killAt int64) (map[string][]byte, int) {
	t.Helper()
	mem := NewMemFS()
	cfs := NewCrashFS(mem, killAt)
	attempted, acked := runWorkload(cfs, seed)
	if !cfs.Crashed() {
		t.Fatalf("killAt=%d: workload finished without crashing", killAt)
	}
	label := fmt.Sprintf("killAt=%d", killAt)
	n := verifyPrefixConsistent(t, mem, attempted, acked, label)
	return dumpFS(t, mem), n
}

// TestCrashKillAnywhere is the kill-anywhere property test: the seeded
// workload is killed at EVERY byte offset it ever writes, and each survivor
// state must recover prefix-consistently. This is the `make crash` gate.
func TestCrashKillAnywhere(t *testing.T) {
	const seed = 20260809
	// Measure the workload's full byte footprint with the fault disabled.
	probe := NewCrashFS(NewMemFS(), -1)
	attempted, acked := runWorkload(probe, seed)
	total := probe.BytesWritten()
	if acked != len(attempted) || total < 1000 {
		t.Fatalf("probe run: acked %d/%d, %d bytes", acked, len(attempted), total)
	}
	verifyPrefixConsistent(t, probe, attempted, acked, "no-crash")
	for killAt := int64(0); killAt < total; killAt++ {
		crashCycle(t, seed, killAt)
	}
}

// TestPowerLossKillAnywhere is the power-cut variant of kill-anywhere:
// recovery runs against the synced-only image of the filesystem — what the
// media holds when the page cache dies with the machine — instead of the
// full in-memory state a process kill leaves behind. Under SyncAlways every
// acknowledged record must still recover: record bytes are fsynced per
// append, and each new segment's directory entry is fsynced before any
// record is acknowledged into it (without that dir fsync a power loss drops
// a freshly rotated segment whole).
func TestPowerLossKillAnywhere(t *testing.T) {
	const seed = 20260809
	probe := NewCrashFS(NewMemFS(), -1)
	attempted, acked := runWorkload(probe, seed)
	total := probe.BytesWritten()
	if acked != len(attempted) || total < 1000 {
		t.Fatalf("probe run: acked %d/%d, %d bytes", acked, len(attempted), total)
	}
	for killAt := int64(0); killAt < total; killAt++ {
		mem := NewMemFS()
		cfs := NewCrashFS(mem, killAt)
		attempted, acked := runWorkload(cfs, seed)
		if !cfs.Crashed() {
			t.Fatalf("killAt=%d: workload finished without crashing", killAt)
		}
		label := fmt.Sprintf("powerloss killAt=%d", killAt)
		verifyPrefixConsistent(t, mem.SyncedOnly(), attempted, acked, label)
	}
}

// TestCrashRecoveryDeterministic pins byte-determinism: the same seed and
// kill offset must yield byte-identical surviving files and the same
// recovered count, run after run.
func TestCrashRecoveryDeterministic(t *testing.T) {
	const seed = 20260809
	probe := NewCrashFS(NewMemFS(), -1)
	runWorkload(probe, seed)
	total := probe.BytesWritten()
	rs := rng.New(seed).Split("killpoints")
	for i := 0; i < 8; i++ {
		killAt := int64(rs.Uint64() % uint64(total))
		d1, n1 := crashCycle(t, seed, killAt)
		d2, n2 := crashCycle(t, seed, killAt)
		if n1 != n2 {
			t.Fatalf("killAt=%d: recovered %d then %d records", killAt, n1, n2)
		}
		if len(d1) != len(d2) {
			t.Fatalf("killAt=%d: file sets differ: %d vs %d", killAt, len(d1), len(d2))
		}
		for name, data := range d1 {
			if !bytes.Equal(data, d2[name]) {
				t.Fatalf("killAt=%d: file %s differs between runs", killAt, name)
			}
		}
	}
}

// TestCrashThenContinue checks a recovered store is fully usable: appends
// land after the truncated tail and survive the next recovery.
func TestCrashThenContinue(t *testing.T) {
	const seed = 99
	probe := NewCrashFS(NewMemFS(), -1)
	runWorkload(probe, seed)
	total := probe.BytesWritten()
	rs := rng.New(seed).Split("continue")
	for i := 0; i < 16; i++ {
		killAt := int64(rs.Uint64() % uint64(total))
		mem := NewMemFS()
		cfs := NewCrashFS(mem, killAt)
		attempted, acked := runWorkload(cfs, seed)
		st, rec, err := Open(crashCfg(mem))
		if err != nil {
			t.Fatalf("killAt=%d: recovery: %v", killAt, err)
		}
		if err := st.Append(RecSample, []byte("post-crash")); err != nil {
			t.Fatalf("killAt=%d: append after recovery: %v", killAt, err)
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		// The new record lands right after the recovered prefix, which may be
		// shorter than the attempted sequence when the crash cut unacked tail
		// records away.
		base := 0
		if rec.Snapshot != "" {
			v, _ := binary.Uvarint(snapshotPayload(t, rec))
			base = int(v)
		}
		prefix := base + len(rec.Records)
		if prefix < acked {
			t.Fatalf("killAt=%d: recovered %d < acked %d", killAt, prefix, acked)
		}
		expected := append(append([][]byte{}, attempted[:prefix]...), []byte("post-crash"))
		got := verifyPrefixConsistent(t, mem, expected, prefix+1, "continue")
		if got != prefix+1 {
			t.Fatalf("killAt=%d: recovered %d records after continue, want %d", killAt, got, prefix+1)
		}
	}
}

// TestBitFlipNeverFabricates injects single-bit flips at every byte of a
// cleanly closed store and requires one of exactly two outcomes: recovery
// refuses (ErrCorrupt), or the recovered sequence is still a prefix of what
// was written — damage may cost the tail record, but never yields invented
// or reordered history and never panics.
func TestBitFlipNeverFabricates(t *testing.T) {
	const seed = 7
	baseFS := NewMemFS()
	attempted, acked := runWorkload(baseFS, seed)
	if acked != len(attempted) {
		t.Fatal("base workload did not complete")
	}
	names, _ := baseFS.List()
	rs := rng.New(seed).Split("bitflips")
	refused, tolerated := 0, 0
	for _, name := range names {
		size := int(baseFS.Size(name))
		for off := 0; off < size; off++ {
			mask := byte(1 << (rs.Uint64() % 8))
			// Rebuild pristine state, then flip one bit at rest.
			mem := NewMemFS()
			runWorkload(mem, seed)
			if !mem.Corrupt(name, off, mask) {
				t.Fatalf("flip %s@%d failed", name, off)
			}
			st, rec, err := Open(crashCfg(mem))
			if err != nil {
				if !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrClosed) {
					t.Fatalf("flip %s@%d: unexpected error class: %v", name, off, err)
				}
				refused++
				continue
			}
			st.Close()
			base := 0
			if rec.Snapshot != "" {
				v, vn := binary.Uvarint(snapshotPayload(t, rec))
				if vn <= 0 {
					t.Fatalf("flip %s@%d: snapshot payload mangled silently", name, off)
				}
				base = int(v)
			}
			if base+len(rec.Records) > len(attempted) {
				t.Fatalf("flip %s@%d: invented records", name, off)
			}
			for j, r := range rec.Records {
				if !bytes.Equal(r.Payload, attempted[base+j]) {
					t.Fatalf("flip %s@%d: silently altered record %d", name, off, base+j)
				}
			}
			tolerated++
		}
	}
	if refused == 0 || tolerated == 0 {
		t.Fatalf("flip sweep degenerate: %d refused, %d tolerated", refused, tolerated)
	}
}
