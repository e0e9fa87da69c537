package durable

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"strings"
	"testing"
)

// countFS counts the part files published through it.
type countFS struct {
	FS
	parts int
}

func (c *countFS) Rename(oldname, newname string) error {
	if strings.HasPrefix(newname, "part-") {
		c.parts++
	}
	return c.FS.Rename(oldname, newname)
}

// dayPart is a part whose bytes are its key, spelled out.
func dayPart(key uint64) Part {
	return Part{Key: key, Append: func(b []byte) []byte { return fmt.Appendf(b, "part %d", key) }}
}

// partSnapshot appends a record and publishes a snapshot that lists parts
// 1..n, whose payload is n.
func partSnapshot(t *testing.T, st *Store, n int) error {
	t.Helper()
	if err := st.Append(RecSample, []byte{byte(n)}); err != nil {
		t.Fatal(err)
	}
	var parts []Part
	for k := 1; k <= n; k++ {
		parts = append(parts, dayPart(uint64(k)))
	}
	seq, off := st.Position()
	return st.WriteSnapshotAt(seq, off, [][]byte{{byte(n)}}, parts...)
}

// readParts reads the snapshot rec chose and returns its payload and its
// parts' bytes in order.
func readParts(t *testing.T, rec *Recovery) (payload []byte, parts []string, err error) {
	t.Helper()
	err = rec.ReadSnapshot(func(r io.Reader) (err error) {
		payload, err = io.ReadAll(r)
		return err
	}, func(key uint64, r io.Reader) error {
		b, err := io.ReadAll(r)
		parts = append(parts, string(b))
		return err
	})
	return payload, parts, err
}

// TestPartsPublishedOnce: a snapshot publishes only the parts no snapshot
// published before it, in this process or, through the snapshot Open
// chose, in the one before; a known key is listed with no Append, an
// unknown one refused; and recovery reads every listed part, in order.
func TestPartsPublishedOnce(t *testing.T) {
	fs := &countFS{FS: NewMemFS()}
	cfg := Config{FS: fs, KeepSnapshots: 2}
	st, _ := reopen(t, fs, cfg)
	for _, n := range []int{0, 1, 2, 3, 3} {
		if err := partSnapshot(t, st, n); err != nil {
			t.Fatal(err)
		}
		if fs.parts != n {
			t.Fatalf("after a snapshot listing %d parts, %d published in all", n, fs.parts)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st, rec := reopen(t, fs, cfg)
	defer st.Close()
	payload, parts, err := readParts(t, rec)
	if err != nil || !bytes.Equal(payload, []byte{3}) || strings.Join(parts, ",") != "part 1,part 2,part 3" {
		t.Fatalf("recovered payload %v and parts %q (%v)", payload, parts, err)
	}
	seq, off := st.Position()
	one := [][]byte{{9}}
	if err := st.WriteSnapshotAt(seq, off, one, Part{Key: 3}, dayPart(4)); err != nil || fs.parts != 4 {
		t.Fatalf("after recovery, a snapshot listing parts 3 and 4 published %d parts in all (%v), want 4", fs.parts, err)
	}
	if err := st.WriteSnapshotAt(seq, off, one, Part{Key: 5}); err == nil {
		t.Fatal("a snapshot listed a part nothing published")
	}
}

// TestPartPruning: retention removes a part once no kept snapshot lists
// it, and keeps one that only the older kept snapshot lists.
func TestPartPruning(t *testing.T) {
	fs := NewMemFS()
	st, _ := reopen(t, fs, Config{FS: fs, KeepSnapshots: 2})
	defer st.Close()
	snap := func(keys ...uint64) {
		t.Helper()
		var parts []Part
		for _, k := range keys {
			parts = append(parts, dayPart(k))
		}
		if err := st.Append(RecSample, []byte("r")); err != nil {
			t.Fatal(err)
		}
		seq, off := st.Position()
		if err := st.WriteSnapshotAt(seq, off, nil, parts...); err != nil {
			t.Fatal(err)
		}
	}
	has := func(key uint64) bool { return fs.Size(partName(key)) >= 0 }
	snap(1, 2)
	snap(2, 3)
	if !has(1) || !has(2) || !has(3) {
		t.Fatal("a part a kept snapshot lists was removed")
	}
	snap(3)
	if has(1) || !has(2) || !has(3) {
		t.Fatalf("parts 1, 2, 3 present: %v %v %v; want part 1 gone", has(1), has(2), has(3))
	}
	snap()
	snap()
	if names, _ := fs.List(); strings.Contains(strings.Join(names, " "), "part-") {
		t.Fatalf("parts outlived every snapshot listing them: %v", names)
	}
	// A pruned part is published again by the next snapshot that lists it.
	snap(1)
	if !has(1) {
		t.Fatal("a part listed after it was pruned was not published again")
	}
}

// partStore writes three snapshots with parts and a WAL record after each
// over fs: the newest lists parts 1..3, the older kept one parts 1..2, and
// the oldest was pruned with the segments only it needed.
func partStore(t *testing.T, fs *MemFS) {
	t.Helper()
	st, _ := reopen(t, fs, Config{FS: fs, SegmentBytes: 64, KeepSnapshots: 2})
	for n := 1; n <= 3; n++ {
		if err := partSnapshot(t, st, n); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 8; i++ {
			if err := st.Append(RecSample, []byte(fmt.Sprintf("after %d: %d", n, i))); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if fs.Size(segmentName(0)) >= 0 {
		t.Fatal("segment 0 survived: the WAL alone would recover every record")
	}
}

// TestPartDamageFallsBackOrRefuses: a part that is missing, damaged or
// another file than the one listed makes its snapshot unusable. Recovery
// falls back to the older snapshot when that one does not list the part,
// and refuses when it does; it never recovers the shorter history a
// snapshot without its part would give.
func TestPartDamageFallsBackOrRefuses(t *testing.T) {
	for _, c := range []struct {
		name    string
		part    uint64
		damage  func(fs *MemFS, name string)
		refused bool
	}{
		{"newest's own part missing", 3, func(fs *MemFS, name string) { _ = fs.Remove(name) }, false},
		{"newest's own part flipped", 3, func(fs *MemFS, name string) { fs.Corrupt(name, int(fs.Size(name))/2, 0x04) }, false},
		{"newest's own part cut short", 3, func(fs *MemFS, name string) { _ = fs.Truncate(name, fs.Size(name)-1) }, false},
		{"newest's own part another file", 3, func(fs *MemFS, name string) {
			other := NewMemFS()
			st, _ := reopen(t, other, Config{FS: other})
			seq, off := st.Position()
			if err := st.WriteSnapshotAt(seq, off, nil, Part{Key: 3, Append: func(b []byte) []byte { return append(b, "part 3!"...) }}); err != nil {
				t.Fatal(err)
			}
			data, _ := readAll(other, name)
			_ = fs.Remove(name)
			h, _ := fs.Append(name)
			_, _ = h.Write(data)
		}, false},
		{"shared part missing", 1, func(fs *MemFS, name string) { _ = fs.Remove(name) }, true},
		{"shared part flipped", 2, func(fs *MemFS, name string) { fs.Corrupt(name, 6, 0x80) }, true},
	} {
		fs := NewMemFS()
		partStore(t, fs)
		c.damage(fs, partName(c.part))
		st, rec, err := Open(Config{FS: fs})
		if c.refused {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("%s: Open returned %v, want ErrCorrupt", c.name, err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("%s: recovery refused: %v", c.name, err)
		}
		payload, parts, err := readParts(t, rec)
		if err != nil || rec.SnapshotsSkipped != 1 || !bytes.Equal(payload, []byte{2}) || strings.Join(parts, ",") != "part 1,part 2" {
			t.Fatalf("%s: recovered snapshot %v with parts %q past %d skipped (%v); want the older one, parts 1 and 2",
				c.name, payload, parts, rec.SnapshotsSkipped, err)
		}
		if len(rec.Records) != 8+1+8 {
			t.Fatalf("%s: replayed %d records, want the older snapshot's tail of 17", c.name, len(rec.Records))
		}
		_ = st.Close()
	}
}

// TestPartChangedAfterValidation: a part changed or removed between Open,
// which validated it, and ReadSnapshot, which reads it, is ErrCorrupt.
func TestPartChangedAfterValidation(t *testing.T) {
	for _, change := range []func(fs *MemFS, name string){
		func(fs *MemFS, name string) { fs.Corrupt(name, int(fs.Size(name))-5, 0x01) },
		func(fs *MemFS, name string) { _ = fs.Remove(name) },
	} {
		fs := NewMemFS()
		partStore(t, fs)
		st, rec, err := Open(Config{FS: fs})
		if err != nil {
			t.Fatal(err)
		}
		change(fs, partName(2))
		if _, _, err := readParts(t, rec); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("ReadSnapshot returned %v, want ErrCorrupt", err)
		}
		_ = st.Close()
	}
}

// TestPartsOnOSFS publishes, recovers and falls back over a real
// directory: three snapshots listing parts 1..n, then the newest's own
// part removed.
func TestPartsOnOSFS(t *testing.T) {
	osfs, err := NewOSFS(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{SegmentBytes: 64, KeepSnapshots: 2}
	st, _ := reopen(t, osfs, cfg)
	for n := 1; n <= 3; n++ {
		if err := partSnapshot(t, st, n); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	for i, want := range []string{"part 1,part 2,part 3", "part 1,part 2"} {
		st, rec := reopen(t, osfs, cfg)
		payload, parts, err := readParts(t, rec)
		if err != nil || int(payload[0]) != len(parts) || strings.Join(parts, ",") != want {
			t.Fatalf("recovered payload %v and parts %q (%v), want %s", payload, parts, err, want)
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			if err := osfs.Remove(partName(3)); err != nil {
				t.Fatal(err)
			}
		}
	}
}
