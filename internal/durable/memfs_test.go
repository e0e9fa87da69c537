package durable

import (
	"bytes"
	"runtime"
	"slices"
	"testing"

	"fgcs/internal/rng"
)

// flatFile is what a MemFS file is held to: its bytes in one slice.
type flatFile struct {
	data   []byte
	synced int
	linked bool
}

// nextChunkEdge is the first MemFS chunk edge past offset n: 512 B, then
// each power of two up to 64 KiB, then each multiple of 64 KiB.
func nextChunkEdge(n int) int {
	if n >= 64<<10 {
		return (n>>16 + 1) << 16
	}
	e := 512
	for e <= n {
		e *= 2
	}
	return e
}

// TestMemFSMatchesFlatModel runs a seeded sequence of writes (0–200 KB, a
// third of them ending a byte before, on or after a chunk edge), syncs,
// truncations, bit flips, renames, directory syncs and power-loss images
// against a model that keeps each file in one flat slice. The listing and
// every file's ReadFile and Size must match the model after every operation.
func TestMemFSMatchesFlatModel(t *testing.T) {
	r := rng.New(17)
	names := []string{"a", "b", "c"}
	fs := NewMemFS()
	model := map[string]*flatFile{}
	for step := 0; step < 400; step++ {
		name := names[r.Intn(len(names))]
		f := model[name]
		op := "write"
		switch k := r.Intn(10); {
		case k < 4 || f == nil:
			h, err := fs.Append(name)
			if err != nil {
				t.Fatal(err)
			}
			if f == nil {
				f = &flatFile{}
				model[name] = f
			}
			n := r.Intn(200<<10 + 1)
			if r.Intn(3) == 0 {
				n = max(0, nextChunkEdge(len(f.data))-len(f.data)+r.Intn(3)-1)
			}
			p := make([]byte, n)
			for i := range p {
				p[i] = byte(i*7 + step)
			}
			if _, err := h.Write(p); err != nil {
				t.Fatal(err)
			}
			f.data = append(f.data, p...)
		case k == 4:
			op = "sync"
			h, _ := fs.Append(name)
			if err := h.Sync(); err != nil {
				t.Fatal(err)
			}
			f.synced = len(f.data)
		case k == 5:
			op = "truncate"
			size := r.Intn(len(f.data) + 1)
			if err := fs.Truncate(name, int64(size)); err != nil {
				t.Fatal(err)
			}
			f.data = f.data[:size]
			f.synced = min(f.synced, size)
		case k == 6:
			op = "corrupt"
			off, mask := r.Intn(len(f.data)+1), byte(1+r.Intn(255))
			if ok := fs.Corrupt(name, off, mask); ok != (off < len(f.data)) {
				t.Fatalf("step %d: Corrupt(%s, %d) = %v on a %d-byte file", step, name, off, ok, len(f.data))
			}
			if off < len(f.data) {
				f.data[off] ^= mask
			}
		case k == 7:
			op = "rename"
			to := names[r.Intn(len(names))]
			if err := fs.Rename(name, to); err != nil {
				t.Fatal(err)
			}
			delete(model, name)
			f.linked = true
			model[to] = f
		case k == 8:
			op = "syncdir"
			if err := fs.SyncDir(); err != nil {
				t.Fatal(err)
			}
			for _, f := range model {
				f.linked = true
			}
		default:
			// Carry on from the power-loss image.
			op = "power loss"
			fs = fs.SyncedOnly()
			for n, f := range model {
				if !f.linked {
					delete(model, n)
					continue
				}
				model[n] = &flatFile{data: slices.Clone(f.data[:f.synced]), synced: f.synced, linked: true}
			}
		}
		want := make([]string, 0, len(model))
		for n := range model {
			want = append(want, n)
		}
		slices.Sort(want)
		listed, err := fs.List()
		if err != nil || !slices.Equal(listed, want) {
			t.Fatalf("step %d (%s): files %v (%v), model %v", step, op, listed, err, want)
		}
		for n, f := range model {
			got, err := fs.ReadFile(n)
			if err != nil || !bytes.Equal(got, f.data) || fs.Size(n) != int64(len(f.data)) {
				t.Fatalf("step %d (%s): %s reads %d bytes, size %d (%v); model %d bytes, or the contents differ",
					step, op, n, len(got), fs.Size(n), err, len(f.data))
			}
		}
	}
}

// TestMemFSWriteCopiesOnce: writing N bytes into a MemFS file allocates at
// most N + 64 KiB, in 64 KiB pieces or in 1000-byte ones. Each byte is
// copied once into a chunk; a file kept in one growing slice was re-copied
// every time it outgrew its capacity.
func TestMemFSWriteCopiesOnce(t *testing.T) {
	const n = 4 << 20
	data := make([]byte, n)
	for _, piece := range []int{64 << 10, 1000} {
		fs := NewMemFS()
		h, err := fs.Append("f")
		if err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for off := 0; off < n; off += piece {
			if _, err := h.Write(data[off:min(off+piece, n)]); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; grew > n+64<<10 {
			t.Errorf("%d bytes in %d-byte writes allocated %d bytes, ceiling %d", n, piece, grew, n+64<<10)
		}
		if fs.Size("f") != n {
			t.Fatalf("size %d after writing %d bytes", fs.Size("f"), n)
		}
	}
}
