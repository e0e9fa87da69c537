// Package durable is the persistence substrate: an append-only segment log
// (WAL) of CRC32C-framed binary records plus periodic snapshots, published
// by atomic rename-into-place from the bytes the caller already holds, with
// the parts that never change (sealed days) each written once, a file of
// its own. A Store recovers on open by loading the newest
// valid snapshot and replaying the log tail after it, tolerating a torn tail
// (a crash mid-append) by truncation while refusing silently-corrupt
// middles. All file access goes through the FS interface so tests and the
// crash-injection harness can run against a deterministic in-memory
// filesystem with seeded fault hooks (kill-at-byte-offset, bit flips) in the
// style of internal/faultnet.
package durable

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// File is a writable file handle: appends, durability barrier, close.
type File interface {
	// Write appends p. A short write reports an error.
	Write(p []byte) (int, error)
	// Sync flushes written data to stable storage.
	Sync() error
	// Close releases the handle. It does not imply Sync.
	Close() error
}

// FS is the narrow filesystem surface the store runs on: a single flat
// directory of named files. OSFS implements it on a real directory, MemFS in
// memory; CrashFS wraps either with fault injection.
type FS interface {
	// Append opens name for appending, creating it when absent.
	Append(name string) (File, error)
	// Open opens name for reading from its first byte. Recovery reads every
	// file through it as a stream, never whole.
	Open(name string) (io.ReadCloser, error)
	// Truncate shortens name to size bytes.
	Truncate(name string, size int64) error
	// Rename atomically replaces newname with oldname.
	Rename(oldname, newname string) error
	// Remove deletes name.
	Remove(name string) error
	// List returns every file name in the directory, sorted.
	List() ([]string, error)
	// SyncDir flushes the directory itself, making file creations durable.
	// File.Sync persists a file's bytes but not its directory entry: without
	// a directory fsync a power loss can drop a freshly created file whole,
	// taking fsync-acknowledged contents with it. Rename implies it.
	SyncDir() error
}

// ErrCrashed is returned by a CrashFS once its kill offset has been reached:
// the simulated process is dead and every further operation fails.
var ErrCrashed = errors.New("durable: injected crash")

// OSFS is the production FS: a flat directory on the real filesystem.
// Rename fsyncs the directory afterwards so the rename itself is durable —
// the pattern that makes snapshot publication atomic on crash.
type OSFS struct {
	// Dir is the backing directory, created by NewOSFS.
	Dir string
}

// NewOSFS creates dir (and parents) and returns an FS rooted there.
func NewOSFS(dir string) (*OSFS, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return &OSFS{Dir: dir}, nil
}

func (fs *OSFS) path(name string) string { return filepath.Join(fs.Dir, name) }

// Append implements FS.
func (fs *OSFS) Append(name string) (File, error) {
	return os.OpenFile(fs.path(name), os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
}

// Open implements FS.
func (fs *OSFS) Open(name string) (io.ReadCloser, error) { return os.Open(fs.path(name)) }

// Truncate implements FS.
func (fs *OSFS) Truncate(name string, size int64) error { return os.Truncate(fs.path(name), size) }

// Rename implements FS, fsyncing the directory so the new name survives a
// power loss.
func (fs *OSFS) Rename(oldname, newname string) error {
	if err := os.Rename(fs.path(oldname), fs.path(newname)); err != nil {
		return err
	}
	return fs.SyncDir()
}

// SyncDir implements FS: fsync the backing directory so the dirents of
// freshly created or renamed files are on stable storage.
func (fs *OSFS) SyncDir() error {
	d, err := os.Open(fs.Dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// Remove implements FS.
func (fs *OSFS) Remove(name string) error { return os.Remove(fs.path(name)) }

// List implements FS.
func (fs *OSFS) List() ([]string, error) {
	ents, err := os.ReadDir(fs.Dir)
	if err != nil {
		return nil, err
	}
	names := make([]string, 0, len(ents))
	for _, e := range ents {
		if !e.IsDir() {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	return names, nil
}

// MemFS is a deterministic in-memory FS for tests and the crash harness. It
// distinguishes written from synced bytes and created from dir-synced
// files: SyncedOnly() models what a power loss before the next Sync/SyncDir
// would leave behind, and Corrupt flips stored bits to model silent media
// damage. A file is a list of chunks, so a written byte is copied once
// however the writer splits its writes.
type MemFS struct {
	mu    sync.Mutex
	files map[string]*memFile
}

type memFile struct {
	chunks [][]byte // every chunk but the last is full
	size   int
	synced int  // bytes guaranteed durable
	linked bool // dirent guaranteed durable (SyncDir or Rename happened)
}

func (f *memFile) write(p []byte) {
	for len(p) > 0 {
		last := len(f.chunks) - 1
		if last < 0 || len(f.chunks[last]) == cap(f.chunks[last]) {
			// A new chunk is as large as the full ones before it, 512 B to
			// 64 KiB: a small file stays small, and past 64 KiB the chunk
			// edges fall on multiples of 64 KiB.
			f.chunks = append(f.chunks, make([]byte, 0, min(max(f.size, 512), 64<<10)))
			last++
		}
		n := min(len(p), cap(f.chunks[last])-len(f.chunks[last]))
		f.chunks[last] = append(f.chunks[last], p[:n]...)
		f.size += n
		p = p[n:]
	}
}

// bytes returns a copy of the file's contents in one slice.
func (f *memFile) bytes() []byte {
	data := make([]byte, 0, f.size)
	for _, c := range f.chunks {
		data = append(data, c...)
	}
	return data
}

// NewMemFS returns an empty in-memory filesystem.
func NewMemFS() *MemFS {
	return &MemFS{files: make(map[string]*memFile)}
}

type memHandle struct {
	fs   *MemFS
	name string
}

func (h *memHandle) Write(p []byte) (int, error) {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	f, ok := h.fs.files[h.name]
	if !ok {
		return 0, fmt.Errorf("durable: write to removed file %q", h.name)
	}
	f.write(p)
	return len(p), nil
}

func (h *memHandle) Sync() error {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	if f, ok := h.fs.files[h.name]; ok {
		f.synced = f.size
	}
	return nil
}

func (h *memHandle) Close() error { return nil }

// Append implements FS.
func (fs *MemFS) Append(name string) (File, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if _, ok := fs.files[name]; !ok {
		fs.files[name] = &memFile{}
	}
	return &memHandle{fs: fs, name: name}, nil
}

// Open implements FS. The reader serves the chunks the file holds when it
// is opened, copying none of them; bytes written later are not seen, bits
// Corrupt flips are.
func (fs *MemFS) Open(name string) (io.ReadCloser, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	f, ok := fs.files[name]
	if !ok {
		return nil, os.ErrNotExist
	}
	chunks := make([]io.Reader, len(f.chunks))
	for i, c := range f.chunks {
		chunks[i] = bytes.NewReader(c)
	}
	return io.NopCloser(io.MultiReader(chunks...)), nil
}

// Truncate implements FS.
func (fs *MemFS) Truncate(name string, size int64) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	f, ok := fs.files[name]
	if !ok {
		return os.ErrNotExist
	}
	if size < 0 || size > int64(f.size) {
		return fmt.Errorf("durable: truncate %q to %d out of range", name, size)
	}
	data := f.bytes()[:size]
	*f = memFile{synced: min(f.synced, int(size)), linked: f.linked}
	f.write(data)
	return nil
}

// Rename implements FS. Like OSFS.Rename it implies a directory sync: the
// new name's dirent is durable afterwards.
func (fs *MemFS) Rename(oldname, newname string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	f, ok := fs.files[oldname]
	if !ok {
		return os.ErrNotExist
	}
	delete(fs.files, oldname)
	f.linked = true
	fs.files[newname] = f
	return nil
}

// Remove implements FS.
func (fs *MemFS) Remove(name string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if _, ok := fs.files[name]; !ok {
		return os.ErrNotExist
	}
	delete(fs.files, name)
	return nil
}

// List implements FS.
func (fs *MemFS) List() ([]string, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	names := make([]string, 0, len(fs.files))
	for n := range fs.files {
		names = append(names, n)
	}
	sort.Strings(names)
	return names, nil
}

// SyncDir implements FS: every existing file's dirent becomes durable.
func (fs *MemFS) SyncDir() error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	for _, f := range fs.files {
		f.linked = true
	}
	return nil
}

// SyncedOnly returns the power-loss image of the filesystem: only files
// whose dirent was made durable (SyncDir or Rename) survive, each truncated
// to its synced byte count. Recovering from this image instead of the MemFS
// itself models a power cut rather than a process kill — nothing the page
// cache held survives.
func (fs *MemFS) SyncedOnly() *MemFS {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	out := NewMemFS()
	for name, f := range fs.files {
		if !f.linked {
			continue
		}
		g := &memFile{synced: f.synced, linked: true}
		g.write(f.bytes()[:f.synced])
		out.files[name] = g
	}
	return out
}

// Corrupt XORs mask into byte off of name, simulating silent media damage at
// rest. It reports whether the byte existed.
func (fs *MemFS) Corrupt(name string, off int, mask byte) bool {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	f, ok := fs.files[name]
	if !ok || off < 0 || off >= f.size || mask == 0 {
		return false
	}
	for _, c := range f.chunks {
		if off < len(c) {
			c[off] ^= mask
			break
		}
		off -= len(c)
	}
	return true
}

// Size returns the byte length of name (-1 when absent).
func (fs *MemFS) Size(name string) int64 {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if f, ok := fs.files[name]; ok {
		return int64(f.size)
	}
	return -1
}

// CrashFS wraps an FS with a faultnet-style kill switch: the Nth byte
// written through it (counted across all files) is the last one persisted —
// the write in flight keeps its prefix, then every subsequent operation
// fails with ErrCrashed, exactly as if the process died mid-write. KillAt<0
// disables the fault. The wrapper is deterministic: the same operation
// sequence with the same KillAt crashes at the same byte.
type CrashFS struct {
	inner FS

	mu      sync.Mutex
	killAt  int64 // total bytes after which writes die; -1 = never
	written int64
	crashed bool
}

// NewCrashFS wraps inner, killing writes once killAt total bytes have been
// persisted through the wrapper (killAt < 0 = never).
func NewCrashFS(inner FS, killAt int64) *CrashFS {
	return &CrashFS{inner: inner, killAt: killAt}
}

// Crashed reports whether the kill offset has been reached.
func (fs *CrashFS) Crashed() bool {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.crashed
}

// BytesWritten reports total bytes persisted through the wrapper.
func (fs *CrashFS) BytesWritten() int64 {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.written
}

func (fs *CrashFS) check() error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if fs.crashed {
		return ErrCrashed
	}
	return nil
}

type crashHandle struct {
	fs    *CrashFS
	inner File
}

func (h *crashHandle) Write(p []byte) (int, error) {
	h.fs.mu.Lock()
	if h.fs.crashed {
		h.fs.mu.Unlock()
		return 0, ErrCrashed
	}
	allow := len(p)
	kill := false
	if h.fs.killAt >= 0 && h.fs.written+int64(len(p)) > h.fs.killAt {
		allow = int(h.fs.killAt - h.fs.written)
		kill = true
		h.fs.crashed = true
	}
	h.fs.written += int64(allow)
	h.fs.mu.Unlock()
	if allow > 0 {
		if n, err := h.inner.Write(p[:allow]); err != nil {
			return n, err
		}
	}
	if kill {
		// The dying write still hits the media for its prefix.
		_ = h.inner.Sync()
		return allow, ErrCrashed
	}
	return allow, nil
}

func (h *crashHandle) Sync() error {
	if err := h.fs.check(); err != nil {
		return err
	}
	return h.inner.Sync()
}

func (h *crashHandle) Close() error { return h.inner.Close() }

// Append implements FS.
func (fs *CrashFS) Append(name string) (File, error) {
	if err := fs.check(); err != nil {
		return nil, err
	}
	f, err := fs.inner.Append(name)
	if err != nil {
		return nil, err
	}
	return &crashHandle{fs: fs, inner: f}, nil
}

// Open implements FS.
func (fs *CrashFS) Open(name string) (io.ReadCloser, error) {
	if err := fs.check(); err != nil {
		return nil, err
	}
	return fs.inner.Open(name)
}

// Truncate implements FS.
func (fs *CrashFS) Truncate(name string, size int64) error {
	if err := fs.check(); err != nil {
		return err
	}
	return fs.inner.Truncate(name, size)
}

// Rename implements FS.
func (fs *CrashFS) Rename(oldname, newname string) error {
	if err := fs.check(); err != nil {
		return err
	}
	return fs.inner.Rename(oldname, newname)
}

// Remove implements FS.
func (fs *CrashFS) Remove(name string) error {
	if err := fs.check(); err != nil {
		return err
	}
	return fs.inner.Remove(name)
}

// List implements FS.
func (fs *CrashFS) List() ([]string, error) {
	if err := fs.check(); err != nil {
		return nil, err
	}
	return fs.inner.List()
}

// SyncDir implements FS.
func (fs *CrashFS) SyncDir() error {
	if err := fs.check(); err != nil {
		return err
	}
	return fs.inner.SyncDir()
}

// isTmp reports whether name is a leftover temp file from an interrupted
// snapshot publication.
func isTmp(name string) bool { return strings.HasSuffix(name, ".tmp") }
