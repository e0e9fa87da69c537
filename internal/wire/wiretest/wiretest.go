// Package wiretest holds the checks shared by every format built on
// internal/wire: the codec tests call CheckDecoder on one encoder-produced
// input and Golden on its bytes, the fuzz targets call Bounded on fuzzed ones.
package wiretest

import (
	"encoding/hex"
	"os"
	"runtime"
	"strings"
	"testing"
)

// Golden fails t unless got equals the hex text checked in at path. The
// formats are on disk, so an encoder's bytes may not change: the files were
// written by the last commit before internal/wire existed and there is no
// switch to regenerate them.
func Golden(t *testing.T, path string, got []byte) {
	t.Helper()
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if strings.TrimSpace(string(want)) != hex.EncodeToString(got) {
		t.Fatalf("%s: encoder output changed:\ngot  %x\nwant %s", path, got, want)
	}
}

// Bounded runs decode(data) and returns its error. It fails t if decode
// panics, or rejects data after allocating more than a small multiple of
// len(data): a count was trusted before the bytes behind it were seen.
func Bounded(t testing.TB, data []byte, decode func([]byte) error) error {
	t.Helper()
	defer func() {
		if p := recover(); p != nil {
			t.Fatalf("decoder panicked on %x: %v", data, p)
		}
	}()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err := decode(data)
	runtime.ReadMemStats(&after)
	// TotalAlloc is process-wide; the fixed allowance absorbs what a
	// goroutine left behind by an earlier test allocates meanwhile.
	if grew := after.TotalAlloc - before.TotalAlloc; err != nil && grew > uint64(64*len(data)+64<<10) {
		t.Fatalf("rejected %d-byte input allocated %d bytes: %x", len(data), grew, data)
	}
	return err
}

// CheckDecoder asserts that decode accepts good, rejects every proper prefix
// of it and good plus one byte, and survives every single-bit flip — each
// under Bounded's no-panic and bounded-allocation rules.
func CheckDecoder(t *testing.T, good []byte, decode func([]byte) error) {
	t.Helper()
	if err := Bounded(t, good, decode); err != nil {
		t.Fatalf("encoder output rejected: %v", err)
	}
	for n := range good {
		if Bounded(t, good[:n], decode) == nil {
			t.Fatalf("%d-byte prefix of a %d-byte input accepted", n, len(good))
		}
	}
	if Bounded(t, append(good[:len(good):len(good)], 0), decode) == nil {
		t.Fatal("input plus one trailing byte accepted")
	}
	flipped := append([]byte(nil), good...)
	for i := range flipped {
		for bit := 0; bit < 8; bit++ {
			flipped[i] ^= 1 << bit
			_ = Bounded(t, flipped, decode)
			flipped[i] ^= 1 << bit
		}
	}
}
