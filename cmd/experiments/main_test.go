package main

import (
	"os"
	"strings"
	"testing"
)

// The quick path of every experiment must run end to end; this is the
// regression net for the harness plumbing (the statistical content is tested
// in internal/experiments).
func TestRealMainQuickSingles(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real experiment code")
	}
	for _, id := range []string{"s7", "f4", "s6", "f8", "e1b", "e2", "x4"} {
		if err := realMain(id, 2, 14, 1, "", true); err != nil {
			t.Errorf("%s: %v", id, err)
		}
	}
}

func TestRealMainUnknownIDIsNoop(t *testing.T) {
	// Unknown ids simply select no experiment; the trace is not even
	// generated.
	if err := realMain("zzz", 1, 1, 1, "", true); err != nil {
		t.Fatal(err)
	}
}

func TestRealMainBadTraceFile(t *testing.T) {
	if err := realMain("s6", 1, 1, 1, "/nonexistent/file.bin", true); err == nil {
		t.Fatal("missing trace file accepted")
	}
}

// TestContentionBlocksMatchRecordedOutput regenerates the E1, E1b and E2
// blocks of the checked-in experiments_output.txt and compares them byte for
// byte. The three are pure functions of their seeds — no trace, no clock — so
// the record doubles as the golden for the contention simulator's random
// draw order, and it cannot go stale.
func TestContentionBlocksMatchRecordedOutput(t *testing.T) {
	recorded, err := os.ReadFile("../../experiments_output.txt")
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"e1", "e1b", "e2"} {
		if id == "e1" && testing.Short() {
			continue // the 8 s leg
		}
		// The block runs from its header to the next experiment's.
		header := "== " + strings.ToUpper(id[:1]) + id[1:] + ":"
		start := strings.Index(string(recorded), header)
		if start < 0 {
			t.Fatalf("%s: no %q block in experiments_output.txt", id, header)
		}
		want := string(recorded[start:])
		if next := strings.Index(want[len(header):], "\n== "); next >= 0 {
			want = want[:len(header)+next+1]
		}

		out, err := os.Create(t.TempDir() + "/stdout")
		if err != nil {
			t.Fatal(err)
		}
		stdout := os.Stdout
		os.Stdout = out
		err = realMain(id, 6, 90, 1, "", false)
		os.Stdout = stdout
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if err := out.Close(); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(out.Name())
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != want {
			t.Errorf("%s differs from experiments_output.txt\n--- got ---\n%s--- recorded ---\n%s", id, got, want)
		}
	}
}
