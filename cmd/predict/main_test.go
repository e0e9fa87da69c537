package main

import (
	"bytes"
	"io"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"fgcs/internal/trace"
	"fgcs/internal/workload"
)

func writeTestTrace(t *testing.T) string {
	t.Helper()
	p := workload.DefaultParams()
	p.Machines = 2
	p.Days = 14
	ds, err := workload.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "t.bin")
	if err := trace.SaveFile(path, ds); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunAllMachines(t *testing.T) {
	path := writeTestTrace(t)
	if err := run(io.Discard, path, "", 8*time.Hour, 2*time.Hour, "weekday", 0, 100, 2); err != nil {
		t.Fatal(err)
	}
	if err := run(io.Discard, path, "lab-02", 9*time.Hour, time.Hour, "weekend", 5, 50, 2); err != nil {
		t.Fatal(err)
	}
}

func TestRunErrors(t *testing.T) {
	path := writeTestTrace(t)
	cases := []struct {
		name string
		f    func() error
	}{
		{"missing trace flag", func() error {
			return run(io.Discard, "", "", 8*time.Hour, time.Hour, "weekday", 0, 100, 2)
		}},
		{"bad day type", func() error {
			return run(io.Discard, path, "", 8*time.Hour, time.Hour, "someday", 0, 100, 2)
		}},
		{"missing file", func() error {
			return run(io.Discard, filepath.Join(t.TempDir(), "nope.bin"), "", 8*time.Hour, time.Hour, "weekday", 0, 100, 2)
		}},
		{"start past the day", func() error {
			return run(io.Discard, path, "", 24*time.Hour, time.Hour, "weekday", 0, 100, 2)
		}},
		{"empty window", func() error {
			return run(io.Discard, path, "", 8*time.Hour, 0, "weekday", 0, 100, 2)
		}},
	}
	for _, c := range cases {
		if err := c.f(); err == nil {
			t.Errorf("%s accepted", c.name)
		}
	}
}

// TestRunClipsAtMidnight: a window past midnight is clipped there, as
// QueryTR clips a served one (predict.WindowAt), and the report names the
// window it answered for.
func TestRunClipsAtMidnight(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out, writeTestTrace(t), "", 22*time.Hour, 4*time.Hour, "weekday", 0, 100, 2); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "window 22:00+2h0m0s on ") {
		t.Fatalf("report does not name the clipped window:\n%s", out.String())
	}
}
