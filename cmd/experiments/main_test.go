package main

import (
	"bytes"
	"flag"
	"io"
	"os"
	"slices"
	"strings"
	"testing"

	"fgcs/internal/avail"
	"fgcs/internal/experiments"
	"fgcs/internal/trace"
	"fgcs/internal/workload"
)

var update = flag.Bool("update", false, "rewrite the scorecard block of EXPERIMENTS.md")

// The quick path of every experiment must run end to end; this is the
// regression net for the harness plumbing (the statistical content is the
// scorecard's).
func TestRealMainQuickSingles(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real experiment code")
	}
	for _, id := range []string{"s7", "f4", "s6", "f8", "e1b", "e2", "x4", "x5", "claims"} {
		if _, err := realMain(io.Discard, id, 2, 14, 1, "", true); err != nil {
			t.Errorf("%s: %v", id, err)
		}
	}
}

// X5's adaptive interval is sized from the history a scheduler has when the
// first test job arrives: rewriting every sample from the first test day on
// (here, to a machine that is down all day) must not move it.
func TestX5IntervalIgnoresTestDays(t *testing.T) {
	p := workload.DefaultParams()
	p.Machines, p.Days, p.ActivityScale = 1, 28, 1.3
	ds, err := workload.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	m, startDay := ds.Machines[0], 18
	before, tr, err := x5Interval(m, startDay, avail.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if before <= 0 || before >= x5Work || tr <= 0 || tr >= 1 {
		t.Fatalf("interval %v from TR %.3f: the history gives nothing to size", before, tr)
	}
	for _, d := range m.Days[startDay:] {
		for i := range d.Samples {
			d.Samples[i] = trace.Sample{}
		}
	}
	after, _, err := x5Interval(m, startDay, avail.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if after != before {
		t.Errorf("interval %v became %v when the test days were rewritten", before, after)
	}
}

func TestRealMainUnknownIDIsError(t *testing.T) {
	_, err := realMain(io.Discard, "zzz", 1, 1, 1, "", true)
	if err == nil {
		t.Fatal("unknown id ran nothing and reported success")
	}
	for _, id := range []string{`"zzz"`, "all", "claims", "e1b", "x4"} {
		if !strings.Contains(err.Error(), id) {
			t.Errorf("error %q does not name %s", err, id)
		}
	}
}

func TestRealMainBadTraceFile(t *testing.T) {
	if _, err := realMain(io.Discard, "s6", 1, 1, 1, "/nonexistent/file.bin", true); err == nil {
		t.Fatal("missing trace file accepted")
	}
}

// Every claim must name, by its id's prefix, exactly one registry row: that is
// how -run claims finds the experiments to run.
func TestClaimsNameRegistryRows(t *testing.T) {
	for _, c := range experiments.Claims {
		n := 0
		for _, x := range registry {
			if x.feeds(c) {
				n++
			}
		}
		if n != 1 {
			t.Errorf("claim %s is fed by %d registry rows", c.ID, n)
		}
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
		var got bytes.Buffer
		if _, err := realMain(&got, id, 6, 90, 1, "", false); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if got.String() != want {
			t.Errorf("%s differs from experiments_output.txt\n--- got ---\n%s--- recorded ---\n%s", id, &got, want)
		}
	}
}

// TestScorecard runs -run claims at the canonical scale and holds
// EXPERIMENTS.md to it: the block between the markers must equal the
// generated one byte for byte (-update rewrites it), and no verdict may
// differ from the one recorded in experiments.Claims. Then it doctors the
// results to prove the rules are not vacuous: each doctoring must flip
// exactly the verdicts listed for it.
func TestScorecard(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every claim's experiment at full scale")
	}
	var got bytes.Buffer
	res, err := realMain(&got, "claims", 6, 90, 1, "", false)
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(got.String(), "\n") {
		if strings.Contains(line, "(recorded:") {
			t.Errorf("verdict differs from the recorded one: %s", line)
		}
	}

	const path = "../../EXPERIMENTS.md"
	doc, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	begin := bytes.Index(doc, []byte(experiments.BlockBegin))
	end := bytes.Index(doc, []byte(experiments.BlockEnd))
	if begin < 0 || end < begin {
		t.Fatalf("%s has no %s … %s block", path, experiments.BlockBegin, experiments.BlockEnd)
	}
	end += len(experiments.BlockEnd) + 1 // the marker's newline
	if *update {
		if err := os.WriteFile(path, slices.Concat(doc[:begin], got.Bytes(), doc[end:]), 0o644); err != nil {
			t.Fatal(err)
		}
	} else if !bytes.Equal(doc[begin:end], got.Bytes()) {
		t.Errorf("the scorecard in %s is not what -run claims prints (make golden-update rewrites it)\n--- generated ---\n%s", path, &got)
	}

	verdicts := func(r *experiments.Results) map[string]experiments.Verdict {
		out := map[string]experiments.Verdict{}
		for _, c := range experiments.Claims {
			_, out[c.ID] = c.Judge(r)
		}
		return out
	}
	honest := verdicts(res)
	for _, d := range []struct {
		name   string
		doctor func(r *experiments.Results)
		flips  map[string]experiments.Verdict
	}{
		{"F7: SMP's and AR's rows swapped", func(r *experiments.Results) {
			r.F7 = slices.Clone(r.F7)
			r.F7[0].MaxErr, r.F7[1].MaxErr = r.F7[1].MaxErr, r.F7[0].MaxErr
		}, map[string]experiments.Verdict{"F7-rank": experiments.NotReproduced}},
		{"E1: Th1 = 35", func(r *experiments.Results) {
			e1 := *r.E1
			e1.Th1 = 35
			r.E1 = &e1
		}, map[string]experiments.Verdict{"E1-Th1": experiments.ShapeOnly}},
		{"F8: the 10-instance row zeroed", func(r *experiments.Results) {
			r.F8 = slices.Clone(r.F8)
			r.F8[10].Discrepancy = make([]float64, len(r.F8[10].Discrepancy))
		}, map[string]experiments.Verdict{"F8-long": experiments.Reproduced, "F8-grows": experiments.NotReproduced}},
		{"X5: the TR-sized policy given restart's mean wall", func(r *experiments.Results) {
			r.X5 = slices.Clone(r.X5)
			r.X5[len(r.X5)-1].MeanWall = r.X5[0].MeanWall
		}, map[string]experiments.Verdict{"X5-ckpt": experiments.NotReproduced}},
	} {
		doctored := *res
		d.doctor(&doctored)
		for id, v := range verdicts(&doctored) {
			want, flips := d.flips[id]
			if !flips {
				want = honest[id]
			}
			if v != want {
				t.Errorf("%s: %s is %v, want %v", d.name, id, v, want)
			}
		}
	}
}
