package predict

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"fgcs/internal/avail"
	"fgcs/internal/timeseries"
	"fgcs/internal/trace"
	"fgcs/internal/workload"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden prediction file")

// goldenWorkload is the fixed-seed scenario the golden file pins: two
// machines, twelve days, one-minute sampling. Everything downstream of the
// workload generator — classification, sojourn extraction, kernel
// estimation, the Equation (3) solve, and every linear baseline — feeds into
// the recorded numbers, so any unintended numerical drift in any layer
// breaks this test bit-for-bit.
func goldenWorkload(t *testing.T) *trace.Dataset {
	t.Helper()
	ds, err := workload.Generate(workload.Params{
		Machines:         2,
		Days:             12,
		Start:            time.Date(2005, 8, 22, 0, 0, 0, 0, time.UTC),
		Period:           time.Minute,
		Seed:             7,
		TotalMemMB:       512,
		ActivityScale:    1.0,
		RebootProb:       0.07,
		DailyFailureProb: 0.08,
	})
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

// f64 formats a float with full round-trip precision, so the golden file is
// an exact bit-level record (two floats format identically iff they are the
// same float64).
func f64(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

func TestGoldenPredictions(t *testing.T) {
	ds := goldenWorkload(t)
	cfg := avail.DefaultConfig()
	windows := []Window{
		{Start: 8 * time.Hour, Length: time.Hour},
		{Start: 8 * time.Hour, Length: 4 * time.Hour},
		{Start: 14 * time.Hour, Length: 2 * time.Hour},
		{Start: 20 * time.Hour, Length: 3 * time.Hour},
	}

	var b strings.Builder
	b.WriteString("# machine window predictor value — regenerate with: go test ./internal/predict -run TestGoldenPredictions -update\n")
	for _, m := range ds.Machines {
		days := m.DaysOfType(trace.Weekday)
		for _, w := range windows {
			smp := SMP{Cfg: cfg}
			pred, err := smp.Predict(days, w)
			if err != nil {
				t.Fatalf("%s %v SMP: %v", m.ID, w, err)
			}
			fmt.Fprintf(&b, "%s %v SMP %s\n", m.ID, w, f64(pred.TR))
			fmt.Fprintf(&b, "%s %v SMP-windows %d\n", m.ID, w, pred.HistoryWindows)
			emp, n := EmpiricalTR(days, w, cfg)
			fmt.Fprintf(&b, "%s %v empirical %s over %d\n", m.ID, w, f64(emp), n)
			for _, fit := range timeseries.ReferenceSuite() {
				ts := TimeSeries{Cfg: cfg, Fitter: fit}
				tr, err := ts.predictDays(days, w)
				if err != nil {
					t.Fatalf("%s %v %s: %v", m.ID, w, fit.Name(), err)
				}
				fmt.Fprintf(&b, "%s %v %s %s\n", m.ID, w, fit.Name(), f64(tr))
			}
		}
	}
	got := b.String()

	path := filepath.Join("testdata", "golden_predictions.txt")
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("golden file rewritten: %s", path)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading golden file (run with -update to create it): %v", err)
	}
	if got == string(want) {
		return
	}
	// Report the first diverging line, not a wall of text.
	gotLines, wantLines := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gotLines) || i < len(wantLines); i++ {
		var g, w string
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if g != w {
			t.Fatalf("golden mismatch at line %d:\n got: %s\nwant: %s\n(run with -update if the change is intended)", i+1, g, w)
		}
	}
}

// TestGoldenPredictionsPlugins pins the non-paper day-structured plugins
// (FFT, PCT) bit-for-bit over the same fixed-seed workload and windows as
// TestGoldenPredictions; the spectral pipeline (classification, box-filter
// resampling, radix-2 FFT, spectrum selection, series evaluation) and the
// quantile scorer all feed the recorded numbers. The name matches both the
// `make golden` and `make golden-update` filters.
func TestGoldenPredictionsPlugins(t *testing.T) {
	ds := goldenWorkload(t)
	cfg := avail.DefaultConfig()
	windows := []Window{
		{Start: 8 * time.Hour, Length: time.Hour},
		{Start: 8 * time.Hour, Length: 4 * time.Hour},
		{Start: 14 * time.Hour, Length: 2 * time.Hour},
		{Start: 20 * time.Hour, Length: 3 * time.Hour},
	}
	fft := DefaultSpectral()
	fft.Cfg = cfg
	pct := DefaultPercentile()
	pct.Cfg = cfg
	plugins := []Plugin{fft, pct}

	var b strings.Builder
	b.WriteString("# machine window predictor value — regenerate with: go test ./internal/predict -run TestGoldenPredictionsPlugins -update\n")
	for _, m := range ds.Machines {
		days := m.DaysOfType(trace.Weekday)
		for _, w := range windows {
			for _, pl := range plugins {
				tr, err := pl.PredictTR(PluginInput{Days: days, Window: w, Period: m.Period})
				if err != nil {
					t.Fatalf("%s %v %s: %v", m.ID, w, pl.Name(), err)
				}
				if tr < 0 || tr > 1 {
					t.Fatalf("%s %v %s: TR %v outside [0, 1]", m.ID, w, pl.Name(), tr)
				}
				fmt.Fprintf(&b, "%s %v %s %s\n", m.ID, w, pl.Name(), f64(tr))
			}
		}
	}
	got := b.String()

	path := filepath.Join("testdata", "golden_plugins.txt")
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("golden file rewritten: %s", path)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading golden file (run with -update to create it): %v", err)
	}
	if got == string(want) {
		return
	}
	gotLines, wantLines := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gotLines) || i < len(wantLines); i++ {
		var g, w string
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if g != w {
			t.Fatalf("golden mismatch at line %d:\n got: %s\nwant: %s\n(run with -update if the change is intended)", i+1, g, w)
		}
	}
}

// TestGoldenDeterminism guards the guard: generating the workload and
// evaluating one prediction twice from scratch must agree exactly, otherwise
// the golden file would flake rather than catch regressions.
func TestGoldenDeterminism(t *testing.T) {
	run := func() (float64, float64) {
		ds := goldenWorkload(t)
		days := ds.Machines[0].DaysOfType(trace.Weekday)
		w := Window{Start: 8 * time.Hour, Length: 4 * time.Hour}
		p, err := SMP{Cfg: avail.DefaultConfig()}.Predict(days, w)
		if err != nil {
			t.Fatal(err)
		}
		ts := TimeSeries{Cfg: avail.DefaultConfig(), Fitter: timeseries.ReferenceSuite()[0]}
		tr, err := ts.predictDays(days, w)
		if err != nil {
			t.Fatal(err)
		}
		return p.TR, tr
	}
	a1, a2 := run()
	b1, b2 := run()
	if a1 != b1 || a2 != b2 {
		t.Fatalf("non-deterministic predictions: (%v,%v) vs (%v,%v)", a1, a2, b1, b2)
	}
}
