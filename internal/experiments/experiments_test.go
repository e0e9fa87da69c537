package experiments

import (
	"math"
	"testing"
	"time"

	"fgcs/internal/avail"
	"fgcs/internal/stats"
	"fgcs/internal/trace"
	"fgcs/internal/workload"
)

// testTrace caches a small generated dataset shared by the tests.
var testTrace *trace.Dataset

func getTrace(t *testing.T) *trace.Dataset {
	t.Helper()
	if testTrace == nil {
		p := workload.DefaultParams()
		p.Machines = 2
		p.Days = 56
		ds, err := workload.Generate(p)
		if err != nil {
			t.Fatal(err)
		}
		testTrace = ds
	}
	return testTrace
}

func TestRunF4ShapeAndCost(t *testing.T) {
	ds := getTrace(t)
	rows, exp, err := RunF4(ds.Machines[0], avail.DefaultConfig(), []float64{0.5, 1, 2, 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	for i := 1; i < len(rows); i++ {
		if rows[i].Ops <= rows[i-1].Ops {
			t.Fatalf("solver ops not increasing: %v", rows)
		}
		if rows[i].TR < 0 || rows[i].TR > 1 {
			t.Fatalf("TR out of range: %v", rows[i].TR)
		}
	}
	// Ops are quadratic in window length: the 4h/0.5h ratio must far
	// exceed linear growth.
	if rows[3].Ops < 8*rows[0].Ops {
		t.Fatalf("ops growth not superlinear: %d -> %d", rows[0].Ops, rows[3].Ops)
	}
	// The wall-clock exponent is too noisy to assert on a loaded test
	// machine; assert the deterministic ops exponent instead and only
	// log the measured wall exponent.
	t.Logf("wall-clock cost exponent: %v (paper: 1.85)", exp)
	var xs, ys []float64
	for _, r := range rows {
		xs = append(xs, r.WindowHours)
		ys = append(ys, float64(r.Ops))
	}
	opsExp, err := stats.PowerLawExponent(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if opsExp < 1.5 {
		t.Errorf("ops exponent = %v, want ~2 (the superlinear Figure 4 shape)", opsExp)
	}
	if _, _, err := RunF4(trace.NewMachine("empty", time.Second), avail.DefaultConfig(), []float64{1}); err == nil {
		t.Fatal("empty machine accepted")
	}
}

func TestRunF5Basics(t *testing.T) {
	ds := getTrace(t)
	cfg := DefaultF5Config(trace.Weekday)
	cfg.LengthsHours = []float64{1, 3}
	cfg.StartHours = []int{2, 8, 14, 20}
	rows, err := RunF5(ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.Windows == 0 {
			t.Fatalf("no windows contributed at %vh", r.WindowHours)
		}
		if math.IsNaN(r.Err.Mean) || r.Err.Mean < 0 {
			t.Fatalf("bad error summary: %+v", r.Err)
		}
		if r.Err.Min > r.Err.Mean || r.Err.Mean > r.Err.Max {
			t.Fatalf("summary ordering broken: %+v", r.Err)
		}
	}
	if _, err := RunF5(&trace.Dataset{}, cfg); err == nil {
		t.Fatal("empty dataset accepted")
	}
}

func TestRunF6CoversRatios(t *testing.T) {
	if testing.Short() {
		t.Skip("ratio sweep is slow")
	}
	ds := getTrace(t)
	rows, err := RunF6(ds, avail.DefaultConfig(), []float64{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 9 {
		t.Fatalf("rows = %d, want 9 ratios", len(rows))
	}
	for i, r := range rows {
		if r.TrainParts != i+1 || r.TestParts != 9-i {
			t.Fatalf("ratio row %d = %d:%d", i, r.TrainParts, r.TestParts)
		}
		if r.MaxAvg < 0 || r.Max < r.MaxAvg {
			t.Fatalf("row %d stats inconsistent: %+v", i, r)
		}
	}
}

func TestRunF7SMPBeatsTimeSeriesLongTerm(t *testing.T) {
	if testing.Short() {
		t.Skip("model comparison is slow")
	}
	ds := getTrace(t)
	cfg := DefaultF7Config()
	cfg.LengthsHours = []float64{1, 5}
	rows, err := RunF7(ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("rows = %d, want SMP + 5 baselines", len(rows))
	}
	if rows[0].Model != "SMP" {
		t.Fatalf("first row = %s", rows[0].Model)
	}
	// The paper's central comparison: at the long horizon the SMP's max
	// error is below every linear time-series model's.
	smpErr := rows[0].MaxErr[1]
	for _, r := range rows[1:] {
		if r.MaxErr[1] <= smpErr {
			t.Errorf("%s long-window max error %v not worse than SMP %v", r.Model, r.MaxErr[1], smpErr)
		}
	}
	if _, err := RunF7(&trace.Dataset{}, cfg); err == nil {
		t.Fatal("empty dataset accepted")
	}
}

func TestRunS6Counts(t *testing.T) {
	ds := getTrace(t)
	rows := RunS6(ds, avail.DefaultConfig())
	if len(rows) != len(ds.Machines) {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.Events <= 0 {
			t.Fatalf("%s has no events", r.MachineID)
		}
		sum := 0
		for _, c := range r.ByState {
			sum += c
		}
		if sum != r.Events {
			t.Fatalf("%s: per-state sum %d != total %d", r.MachineID, sum, r.Events)
		}
	}
}

func TestRunS7Overhead(t *testing.T) {
	res, err := RunS7(5000, trace.DefaultPeriod)
	if err != nil {
		t.Fatal(err)
	}
	if res.Samples != 5000 || res.PerSample <= 0 {
		t.Fatalf("result = %+v", res)
	}
	// The sampling path must cost far less than 1% of the 6 s period.
	if res.PeriodFraction > 0.01 {
		t.Errorf("monitoring overhead %v of the period, want < 1%%", res.PeriodFraction)
	}
	if _, err := RunS7(0, time.Second); err == nil {
		t.Fatal("zero samples accepted")
	}
}

func TestWindowFor(t *testing.T) {
	if _, ok := windowFor(8, 2); !ok {
		t.Fatal("valid window rejected")
	}
	if _, ok := windowFor(20, 10); ok {
		t.Fatal("overflowing window accepted")
	}
}
