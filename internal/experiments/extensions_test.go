package experiments

import (
	"fmt"
	"testing"

	"fgcs/internal/avail"
	"fgcs/internal/trace"
)

func TestHeterogeneousTestbed(t *testing.T) {
	ds, err := HeterogeneousTestbed(14, []float64{1.4, 0.4}, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(ds.Machines) != 2 {
		t.Fatalf("machines = %d", len(ds.Machines))
	}
	if ds.Machines[0].ID != "lab-01" || ds.Machines[1].ID != "lab-02" {
		t.Fatalf("ids = %s %s", ds.Machines[0].ID, ds.Machines[1].ID)
	}
	// The busy machine must accumulate more unavailability than the
	// quiet one.
	cfg := avail.DefaultConfig()
	count := func(m *trace.Machine) int {
		total := 0
		for _, d := range m.Days {
			total += avail.CountEvents(d, cfg)
		}
		return total
	}
	busy, quiet := count(ds.Machines[0]), count(ds.Machines[1])
	if busy <= quiet {
		t.Fatalf("busy machine has %d events, quiet has %d", busy, quiet)
	}
	if _, err := HeterogeneousTestbed(0, []float64{1}, 1); err == nil {
		t.Fatal("zero days accepted")
	}
}

func TestRunX1SchedulingBenefit(t *testing.T) {
	if testing.Short() {
		t.Skip("placement sweep is slow")
	}
	ds, err := HeterogeneousTestbed(56, DefaultTestbedScales, 9)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultX1Config()
	cfg.HistoryDays = 28
	rows, err := RunX1(ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	byName := map[string]X1Row{}
	for _, r := range rows {
		byName[r.Policy] = r
		if r.Completed+r.Killed == 0 {
			t.Fatalf("%s placed no jobs", r.Policy)
		}
	}
	// Ordering claims: oracle >= tr-aware > both oblivious baselines.
	if byName["oracle"].Completed < byName["tr-aware"].Completed {
		t.Errorf("oracle (%d) below tr-aware (%d)", byName["oracle"].Completed, byName["tr-aware"].Completed)
	}
	for _, base := range []string{"round-robin", "random"} {
		if byName["tr-aware"].Completed <= byName[base].Completed {
			t.Errorf("tr-aware (%d) not above %s (%d)",
				byName["tr-aware"].Completed, base, byName[base].Completed)
		}
	}
}

func TestRunX1Errors(t *testing.T) {
	ds := getTrace(t)
	one := &trace.Dataset{Machines: ds.Machines[:1]}
	if _, err := RunX1(one, DefaultX1Config()); err == nil {
		t.Fatal("single machine accepted")
	}
	cfg := DefaultX1Config()
	cfg.HistoryDays = 100000
	if _, err := RunX1(ds, cfg); err == nil {
		t.Fatal("history beyond trace accepted")
	}
}

func TestRunX2PoolSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("pool sweep is slow")
	}
	ds := getTrace(t)
	rows, err := RunX2(ds, avail.DefaultConfig(), []int{2, 10, 0}, []float64{1, 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.Windows == 0 {
			t.Fatalf("pool N=%d scored no windows", r.HistoryDays)
		}
		if r.AvgErr < 0 || r.MaxErr < r.AvgErr {
			t.Fatalf("pool N=%d stats inconsistent: %+v", r.HistoryDays, r)
		}
	}
	// A tiny pool (2 days) must not beat the full pool on average: two
	// days cannot estimate the failure statistics.
	if rows[0].AvgErr < rows[2].AvgErr*0.8 {
		t.Errorf("N=2 (%v) implausibly better than all-days (%v)", rows[0].AvgErr, rows[2].AvgErr)
	}
}

func TestRunX3EnterpriseExpectation(t *testing.T) {
	if testing.Short() {
		t.Skip("dual-testbed sweep is slow")
	}
	rows, err := RunX3(2, 42, 3, []float64{1, 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	byKey := map[string]X3Row{}
	for _, r := range rows {
		byKey[r.Profile+"/"+fmtHours(r.WindowHours)] = r
		if r.Windows == 0 {
			t.Fatalf("%s %vh scored no windows", r.Profile, r.WindowHours)
		}
	}
	// The paper's Section 8 expectation: the prediction performs well on
	// the enterprise testbed too — within 2.5x of the lab accuracy at
	// short windows (it is usually comparable or better).
	lab, ent := byKey["lab/1"], byKey["enterprise/1"]
	if ent.AvgErr > 2.5*lab.AvgErr+0.05 {
		t.Errorf("enterprise 1h error %v far above lab %v", ent.AvgErr, lab.AvgErr)
	}
}

func fmtHours(h float64) string {
	if h == float64(int(h)) {
		return fmt.Sprintf("%d", int(h))
	}
	return fmt.Sprintf("%g", h)
}
