package host

import (
	"math"
	"testing"
	"time"
)

const simDur = 10 * time.Minute

func TestSimulateErrors(t *testing.T) {
	m := DefaultMachine()
	ok := []Proc{{Name: "h", IsolatedCPU: 0.5, MemMB: 10}}
	if _, err := Simulate(Machine{Tick: 0}, ok, nil, simDur, 1); err == nil {
		t.Fatal("zero tick accepted")
	}
	if _, err := Simulate(m, ok, nil, time.Millisecond, 1); err == nil {
		t.Fatal("sub-tick duration accepted")
	}
	for _, bad := range []Proc{
		{Name: "x", IsolatedCPU: 0},
		{Name: "x", IsolatedCPU: 1.5},
		{Name: "x", IsolatedCPU: 0.5, Nice: -1},
		{Name: "x", IsolatedCPU: 0.5, Nice: 20},
	} {
		if _, err := Simulate(m, []Proc{bad}, nil, simDur, 1); err == nil {
			t.Fatalf("invalid proc %+v accepted", bad)
		}
	}
	if _, err := Simulate(m, ok, &Guest{Nice: 25}, simDur, 1); err == nil {
		t.Fatal("invalid guest nice accepted")
	}
}

func TestIsolatedRunHitsTarget(t *testing.T) {
	m := DefaultMachine()
	for _, l := range []float64{0.1, 0.3, 0.5, 0.7, 0.9} {
		res, err := Simulate(m, []Proc{{Name: "h", IsolatedCPU: l, MemMB: 20}}, nil, simDur, 3)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(res.HostCPU-100*l) > 3 {
			t.Fatalf("isolated usage at target %v = %v%%", l, res.HostCPU)
		}
		if res.GuestCPU != 0 {
			t.Fatal("guest CPU reported without a guest")
		}
	}
}

func TestDeterminism(t *testing.T) {
	m := DefaultMachine()
	hosts := []Proc{{Name: "h", IsolatedCPU: 0.4, MemMB: 20}}
	g := &Guest{Nice: 19, MemMB: 40}
	a, err := Simulate(m, hosts, g, simDur, 99)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := Simulate(m, hosts, g, simDur, 99)
	if a.HostCPU != b.HostCPU || a.GuestCPU != b.GuestCPU {
		t.Fatal("same seed produced different results")
	}
}

func TestGuestSoaksIdleCycles(t *testing.T) {
	m := DefaultMachine()
	hosts := []Proc{{Name: "h", IsolatedCPU: 0.3, MemMB: 20}}
	res, err := Simulate(m, hosts, &Guest{Nice: 19, MemMB: 40}, simDur, 5)
	if err != nil {
		t.Fatal(err)
	}
	if res.GuestCPU < 55 {
		t.Fatalf("guest CPU = %v%%, want most of the idle ~70%%", res.GuestCPU)
	}
}

func TestLowPriorityGuestGentler(t *testing.T) {
	m := DefaultMachine()
	for _, l := range []float64{0.3, 0.5, 0.7} {
		hosts := []Proc{{Name: "h", IsolatedCPU: l, MemMB: 20}}
		_, red0, err := reduction(m, hosts, Guest{Nice: 0, MemMB: 40}, simDur, 11)
		if err != nil {
			t.Fatal(err)
		}
		_, red19, err := reduction(m, hosts, Guest{Nice: 19, MemMB: 40}, simDur, 11)
		if err != nil {
			t.Fatal(err)
		}
		if red19 >= red0 {
			t.Fatalf("L=%v: renicing did not reduce impact (%v vs %v)", l, red19, red0)
		}
	}
}

func TestReductionGrowsWithLoad(t *testing.T) {
	m := DefaultMachine()
	avg := func(l float64, nice int) float64 {
		sum := 0.0
		const trials = 4
		for s := 0; s < trials; s++ {
			hosts := []Proc{{Name: "h", IsolatedCPU: l, MemMB: 20}}
			_, red, err := reduction(m, hosts, Guest{Nice: nice, MemMB: 40}, simDur, uint64(100+s))
			if err != nil {
				t.Fatal(err)
			}
			sum += red
		}
		return sum / trials
	}
	if lo, hi := avg(0.1, 0), avg(0.8, 0); lo >= hi {
		t.Fatalf("nice-0 reduction not increasing: %v at 10%% vs %v at 80%%", lo, hi)
	}
	if lo, hi := avg(0.2, 19), avg(0.9, 19); lo >= hi {
		t.Fatalf("nice-19 reduction not increasing: %v at 20%% vs %v at 90%%", lo, hi)
	}
}

// TestEmergentThresholds verifies the paper's central empirical claim on the
// simulator: with the 5% slowdown bound, a default-priority guest is safe
// below ~Th1=20% and a lowest-priority guest below ~Th2=60%.
func TestEmergentThresholds(t *testing.T) {
	m := DefaultMachine()
	avg := func(l float64, nice int) float64 {
		sum := 0.0
		const trials = 5
		for s := 0; s < trials; s++ {
			hosts := []Proc{{Name: "h", IsolatedCPU: l, MemMB: 20}}
			_, red, err := reduction(m, hosts, Guest{Nice: nice, MemMB: 40}, 20*time.Minute, uint64(1000+s))
			if err != nil {
				t.Fatal(err)
			}
			sum += red
		}
		return sum / trials
	}
	if red := avg(0.15, 0); red > 0.05 {
		t.Errorf("nice-0 guest at L=15%%: reduction %v > 5%%", red)
	}
	if red := avg(0.30, 0); red < 0.05 {
		t.Errorf("nice-0 guest at L=30%%: reduction %v < 5%% (Th1 should be ~20)", red)
	}
	if red := avg(0.50, 19); red > 0.05 {
		t.Errorf("nice-19 guest at L=50%%: reduction %v > 5%%", red)
	}
	if red := avg(0.70, 19); red < 0.05 {
		t.Errorf("nice-19 guest at L=70%%: reduction %v < 5%% (Th2 should be ~60)", red)
	}
}

func TestThrashing(t *testing.T) {
	m := DefaultMachine() // 384 MB, 50 MB kernel
	hosts := []Proc{{Name: "h", IsolatedCPU: 0.4, MemMB: 200}}
	// 200 + 193 + 50 = 443 > 384: thrash.
	res, err := Simulate(m, hosts, &Guest{Nice: 19, MemMB: 193}, simDur, 9)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Thrashing {
		t.Fatal("thrashing not detected")
	}
	iso, _ := Simulate(m, hosts, nil, simDur, 9)
	if res.HostCPU > iso.HostCPU*0.5 {
		t.Fatalf("thrashing host usage %v not collapsed vs isolated %v", res.HostCPU, iso.HostCPU)
	}
	// Priority does not rescue thrashing (the paper's first E2 observation).
	res0, _ := Simulate(m, hosts, &Guest{Nice: 0, MemMB: 193}, simDur, 9)
	if !res0.Thrashing {
		t.Fatal("nice-0 run must thrash too")
	}
	red19 := (iso.HostCPU - res.HostCPU) / iso.HostCPU
	red0 := (iso.HostCPU - res0.HostCPU) / iso.HostCPU
	if red19 < 0.4 || red0 < 0.4 {
		t.Fatalf("thrashing slowdown should be severe at both priorities: %v, %v", red19, red0)
	}
	// With a small guest there is no thrashing.
	small, _ := Simulate(m, hosts, &Guest{Nice: 19, MemMB: 29}, simDur, 9)
	if small.Thrashing {
		t.Fatal("small guest should not thrash")
	}
}

func TestReductionZeroFloor(t *testing.T) {
	// Reduction must never be negative even when noise favors the
	// contended run.
	m := DefaultMachine()
	hosts := []Proc{{Name: "h", IsolatedCPU: 0.05, MemMB: 20}}
	for s := uint64(0); s < 5; s++ {
		_, red, err := reduction(m, hosts, Guest{Nice: 19, MemMB: 20}, simDur, s)
		if err != nil {
			t.Fatal(err)
		}
		if red < 0 {
			t.Fatalf("negative reduction %v", red)
		}
	}
}

func TestRunE1Errors(t *testing.T) {
	cfg := DefaultE1Config()
	cfg.Trials = 0
	if _, err := RunE1(cfg); err == nil {
		t.Fatal("zero trials accepted")
	}
}

func TestSuiteRangesMatchPaper(t *testing.T) {
	for _, g := range SpecSuite() {
		if g.MemMB < 29 || g.MemMB > 193 {
			t.Errorf("guest %s working set %v outside the paper's 29-193 MB", g.Name, g.MemMB)
		}
	}
	for _, h := range MusbusSuite() {
		if h.CPU < 0.08 || h.CPU > 0.67 {
			t.Errorf("host workload %s CPU %v outside the paper's 8-67%%", h.Name, h.CPU)
		}
		if h.MemMB < 53 || h.MemMB > 213 {
			t.Errorf("host workload %s memory %v outside the paper's 53-213 MB", h.Name, h.MemMB)
		}
	}
}

func TestPolicyNiceMapping(t *testing.T) {
	if PolicyTwoThreshold.nice(10, 20, 60) != 0 || PolicyTwoThreshold.nice(30, 20, 60) != 19 {
		t.Fatal("two-threshold mapping wrong")
	}
	if PolicyAlwaysLowest.nice(0, 20, 60) != 19 {
		t.Fatal("always-lowest mapping wrong")
	}
	if PolicyGradual.nice(10, 20, 60) != 0 || PolicyGradual.nice(70, 20, 60) != 19 {
		t.Fatal("gradual extremes wrong")
	}
	mid := PolicyGradual.nice(40, 20, 60)
	if mid <= 0 || mid >= 19 {
		t.Fatalf("gradual midpoint = %d, want intermediate", mid)
	}
	for _, p := range []GuestPolicy{PolicyTwoThreshold, PolicyGradual, PolicyAlwaysLowest} {
		if p.String() == "" {
			t.Fatal("empty policy name")
		}
	}
	if GuestPolicy(9).String() != "GuestPolicy(9)" {
		t.Fatal("unknown policy name wrong")
	}
}

func TestSimulatePolicyValidation(t *testing.T) {
	m := DefaultMachine()
	hosts := []Proc{{Name: "h", IsolatedCPU: 0.5, MemMB: 10}}
	if _, err := SimulatePolicy(Machine{}, hosts, PolicyTwoThreshold, 20, 60, time.Minute, 1); err == nil {
		t.Fatal("zero tick accepted")
	}
	if _, err := SimulatePolicy(m, hosts, PolicyTwoThreshold, 20, 60, time.Millisecond, 1); err == nil {
		t.Fatal("sub-tick duration accepted")
	}
	bad := []Proc{{Name: "h", IsolatedCPU: 0}}
	if _, err := SimulatePolicy(m, bad, PolicyTwoThreshold, 20, 60, time.Minute, 1); err == nil {
		t.Fatal("invalid proc accepted")
	}
	for _, nice := range []int{-1, 20} {
		rude := []Proc{{Name: "h", IsolatedCPU: 0.5, Nice: nice}}
		if _, err := SimulatePolicy(m, rude, PolicyTwoThreshold, 20, 60, time.Minute, 1); err == nil {
			t.Fatalf("host nice %d accepted", nice)
		}
	}
	if _, err := RunE1b(m, []float64{0.5}, 0, time.Minute, 1); err == nil {
		t.Fatal("zero trials accepted")
	}
}
