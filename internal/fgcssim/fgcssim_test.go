package fgcssim

import (
	"testing"
	"time"

	"fgcs/internal/avail"
	"fgcs/internal/experiments"
	"fgcs/internal/trace"
)

func testbed(t *testing.T) *trace.Dataset {
	t.Helper()
	ds, err := experiments.HeterogeneousTestbed(21, []float64{1.4, 1.0, 0.4}, 8)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func baseConfig(ds *trace.Dataset) Config {
	return Config{
		Dataset:  ds,
		Cfg:      avail.DefaultConfig(),
		StartDay: 14,
		Seed:     1,
	}
}

func TestRunValidation(t *testing.T) {
	ds := testbed(t)
	if _, err := Run(Config{}, nil); err == nil {
		t.Fatal("empty dataset accepted")
	}
	cfg := baseConfig(ds)
	cfg.StartDay = 0
	if _, err := Run(cfg, nil); err == nil {
		t.Fatal("start day 0 accepted (no history)")
	}
	cfg = baseConfig(ds)
	cfg.Cfg = avail.Config{Th1: 90, Th2: 10, SuspendLimit: time.Minute}
	if _, err := Run(cfg, nil); err == nil {
		t.Fatal("invalid model config accepted")
	}
	cfg = baseConfig(ds)
	bad := []JobSpec{{ID: "x", Arrival: ds.Machines[0].Days[14].Date, Work: 0}}
	if _, err := Run(cfg, bad); err == nil {
		t.Fatal("zero-work job accepted")
	}
	// Mismatched day counts.
	uneven := &trace.Dataset{Machines: []*trace.Machine{ds.Machines[0], trimMachine(t, ds.Machines[1], 10)}}
	cfg = baseConfig(uneven)
	if _, err := Run(cfg, nil); err == nil {
		t.Fatal("uneven machine histories accepted")
	}
}

func trimMachine(t *testing.T, m *trace.Machine, days int) *trace.Machine {
	t.Helper()
	out := trace.NewMachine(m.ID+"-trim", m.Period)
	for _, d := range m.Days[:days] {
		if err := out.AddDay(d); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

func TestPoissonJobs(t *testing.T) {
	ds := testbed(t)
	jobs, err := PoissonJobs(30, ds, 14, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 30 {
		t.Fatalf("jobs = %d", len(jobs))
	}
	for i, j := range jobs {
		if j.Work < 10*time.Minute || j.Work > 6*time.Hour {
			t.Fatalf("job %d work = %v", i, j.Work)
		}
		if j.MemMB < 29 || j.MemMB > 193 {
			t.Fatalf("job %d mem = %v", i, j.MemMB)
		}
		if i > 0 && j.Arrival.Before(jobs[i-1].Arrival) {
			t.Fatal("jobs not sorted by arrival")
		}
		h := j.Arrival.Hour()
		if h < 8 || h >= 17 {
			t.Fatalf("job %d arrives at %v, outside working hours", i, j.Arrival)
		}
	}
	if _, err := PoissonJobs(1, nil, 0, 1); err == nil {
		t.Fatal("nil dataset accepted")
	}
	if _, err := PoissonJobs(1, ds, 99, 1); err == nil {
		t.Fatal("bad start day accepted")
	}
}

func TestRunCompletesJobs(t *testing.T) {
	ds := testbed(t)
	jobs, err := PoissonJobs(12, ds, 14, 3)
	if err != nil {
		t.Fatal(err)
	}
	cfg := baseConfig(ds)
	cfg.Policy = PolicyTRAware
	res, err := Run(cfg, jobs)
	if err != nil {
		t.Fatal(err)
	}
	if res.CompletedJobs == 0 {
		t.Fatal("no jobs completed")
	}
	for _, jr := range res.Jobs {
		if jr.Completed {
			if jr.Response < jr.Work/2 {
				t.Fatalf("job %s response %v below half its work %v", jr.ID, jr.Response, jr.Work)
			}
			if len(jr.Machines) == 0 {
				t.Fatalf("job %s completed nowhere", jr.ID)
			}
		}
	}
	if res.MeanResponse <= 0 || res.P95Response < res.MeanResponse/2 {
		t.Fatalf("response stats = %v / %v", res.MeanResponse, res.P95Response)
	}
}

func TestRunDeterministicPerSeed(t *testing.T) {
	ds := testbed(t)
	jobs, _ := PoissonJobs(8, ds, 14, 3)
	cfg := baseConfig(ds)
	cfg.Policy = PolicyRandom
	a, err := Run(cfg, jobs)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg, jobs)
	if err != nil {
		t.Fatal(err)
	}
	if a.MeanResponse != b.MeanResponse || a.TotalKills != b.TotalKills {
		t.Fatal("same seed produced different results")
	}
}

// TestCheckpointCount pins what X5's wall time charges for: a checkpoint is
// counted each time a job's persisted progress advances, so an interval of at
// least the job's work (restart from scratch) takes none, and a short one
// takes some, summed into the run's total.
func TestCheckpointCount(t *testing.T) {
	ds := testbed(t)
	jobs, err := PoissonJobs(8, ds, 14, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		interval time.Duration
		some     bool
	}{{6 * time.Hour, false}, {10 * time.Minute, true}} {
		cfg := baseConfig(ds)
		cfg.Policy = PolicyRoundRobin
		cfg.CheckpointInterval = c.interval
		res, err := Run(cfg, jobs)
		if err != nil {
			t.Fatal(err)
		}
		sum := 0
		for _, jr := range res.Jobs {
			sum += jr.Checkpoints
		}
		if sum != res.TotalCheckpoints || (res.TotalCheckpoints > 0) != c.some {
			t.Errorf("interval %v: %d checkpoints (jobs sum to %d), want some = %v", c.interval, res.TotalCheckpoints, sum, c.some)
		}
	}
}

func TestPolicyNames(t *testing.T) {
	if PolicyTRAware.String() != "tr-aware" || PolicyRandom.String() != "random" ||
		PolicyRoundRobin.String() != "round-robin" || Policy(7).String() != "Policy(7)" {
		t.Fatal("policy names wrong")
	}
}

// TestResponseTimeBenefit is the paper's motivating claim: proactive
// prediction-driven management improves job response time over oblivious
// placement.
func TestResponseTimeBenefit(t *testing.T) {
	if testing.Short() {
		t.Skip("full-system simulation is slow")
	}
	ds, err := experiments.HeterogeneousTestbed(35, experiments.DefaultTestbedScales, 8)
	if err != nil {
		t.Fatal(err)
	}
	jobs, err := PoissonJobs(40, ds, 21, 5)
	if err != nil {
		t.Fatal(err)
	}
	// Aggregate over seeds: per-run kill counts are small-sample noisy;
	// the stable signal is response time and redone compute.
	agg := map[Policy]*Result{PolicyTRAware: {}, PolicyRandom: {}}
	for seed := uint64(2); seed < 5; seed++ {
		for _, pol := range []Policy{PolicyTRAware, PolicyRandom} {
			cfg := Config{Dataset: ds, Cfg: avail.DefaultConfig(), StartDay: 21, Policy: pol, Seed: seed}
			res, err := Run(cfg, jobs)
			if err != nil {
				t.Fatal(err)
			}
			if res.CompletedJobs < len(jobs)/2 {
				t.Fatalf("%v completed only %d/%d jobs", pol, res.CompletedJobs, len(jobs))
			}
			a := agg[pol]
			a.MeanResponse += res.MeanResponse
			a.TotalKills += res.TotalKills
			a.TotalLost += res.TotalLost
		}
	}
	tr, rnd := agg[PolicyTRAware], agg[PolicyRandom]
	t.Logf("tr-aware: mean %v kills %d lost %v; random: mean %v kills %d lost %v",
		tr.MeanResponse/3, tr.TotalKills, tr.TotalLost, rnd.MeanResponse/3, rnd.TotalKills, rnd.TotalLost)
	if tr.MeanResponse > rnd.MeanResponse*105/100 {
		t.Errorf("tr-aware mean response %v not competitive with random %v", tr.MeanResponse/3, rnd.MeanResponse/3)
	}
	if tr.TotalLost > rnd.TotalLost*130/100 {
		t.Errorf("tr-aware redone compute %v far above random %v", tr.TotalLost, rnd.TotalLost)
	}
}

// TestTRAwareHonoursGuestMemory pins that TR-aware placement asks the
// gateways about the job it submits, memory footprint included. The tight
// machine is idle, but every morning its free memory dips below what a
// 180 MB guest needs, and on the test day it stays there; the roomy machine
// always has room but a load spike on two of its five history weekdays. A
// scheduler blind to the footprint sees no failure on the tight machine,
// prefers it, and loses the job there at zero progress every time it
// re-places it.
func TestTRAwareHonoursGuestMemory(t *testing.T) {
	const days, startDay = 8, 7 // a Monday with five weekdays of history
	monday := time.Date(2005, 8, 22, 0, 0, 0, 0, time.UTC)
	build := func(id string, mark func(di int, s *trace.Sample)) *trace.Machine {
		m := trace.NewMachine(id, trace.DefaultPeriod)
		for di := 0; di < days; di++ {
			d := trace.NewDay(monday.AddDate(0, 0, di), m.Period)
			for i := range d.Samples {
				d.Samples[i] = trace.Sample{CPU: 5, FreeMemMB: 300, Up: true}
				if i >= d.IndexAt(10*time.Hour+5*time.Minute) && i < d.IndexAt(10*time.Hour+10*time.Minute) || di == startDay {
					mark(di, &d.Samples[i])
				}
			}
			if err := m.AddDay(d); err != nil {
				t.Fatal(err)
			}
		}
		return m
	}
	ds := &trace.Dataset{Machines: []*trace.Machine{
		build("tight", func(_ int, s *trace.Sample) { s.FreeMemMB = 150 }),
		build("roomy", func(di int, s *trace.Sample) {
			if di < 2 {
				s.CPU = 95
			}
		}),
	}}
	jobs := []JobSpec{{ID: "big", Arrival: monday.AddDate(0, 0, startDay).Add(10 * time.Hour), Work: 30 * time.Minute, MemMB: 180}}
	res, err := Run(Config{Dataset: ds, Cfg: avail.DefaultConfig(), StartDay: startDay, Policy: PolicyTRAware}, jobs)
	if err != nil {
		t.Fatal(err)
	}
	jr := res.Jobs[0]
	if !jr.Completed || jr.Kills != 0 || len(jr.Machines) != 1 || jr.Machines[0] != "roomy" {
		t.Fatalf("180 MB job: completed=%v kills=%d placements=%d first on %s, want one clean run on roomy",
			jr.Completed, jr.Kills, len(jr.Machines), jr.Machines[0])
	}
}
