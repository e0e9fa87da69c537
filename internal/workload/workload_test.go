package workload

import (
	"math"
	"testing"
	"time"

	"fgcs/internal/avail"
	"fgcs/internal/stats"
	"fgcs/internal/trace"
)

// smallParams keeps unit tests fast: one machine, two weeks.
func smallParams() Params {
	p := DefaultParams()
	p.Machines = 1
	p.Days = 14
	return p
}

func TestValidate(t *testing.T) {
	if err := DefaultParams().Validate(); err != nil {
		t.Fatal(err)
	}
	mutate := []func(*Params){
		func(p *Params) { p.Machines = 0 },
		func(p *Params) { p.Days = 0 },
		func(p *Params) { p.Period = 0 },
		func(p *Params) { p.TotalMemMB = 0 },
		func(p *Params) { p.ActivityScale = 0 },
		func(p *Params) { p.RebootProb = -0.1 },
		func(p *Params) { p.RebootProb = 1.5 },
		func(p *Params) { p.DailyFailureProb = 2 },
	}
	for i, f := range mutate {
		p := DefaultParams()
		f(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("case %d: invalid params accepted", i)
		}
		if _, err := Generate(p); err == nil {
			t.Errorf("case %d: Generate accepted invalid params", i)
		}
	}
}

func TestDeterminism(t *testing.T) {
	p := smallParams()
	a, err := Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	for di := range a.Machines[0].Days {
		da, db := a.Machines[0].Days[di], b.Machines[0].Days[di]
		for i := range da.Samples {
			if da.Samples[i] != db.Samples[i] {
				t.Fatalf("day %d sample %d differs between identical seeds", di, i)
			}
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	p := smallParams()
	a, _ := Generate(p)
	p.Seed = 2
	b, _ := Generate(p)
	same := 0
	da, db := a.Machines[0].Days[0], b.Machines[0].Days[0]
	for i := range da.Samples {
		if da.Samples[i] == db.Samples[i] {
			same++
		}
	}
	if same == len(da.Samples) {
		t.Fatal("different seeds produced identical traces")
	}
}

func TestSampleValidity(t *testing.T) {
	p := smallParams()
	ds, err := Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range ds.Machines[0].Days {
		if d.Len() != int(24*time.Hour/p.Period) {
			t.Fatalf("day has %d samples", d.Len())
		}
		for i, s := range d.Samples {
			if s.CPU < 0 || s.CPU > 100 {
				t.Fatalf("sample %d CPU = %v", i, s.CPU)
			}
			if s.FreeMemMB < 0 || s.FreeMemMB > p.TotalMemMB {
				t.Fatalf("sample %d free mem = %v", i, s.FreeMemMB)
			}
			if !s.Up && (s.CPU != 0 || s.FreeMemMB != 0) {
				t.Fatalf("down sample %d carries load data", i)
			}
		}
	}
}

func TestDiurnalShape(t *testing.T) {
	p := smallParams()
	p.Days = 28
	ds, err := Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	m := ds.Machines[0]
	var busy, idle []float64
	for _, d := range m.DaysOfType(trace.Weekday) {
		for _, s := range d.Window(10*time.Hour, 6*time.Hour) {
			if s.Up {
				busy = append(busy, s.CPU)
			}
		}
		for _, s := range d.Window(2*time.Hour, 3*time.Hour) {
			if s.Up {
				idle = append(idle, s.CPU)
			}
		}
	}
	mb, mi := stats.Mean(busy), stats.Mean(idle)
	if mb < 2*mi {
		t.Fatalf("daytime load %v not clearly above overnight load %v", mb, mi)
	}
}

func TestWeekendLighterThanWeekday(t *testing.T) {
	p := smallParams()
	p.Days = 28
	ds, _ := Generate(p)
	m := ds.Machines[0]
	dayLoad := func(days []*trace.Day) float64 {
		var xs []float64
		for _, d := range days {
			for _, s := range d.Window(9*time.Hour, 8*time.Hour) {
				if s.Up {
					xs = append(xs, s.CPU)
				}
			}
		}
		return stats.Mean(xs)
	}
	wd := dayLoad(m.DaysOfType(trace.Weekday))
	we := dayLoad(m.DaysOfType(trace.Weekend))
	if we >= wd {
		t.Fatalf("weekend load %v not below weekday load %v", we, wd)
	}
}

// TestTestbedCalibration is the §6.1 experiment: per-machine unavailability
// counts over 90 days must land near the paper's 405-453 band.
func TestTestbedCalibration(t *testing.T) {
	if testing.Short() {
		t.Skip("calibration needs the full 90-day trace")
	}
	p := DefaultParams()
	p.Machines = 4
	ds, err := Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	cfg := avail.DefaultConfig()
	var counts []float64
	for _, m := range ds.Machines {
		total := 0
		for _, d := range m.Days {
			total += avail.CountEvents(d, cfg)
		}
		counts = append(counts, float64(total))
		if total < 350 || total > 520 {
			t.Errorf("%s: %d events, outside the calibrated band [350, 520]", m.ID, total)
		}
	}
	mean := stats.Mean(counts)
	if mean < 395 || mean > 470 {
		t.Errorf("mean events %v not centered on the paper's 405-453 band", mean)
	}
}

func TestDayToDaySimilarity(t *testing.T) {
	// The SMP estimator assumes the hourly load profile repeats across
	// weekdays: the correlation between one weekday's hourly means and
	// the machine's average weekday profile must be clearly positive.
	p := smallParams()
	p.Days = 28
	ds, _ := Generate(p)
	m := ds.Machines[0]
	weekdays := m.DaysOfType(trace.Weekday)
	hourly := func(d *trace.Day) []float64 {
		out := make([]float64, 24)
		for h := 0; h < 24; h++ {
			var xs []float64
			for _, s := range d.Window(time.Duration(h)*time.Hour, time.Hour) {
				if s.Up {
					xs = append(xs, s.CPU)
				}
			}
			out[h] = stats.Mean(xs)
		}
		return out
	}
	avg := make([]float64, 24)
	profs := make([][]float64, len(weekdays))
	for i, d := range weekdays {
		profs[i] = hourly(d)
		for h, v := range profs[i] {
			avg[h] += v / float64(len(weekdays))
		}
	}
	// Mean Pearson correlation of each day against the average profile.
	var corrs []float64
	for _, prof := range profs {
		corrs = append(corrs, pearson(prof, avg))
	}
	if mc := stats.Mean(corrs); mc < 0.5 {
		t.Fatalf("mean day-vs-profile correlation %v too low for SMP history pooling", mc)
	}
}

func pearson(a, b []float64) float64 {
	ma, mb := stats.Mean(a), stats.Mean(b)
	var num, da, db float64
	for i := range a {
		num += (a[i] - ma) * (b[i] - mb)
		da += (a[i] - ma) * (a[i] - ma)
		db += (b[i] - mb) * (b[i] - mb)
	}
	if da == 0 || db == 0 {
		return 0
	}
	return num / math.Sqrt(da*db)
}

func TestTransientSpikesExist(t *testing.T) {
	// The generator must produce sub-minute excursions above Th2 — the
	// workload feature that motivates the model's transient rule.
	p := smallParams()
	ds, _ := Generate(p)
	cfg := avail.DefaultConfig()
	limit := 10 // 60 s at 6 s sampling
	transients := 0
	for _, d := range ds.Machines[0].Days {
		run := 0
		for _, s := range d.Samples {
			if s.Up && s.CPU > cfg.Th2 {
				run++
			} else {
				if run > 0 && run < limit {
					transients++
				}
				run = 0
			}
		}
	}
	if transients < 10 {
		t.Fatalf("only %d transient excursions in two weeks; generator not exercising the transient rule", transients)
	}
}

func TestURROccurs(t *testing.T) {
	p := smallParams()
	p.Days = 30
	ds, _ := Generate(p)
	down := 0
	for _, d := range ds.Machines[0].Days {
		for _, s := range d.Samples {
			if !s.Up {
				down++
			}
		}
	}
	if down == 0 {
		t.Fatal("no URR downtime generated in a month")
	}
}

func TestMachineDaysScale(t *testing.T) {
	p := DefaultParams()
	if p.Machines*p.Days != 1800 {
		t.Fatalf("default scale = %d machine-days, want 1800 (the paper's trace)", p.Machines*p.Days)
	}
}

func TestEnterpriseProfileShape(t *testing.T) {
	p := smallParams()
	p.Profile = ProfileEnterprise
	p.Days = 14
	ds, err := Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	m := ds.Machines[0]
	for _, d := range m.DaysOfType(trace.Weekday) {
		// Overnight: powered off (URR).
		for _, s := range d.Window(0, 6*time.Hour) {
			if s.Up {
				t.Fatal("enterprise desktop up before 06:00")
			}
		}
		// Mid-morning: powered on (reboots and failures may still dent
		// the hour, but most of it must be up).
		up := 0
		win := d.Window(10*time.Hour, time.Hour)
		for _, s := range win {
			if s.Up {
				up++
			}
		}
		if up < len(win)*3/4 {
			t.Fatalf("enterprise desktop down mid-morning: %d/%d up", up, len(win))
		}
	}
	// Weekends: mostly off.
	downDays := 0
	weekends := m.DaysOfType(trace.Weekend)
	for _, d := range weekends {
		up := 0
		for _, s := range d.Samples {
			if s.Up {
				up++
			}
		}
		if up == 0 {
			downDays++
		}
	}
	if downDays == 0 {
		t.Fatal("no fully-off weekend days on an enterprise desktop")
	}
	if ProfileEnterprise.String() != "enterprise" || ProfileLab.String() != "lab" {
		t.Fatal("profile names wrong")
	}
}

func TestEnterpriseLighterFailures(t *testing.T) {
	// During working hours the enterprise machine should see fewer
	// sustained-CPU failures than a lab machine: office work is light.
	mk := func(profile Profile) int {
		p := smallParams()
		p.Profile = profile
		p.Days = 20
		ds, err := Generate(p)
		if err != nil {
			t.Fatal(err)
		}
		cfg := avail.DefaultConfig()
		s3 := 0
		for _, d := range ds.Machines[0].Days {
			for _, e := range avail.Events(d, cfg) {
				if e.State == avail.S3 {
					s3++
				}
			}
		}
		return s3
	}
	lab, ent := mk(ProfileLab), mk(ProfileEnterprise)
	if ent >= lab {
		t.Fatalf("enterprise S3 events (%d) not below lab (%d)", ent, lab)
	}
}
