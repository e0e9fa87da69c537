// Package workload generates synthetic testbed traces that substitute for
// the paper's proprietary 3-month monitoring data (Section 6.1: a computer
// laboratory at Purdue, ~1800 machine-days, sampling every 6 seconds, with
// 405-453 unavailability occurrences per machine).
//
// The generator simulates, per machine and per day, the workload structure
// the paper describes: students using lab machines for editing, e-mail,
// compiling and testing class projects, producing highly diverse host CPU
// and memory loads with strong diurnal regularity (the property the SMP
// estimator exploits), short transient load spikes (the reason for the
// model's transient-excursion rule), memory-pressure episodes, and owner
// reboots / failures (URR).
//
// Every draw comes from per-(machine, day, subsystem) split random streams,
// so traces are fully reproducible from one seed and stable under parameter
// changes elsewhere.
package workload

import (
	"fmt"
	"time"

	"fgcs/internal/rng"
	"fgcs/internal/trace"
)

// Profile selects the modeled environment.
type Profile int

const (
	// ProfileLab is the paper's testbed: a general-purpose student
	// computer laboratory (diverse interactive use around the clock,
	// evening project work, occasional reboots).
	ProfileLab Profile = iota
	// ProfileEnterprise models the office-desktop environment of the
	// paper's future work (Section 8): a single assigned user, strict
	// 9-to-5 presence with a lunch dip, rare compute bursts, and machines
	// powered off outside working hours (long, highly regular URR).
	ProfileEnterprise
)

// String names the profile.
func (p Profile) String() string {
	if p == ProfileEnterprise {
		return "enterprise"
	}
	return "lab"
}

// Params configures trace generation.
type Params struct {
	// Profile selects the modeled environment (default: ProfileLab).
	Profile Profile
	// Machines is the number of lab machines to simulate.
	Machines int
	// Days is the number of consecutive calendar days.
	Days int
	// Start is the first day (midnight). The paper's trace starts
	// 2005-08-22, a Monday.
	Start time.Time
	// Period is the sampling period (paper: 6 s).
	Period time.Duration
	// Seed makes the whole dataset reproducible.
	Seed uint64
	// TotalMemMB is the machines' physical memory.
	TotalMemMB float64
	// ActivityScale multiplies user activity levels; 1.0 is calibrated to
	// the paper's unavailability band.
	ActivityScale float64
	// RebootProb is the probability that a departing user reboots the
	// machine (an URR occurrence).
	RebootProb float64
	// DailyFailureProb is the probability of a spontaneous
	// hardware/software failure per machine-day (also URR).
	DailyFailureProb float64
}

// DefaultParams returns the calibrated testbed configuration: 90 days on 20
// machines reproduces the scale of the paper's trace (1800 machine-days).
func DefaultParams() Params {
	return Params{
		Machines:         20,
		Days:             90,
		Start:            time.Date(2005, 8, 22, 0, 0, 0, 0, time.UTC),
		Period:           trace.DefaultPeriod,
		Seed:             1,
		TotalMemMB:       512,
		ActivityScale:    1.0,
		RebootProb:       0.07,
		DailyFailureProb: 0.08,
	}
}

// Validate checks parameter sanity.
func (p Params) Validate() error {
	if p.Machines <= 0 || p.Days <= 0 {
		return fmt.Errorf("workload: need at least one machine and one day")
	}
	if p.Period <= 0 {
		return fmt.Errorf("workload: non-positive period")
	}
	if p.TotalMemMB <= 0 {
		return fmt.Errorf("workload: non-positive memory")
	}
	if p.ActivityScale <= 0 {
		return fmt.Errorf("workload: non-positive activity scale")
	}
	if p.RebootProb < 0 || p.RebootProb > 1 || p.DailyFailureProb < 0 || p.DailyFailureProb > 1 {
		return fmt.Errorf("workload: probabilities must be in [0,1]")
	}
	return nil
}

// activity is one thing a lab user does, with its host resource footprint.
type activity struct {
	name   string
	cpu    float64 // mean host CPU percent while active
	cpuJit float64 // CPU noise amplitude
	memMB  float64 // resident memory on top of the OS baseline
	dwell  float64 // mean dwell time in seconds
	weight float64 // selection weight within a session
}

// The activity mix models the paper's description of lab usage: "checking
// e-mails, editing files, and compiling and testing class projects". The
// compile/test/bigjob activities produce the sustained >Th2 runs that become
// S3 events; memhog produces the rare memory-thrashing (S4) episodes.
// The weight field is the casual-session mix; project sessions use
// workingWeights, where the heavy activities dominate. Failures therefore
// cluster inside project sessions — episodes whose elevated background load
// keeps the machine in the S2 band, which is exactly the state structure the
// SMP model is built to learn.
var activities = []activity{
	{name: "think", cpu: 3, cpuJit: 2, memMB: 30, dwell: 60, weight: 26},
	{name: "edit", cpu: 9, cpuJit: 4, memMB: 70, dwell: 120, weight: 24},
	{name: "mail", cpu: 22, cpuJit: 8, memMB: 120, dwell: 90, weight: 14},
	{name: "build", cpu: 74, cpuJit: 10, memMB: 160, dwell: 30, weight: 0.3},
	{name: "test", cpu: 88, cpuJit: 6, memMB: 200, dwell: 150, weight: 0.02},
	{name: "bigjob", cpu: 95, cpuJit: 4, memMB: 240, dwell: 500, weight: 0.005},
	{name: "memhog", cpu: 55, cpuJit: 10, memMB: 430, dwell: 120, weight: 0.004},
}

// workingWeights replaces the per-activity weights during project sessions.
var workingWeights = []float64{14, 20, 9, 7, 1.1, 0.35, 0.2}

// workingProb is the probability that a newly arrived session is a project
// session, by hour of day. Daytime lab visits are mostly quick e-mail and
// editing between classes; compile-and-test project work concentrates in the
// late afternoon and evening. This diurnal concentration is what the paper
// observes implicitly: "unavailability is very rare" around 8:00 am
// (Section 7.3), while the machines still accumulate 405-453 occurrences
// over the trace.
func workingProb(p Profile, t trace.DayType, hour int) float64 {
	if p == ProfileEnterprise {
		// Office work is e-mail, documents and the occasional heavy
		// spreadsheet/report job, evenly thin through the day.
		return 0.05
	}
	switch {
	case hour < 9:
		return 0.04
	case hour < 15:
		return 0.10
	case hour < 18:
		return 0.34
	default:
		if t == trace.Weekend {
			return 0.55
		}
		return 0.70
	}
}

// profile is the per-machine personality: how busy the machine is and when.
type profile struct {
	scale     float64 // activity multiplier (some machines sit in corners)
	peakShift int     // hours the diurnal curve is shifted
	baseCPU   float64 // background OS load percent
	baseMemMB float64 // OS + desktop resident memory
}

// hourly presence probability for a general-purpose student lab (fraction of
// the hour during which some user occupies the machine).
var weekdayCurve = [24]float64{
	0.02, 0.01, 0.01, 0.01, 0.01, 0.02, 0.04, 0.10,
	0.30, 0.55, 0.70, 0.75, 0.70, 0.72, 0.75, 0.72,
	0.65, 0.55, 0.45, 0.42, 0.38, 0.25, 0.12, 0.05,
}

var weekendCurve = [24]float64{
	0.03, 0.02, 0.01, 0.01, 0.01, 0.01, 0.02, 0.04,
	0.08, 0.15, 0.25, 0.32, 0.35, 0.36, 0.38, 0.36,
	0.34, 0.30, 0.28, 0.26, 0.22, 0.15, 0.08, 0.04,
}

// Enterprise desktops: one assigned user, in at ~8:30, lunch dip, gone by
// ~18:00; weekend visits are rare.
var enterpriseWeekdayCurve = [24]float64{
	0, 0, 0, 0, 0, 0, 0, 0.05,
	0.55, 0.85, 0.88, 0.80, 0.45, 0.75, 0.88, 0.85,
	0.80, 0.55, 0.15, 0.04, 0.01, 0, 0, 0,
}

var enterpriseWeekendCurve = [24]float64{
	0, 0, 0, 0, 0, 0, 0, 0,
	0.02, 0.05, 0.08, 0.08, 0.06, 0.06, 0.06, 0.05,
	0.04, 0.02, 0.01, 0, 0, 0, 0, 0,
}

func presence(p Profile, t trace.DayType, hour, shift int) float64 {
	h := (hour - shift + 24) % 24
	if p == ProfileEnterprise {
		if t == trace.Weekend {
			return enterpriseWeekendCurve[h]
		}
		return enterpriseWeekdayCurve[h]
	}
	if t == trace.Weekend {
		return weekendCurve[h]
	}
	return weekdayCurve[h]
}

// Generate produces the full synthetic testbed trace.
func Generate(p Params) (*trace.Dataset, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	root := rng.New(p.Seed)
	ds := &trace.Dataset{}
	for mi := 0; mi < p.Machines; mi++ {
		mStream := root.SplitN("machine", mi)
		prof := profile{
			scale:     mStream.Uniform(0.92, 1.08) * p.ActivityScale,
			peakShift: mStream.UniformInt(-1, 2),
			baseCPU:   mStream.Uniform(1.5, 4.5),
			baseMemMB: mStream.Uniform(100, 150),
		}
		m := trace.NewMachine(fmt.Sprintf("lab-%02d", mi+1), p.Period)
		for di := 0; di < p.Days; di++ {
			date := p.Start.AddDate(0, 0, di)
			day := genDay(date, p, prof, mStream.SplitN("day", di))
			if err := m.AddDay(day); err != nil {
				return nil, err
			}
		}
		ds.Machines = append(ds.Machines, m)
	}
	return ds, nil
}

// dayState carries the per-tick simulation state.
type dayState struct {
	userPresent bool
	working     bool    // project session: heavy activities, elevated base load
	sessionCPU  float64 // session background CPU (editors, browser, runs)
	sessionLeft int     // ticks remaining in the session
	act         int     // current activity index
	actLeft     int     // ticks remaining in the activity
	spikeLeft   int     // ticks remaining in the current transient spike
	spikeCPU    float64
	downLeft    int // ticks remaining in the current outage
}

func genDay(date time.Time, p Params, prof profile, r *rng.Stream) *trace.Day {
	day := trace.NewDay(date, p.Period)
	n := day.Len()
	tickSec := p.Period.Seconds()
	dt := trace.TypeOfDate(date)

	sess := r.Split("session")
	actR := r.Split("activity")
	spike := r.Split("spike")
	fail := r.Split("failure")
	noise := r.Split("noise")

	casualWeights := make([]float64, len(activities))
	for ai, a := range activities {
		casualWeights[ai] = a.weight
	}

	var st dayState

	// Enterprise desktops are powered off outside working hours: the
	// machine contributes a long, regular URR block every day. powerOn/
	// powerOff bound the up-interval in ticks; the defaults keep lab
	// machines up around the clock.
	powerOn, powerOff := 0, n
	if p.Profile == ProfileEnterprise {
		power := r.Split("power")
		if dt == trace.Weekday {
			powerOn = int(power.Uniform(7.6, 8.4) * 3600 / tickSec)
			powerOff = int(power.Uniform(17.4, 19.2) * 3600 / tickSec)
		} else if power.Bool(0.15) {
			// A rare weekend visit.
			powerOn = int(power.Uniform(10, 12) * 3600 / tickSec)
			powerOff = int(power.Uniform(13, 17) * 3600 / tickSec)
		} else {
			powerOn, powerOff = n, n // off all day
		}
	}

	// Spontaneous failure: pick the moment once per day.
	failTick := -1
	if fail.Bool(p.DailyFailureProb) {
		failTick = fail.Intn(n)
	}

	for i := 0; i < n; i++ {
		if i < powerOn || i >= powerOff {
			day.Samples[i] = trace.Sample{Up: false}
			continue
		}
		// ------------------------------------------------ outages ----
		if st.downLeft > 0 {
			st.downLeft--
			day.Samples[i] = trace.Sample{Up: false}
			continue
		}
		if i == failTick {
			// Hardware/software failure: minutes to a couple hours.
			downSec := fail.Pareto(180, 1.2)
			if downSec > 3*3600 {
				downSec = 3 * 3600
			}
			st.downLeft = int(downSec/tickSec) + 1
			st.userPresent = false
			day.Samples[i] = trace.Sample{Up: false}
			continue
		}

		hour := int(time.Duration(i) * p.Period / time.Hour)
		pres := presence(p.Profile, dt, hour, prof.peakShift) * prof.scale

		// ------------------------------------------------ sessions ----
		if !st.userPresent {
			// Expected sessions/hour chosen so the expected occupied
			// fraction tracks the presence curve for ~35 min sessions.
			arrivalPerTick := pres * tickSec / (35 * 60) * 1.5
			if sess.Bool(arrivalPerTick) {
				st.userPresent = true
				durSec := sess.LogNormal(7.4, 0.6) // median ~27 min
				if durSec > 4*3600 {
					durSec = 4 * 3600
				}
				st.sessionLeft = int(durSec/tickSec) + 1
				st.actLeft = 0
				st.working = sess.Bool(workingProb(p.Profile, dt, hour))
				st.sessionCPU = 0
				if st.working {
					// Project work keeps a moderate background load
					// (editor, browser, output windows) that places the
					// machine in the S2 band between compile bursts.
					st.sessionCPU = sess.Uniform(18, 30)
				}
			}
		}

		cpu := prof.baseCPU + noise.Uniform(-1, 1)
		mem := prof.baseMemMB + noise.Uniform(-10, 10)

		if st.userPresent {
			if st.actLeft <= 0 {
				weights := casualWeights
				if st.working {
					weights = workingWeights
				}
				st.act = actR.Categorical(weights)
				a := activities[st.act]
				st.actLeft = int(actR.Exp(a.dwell)/tickSec) + 1
			}
			a := activities[st.act]
			cpu += a.cpu + actR.Uniform(-a.cpuJit, a.cpuJit)
			if a.cpu < 50 {
				// The session background only matters between bursts.
				cpu += st.sessionCPU
			}
			mem += a.memMB
			st.actLeft--
			st.sessionLeft--
			if st.sessionLeft <= 0 {
				st.userPresent = false
				// Owner reboot on departure: an URR occurrence.
				if sess.Bool(p.RebootProb) {
					downSec := sess.Uniform(120, 900)
					st.downLeft = int(downSec / tickSec)
				}
			}
		}

		// ------------------------------------------- transient spikes ----
		// Short bursts (X clients starting, system processes): the cause
		// of the <1 min excursions the availability model must not treat
		// as failures (Section 3.3).
		if st.spikeLeft == 0 {
			perTick := (0.5 + 4*pres) * tickSec / 3600 // spikes/hour
			if spike.Bool(perTick) {
				// 1..9 ticks = 6..54 s: always strictly below the 60 s
				// suspend limit, so an isolated spike is never an S3
				// event (it can still merge with adjacent high load).
				st.spikeLeft = 1 + spike.Intn(9)
				st.spikeCPU = spike.Uniform(40, 90)
			}
		}
		if st.spikeLeft > 0 {
			cpu += st.spikeCPU
			st.spikeLeft--
		}

		if cpu < 0 {
			cpu = 0
		}
		if cpu > 100 {
			cpu = 100
		}
		if mem < 0 {
			mem = 0
		}
		free := p.TotalMemMB - mem
		if free < 0 {
			free = 0
		}
		day.Samples[i] = trace.Sample{CPU: cpu, FreeMemMB: free, Up: true}
	}
	return day
}
