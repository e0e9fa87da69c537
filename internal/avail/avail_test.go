package avail

import (
	"math"
	"slices"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"fgcs/internal/rng"
	"fgcs/internal/trace"
)

var monday = time.Date(2005, 8, 22, 0, 0, 0, 0, time.UTC)

const period = trace.DefaultPeriod // 6 s

// mk builds a sample series from (cpu, mem, up) triples.
func mk(cpu []float64, memMB float64, up bool) []trace.Sample {
	out := make([]trace.Sample, len(cpu))
	for i, c := range cpu {
		out[i] = trace.Sample{CPU: c, FreeMemMB: memMB, Up: up}
	}
	return out
}

func rep(v float64, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = v
	}
	return out
}

func TestStateStringAndPredicates(t *testing.T) {
	cases := []struct {
		s    State
		name string
		fail bool
	}{
		{S1, "S1", false}, {S2, "S2", false}, {S3, "S3", true}, {S4, "S4", true}, {S5, "S5", true},
	}
	for _, c := range cases {
		if c.s.String() != c.name {
			t.Errorf("String(%d) = %q", c.s, c.s.String())
		}
		if c.s.Failure() != c.fail {
			t.Errorf("%v.Failure() = %v", c.s, c.s.Failure())
		}
		if c.s.Recoverable() == c.fail {
			t.Errorf("%v.Recoverable() = %v", c.s, c.s.Recoverable())
		}
	}
	if State(0).String() != "State(0)" {
		t.Error("unknown state string wrong")
	}
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Config{
		{Th1: 60, Th2: 20, SuspendLimit: time.Minute},
		{Th1: -5, Th2: 50, SuspendLimit: time.Minute},
		{Th1: 20, Th2: 120, SuspendLimit: time.Minute},
		{Th1: 20, Th2: 60, SuspendLimit: 0},
		{Th1: 20, Th2: 60, SuspendLimit: time.Minute, GuestMemMB: -1},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
}

func TestClassifyBasicLevels(t *testing.T) {
	cfg := DefaultConfig()
	samples := []trace.Sample{
		{CPU: 5, FreeMemMB: 300, Up: true},   // S1
		{CPU: 20, FreeMemMB: 300, Up: true},  // S2 (Th1 inclusive)
		{CPU: 60, FreeMemMB: 300, Up: true},  // S2 (Th2 inclusive)
		{CPU: 45, FreeMemMB: 50, Up: true},   // S4: below guest WS of 100 MB
		{CPU: 45, FreeMemMB: 300, Up: false}, // S5
	}
	got := Classify(samples, cfg, period)
	want := []State{S1, S2, S2, S4, S5}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("sample %d = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestClassifyTransientExcursionStaysRecoverable(t *testing.T) {
	cfg := DefaultConfig()
	// 5 samples of low load, 5 samples (30 s < 1 min) above Th2, 5 low.
	cpu := append(append(rep(10, 5), rep(90, 5)...), rep(10, 5)...)
	states := Classify(mk(cpu, 300, true), cfg, period)
	for i, s := range states {
		if s != S1 {
			t.Fatalf("sample %d = %v, want S1 (transient excursion must not fail)", i, s)
		}
	}
}

func TestClassifyTransientInheritsS2(t *testing.T) {
	cfg := DefaultConfig()
	cpu := append(append(rep(40, 5), rep(90, 5)...), rep(40, 5)...)
	states := Classify(mk(cpu, 300, true), cfg, period)
	for i, s := range states {
		if s != S2 {
			t.Fatalf("sample %d = %v, want S2", i, s)
		}
	}
}

func TestClassifySustainedHighIsS3(t *testing.T) {
	cfg := DefaultConfig()
	// 10 samples (60 s = limit) above Th2 → S3 from the start of the run.
	cpu := append(rep(10, 5), rep(90, 10)...)
	states := Classify(mk(cpu, 300, true), cfg, period)
	for i := 0; i < 5; i++ {
		if states[i] != S1 {
			t.Fatalf("sample %d = %v, want S1", i, states[i])
		}
	}
	for i := 5; i < 15; i++ {
		if states[i] != S3 {
			t.Fatalf("sample %d = %v, want S3", i, states[i])
		}
	}
}

func TestClassifyLeadingTransientUsesFollowingState(t *testing.T) {
	cfg := DefaultConfig()
	cpu := append(rep(90, 3), rep(10, 5)...) // transient at window start, then S1
	states := Classify(mk(cpu, 300, true), cfg, period)
	if states[0] != S1 {
		t.Fatalf("leading transient = %v, want S1 (from following state)", states[0])
	}
	// With nothing recoverable around, fall back to S2.
	states = Classify(mk(rep(90, 3), 300, true), cfg, period)
	if states[0] != S2 {
		t.Fatalf("isolated transient = %v, want S2", states[0])
	}
}

func TestClassifyTransientBetweenFailures(t *testing.T) {
	cfg := DefaultConfig()
	// Down, short high excursion, down: neighbors are failures, so the
	// excursion must fall back to S2, not inherit S5.
	samples := mk(rep(90, 3), 300, true)
	down := trace.Sample{CPU: 0, FreeMemMB: 300, Up: false}
	seq := append([]trace.Sample{down}, samples...)
	seq = append(seq, down)
	states := Classify(seq, cfg, period)
	if states[0] != S5 || states[len(states)-1] != S5 {
		t.Fatal("down samples misclassified")
	}
	for i := 1; i < len(states)-1; i++ {
		if states[i] != S2 {
			t.Fatalf("excursion sample %d = %v, want S2", i, states[i])
		}
	}
}

func TestClassifyEmpty(t *testing.T) {
	if got := Classify(nil, DefaultConfig(), period); len(got) != 0 {
		t.Fatal("non-empty result for empty input")
	}
}

func TestSuspendUnitsRoundsUp(t *testing.T) {
	cfg := DefaultConfig() // 1 min
	if u := cfg.SuspendUnits(7 * time.Second); u != 9 {
		t.Fatalf("suspendUnits(7s) = %d, want 9 (ceil 60/7)", u)
	}
	if u := cfg.SuspendUnits(time.Minute); u != 1 {
		t.Fatalf("suspendUnits(1m) = %d, want 1", u)
	}
}

func TestExtractSojournsAbsorbsAtFirstFailure(t *testing.T) {
	cfg := DefaultConfig()
	cpu := append(append(rep(10, 5), rep(40, 3)...), rep(90, 15)...)
	cpu = append(cpu, rep(10, 7)...) // recovery after failure must be ignored
	sojs := ExtractSojourns(mk(cpu, 300, true), cfg, period)
	if len(sojs) != 3 {
		t.Fatalf("sojourns = %v", sojs)
	}
	want := []Sojourn{{S1, 5}, {S2, 3}, {S3, 15}}
	for i := range want {
		if sojs[i] != want[i] {
			t.Fatalf("sojourn %d = %v, want %v", i, sojs[i], want[i])
		}
	}
}

func TestWindowSurvives(t *testing.T) {
	cfg := DefaultConfig()
	if !WindowSurvives(mk(rep(10, 100), 300, true), cfg, period) {
		t.Fatal("idle window should survive")
	}
	cpu := append(rep(10, 5), rep(90, 20)...)
	if WindowSurvives(mk(cpu, 300, true), cfg, period) {
		t.Fatal("sustained overload should fail")
	}
	samples := mk(rep(10, 5), 300, true)
	samples[2].Up = false
	if WindowSurvives(samples, cfg, period) {
		t.Fatal("URR should fail")
	}
}

// trajectories runs one window through a fresh Extractor, the way every
// prediction does.
func trajectories(samples []trace.Sample, cfg Config) [][]Sojourn {
	ex := NewExtractor(cfg, period)
	ex.AddWindow(samples, false)
	return ex.Seqs()
}

func TestInitialState(t *testing.T) {
	ex := NewExtractor(DefaultConfig(), period)
	st, ok := ex.AddWindow(mk(rep(10, 5), 300, true), false)
	if st != S1 || !ok {
		t.Fatalf("initial state = %v %v", st, ok)
	}
	st, ok = ex.AddWindow(mk(rep(40, 5), 300, true), false)
	if st != S2 || !ok {
		t.Fatalf("initial state = %v %v", st, ok)
	}
	st, ok = ex.AddWindow(mk(rep(90, 20), 300, true), false)
	if st != S3 || ok {
		t.Fatalf("initial state = %v %v", st, ok)
	}
	// An empty window has no start a guest could be placed at.
	if _, ok = ex.AddWindow(nil, false); ok {
		t.Fatal("empty window reports a recoverable start")
	}
}

func TestEventsCountsAndMerges(t *testing.T) {
	cfg := DefaultConfig()
	d := trace.NewDay(monday, period)
	for i := range d.Samples {
		d.Samples[i].CPU = 10
		d.Samples[i].FreeMemMB = 300
	}
	// Event 1: sustained CPU overload (S3) at 02:00 for 5 minutes.
	lo := d.IndexAt(2 * time.Hour)
	for i := lo; i < lo+50; i++ {
		d.Samples[i].CPU = 95
	}
	// Event 2: reboot (S5) at 10:00 directly followed by memory pressure
	// (S4) — must merge into ONE unavailability occurrence.
	lo = d.IndexAt(10 * time.Hour)
	for i := lo; i < lo+30; i++ {
		d.Samples[i].Up = false
	}
	for i := lo + 30; i < lo+60; i++ {
		d.Samples[i].FreeMemMB = 10
	}
	events := Events(d, cfg)
	if len(events) != 2 {
		t.Fatalf("events = %d (%v), want 2", len(events), events)
	}
	if events[0].State != S3 {
		t.Fatalf("event 0 state = %v", events[0].State)
	}
	if events[0].Start != 2*time.Hour {
		t.Fatalf("event 0 start = %v", events[0].Start)
	}
	if events[0].End-events[0].Start != 5*time.Minute {
		t.Fatalf("event 0 length = %v", events[0].End-events[0].Start)
	}
	if events[1].State != S5 {
		t.Fatalf("event 1 state = %v (first failure state of the merged run)", events[1].State)
	}
	if CountEvents(d, cfg) != 2 {
		t.Fatal("CountEvents mismatch")
	}
}

func TestEventsTransientNotCounted(t *testing.T) {
	cfg := DefaultConfig()
	d := trace.NewDay(monday, period)
	for i := range d.Samples {
		d.Samples[i].CPU = 10
		d.Samples[i].FreeMemMB = 300
	}
	lo := d.IndexAt(14 * time.Hour)
	for i := lo; i < lo+5; i++ { // 30 s < 1 min: transient
		d.Samples[i].CPU = 99
	}
	if n := CountEvents(d, cfg); n != 0 {
		t.Fatalf("transient excursion counted as %d events", n)
	}
}

// Property: classification conserves length, sojourn units sum to the window
// length up to absorption, and transient excursions never yield S3.
func TestClassifyProperties(t *testing.T) {
	cfg := DefaultConfig()
	err := quick.Check(func(seed uint64) bool {
		r := rng.New(seed)
		n := 1 + r.Intn(400)
		samples := make([]trace.Sample, n)
		for i := range samples {
			samples[i] = trace.Sample{
				CPU:       r.Uniform(0, 100),
				FreeMemMB: r.Uniform(0, 400),
				Up:        r.Bool(0.97),
			}
		}
		states := Classify(samples, cfg, period)
		if len(states) != n {
			return false
		}
		for _, s := range states {
			if s < S1 || s > S5 {
				return false
			}
		}
		sojs := ExtractSojourns(samples, cfg, period)
		total := 0
		for i, s := range sojs {
			if s.Units <= 0 {
				return false
			}
			total += s.Units
			if s.State.Failure() && i != len(sojs)-1 {
				return false // failure must be terminal
			}
			if i > 0 && sojs[i-1].State == s.State {
				return false // consecutive sojourns must differ
			}
		}
		if len(sojs) > 0 && sojs[len(sojs)-1].State.Failure() {
			if total > n {
				return false
			}
		} else if total != n {
			return false
		}
		// Survival consistency.
		failed := len(sojs) > 0 && sojs[len(sojs)-1].State.Failure()
		return WindowSurvives(samples, cfg, period) == !failed
	}, &quick.Config{MaxCount: 200})
	if err != nil {
		t.Fatal(err)
	}
}

// Property: short high-CPU runs never produce S3; runs at or past the limit
// always do.
func TestTransientRuleProperty(t *testing.T) {
	cfg := DefaultConfig()
	limit := cfg.SuspendUnits(period)
	err := quick.Check(func(seed uint64) bool {
		r := rng.New(seed)
		runLen := 1 + r.Intn(2*limit)
		cpu := append(rep(10, 3), rep(95, runLen)...)
		cpu = append(cpu, rep(10, 3)...)
		states := Classify(mk(cpu, 300, true), cfg, period)
		hasS3 := false
		for _, s := range states {
			if s == S3 {
				hasS3 = true
			}
		}
		return hasS3 == (runLen >= limit)
	}, &quick.Config{MaxCount: 100})
	if err != nil {
		t.Fatal(err)
	}
}

func TestExtractTrajectoriesRestartsAfterFailure(t *testing.T) {
	cfg := DefaultConfig()
	// S1(5) -> S3(15) -> S1(4) -> S2(3) -> [end]
	cpu := append(append(append(rep(10, 5), rep(90, 15)...), rep(10, 4)...), rep(40, 3)...)
	trajs := trajectories(mk(cpu, 300, true), cfg)
	if len(trajs) != 2 {
		t.Fatalf("trajectories = %d (%v), want 2", len(trajs), trajs)
	}
	want0 := []Sojourn{{S1, 5}, {S3, 15}}
	for i, w := range want0 {
		if trajs[0][i] != w {
			t.Fatalf("traj 0 sojourn %d = %v, want %v", i, trajs[0][i], w)
		}
	}
	want1 := []Sojourn{{S1, 4}, {S2, 3}}
	for i, w := range want1 {
		if trajs[1][i] != w {
			t.Fatalf("traj 1 sojourn %d = %v, want %v", i, trajs[1][i], w)
		}
	}
}

func TestExtractTrajectoriesMergesConsecutiveFailures(t *testing.T) {
	cfg := DefaultConfig()
	// S1, then S3 directly followed by S5: one absorbing sojourn spanning
	// both failure runs.
	samples := mk(append(rep(10, 5), rep(90, 12)...), 300, true)
	down := mk(rep(0, 7), 300, false)
	samples = append(samples, down...)
	trajs := trajectories(samples, cfg)
	if len(trajs) != 1 {
		t.Fatalf("trajectories = %d, want 1", len(trajs))
	}
	last := trajs[0][len(trajs[0])-1]
	if last.State != S3 || last.Units != 19 {
		t.Fatalf("absorbing sojourn = %v, want S3 spanning 19 units", last)
	}
}

func TestExtractTrajectoriesWindowStartsFailed(t *testing.T) {
	cfg := DefaultConfig()
	// Down at the start, then recoverable: the leading failure has no
	// preceding trajectory and must be dropped.
	samples := mk(rep(0, 6), 300, false)
	samples = append(samples, mk(rep(10, 8), 300, true)...)
	trajs := trajectories(samples, cfg)
	if len(trajs) != 1 {
		t.Fatalf("trajectories = %d, want 1", len(trajs))
	}
	if trajs[0][0].State != S1 || trajs[0][0].Units != 8 {
		t.Fatalf("trajectory = %v", trajs[0])
	}
}

func TestExtractTrajectoriesEmptyAndAllFailed(t *testing.T) {
	cfg := DefaultConfig()
	if trajs := trajectories(nil, cfg); len(trajs) != 0 {
		t.Fatal("empty input produced trajectories")
	}
	if trajs := trajectories(mk(rep(0, 10), 300, false), cfg); len(trajs) != 0 {
		t.Fatal("all-down window produced trajectories")
	}
}

// Property: trajectory units are conserved — the sum over all trajectories
// plus skipped leading/post-failure failure runs equals the window length,
// and within a trajectory only the last sojourn may be a failure.
func TestExtractTrajectoriesProperty(t *testing.T) {
	cfg := DefaultConfig()
	err := quick.Check(func(seed uint64) bool {
		r := rng.New(seed)
		n := 1 + r.Intn(500)
		samples := make([]trace.Sample, n)
		for i := range samples {
			samples[i] = trace.Sample{
				CPU:       r.Uniform(0, 100),
				FreeMemMB: r.Uniform(0, 400),
				Up:        r.Bool(0.9),
			}
		}
		total := 0
		for _, traj := range trajectories(samples, cfg) {
			if len(traj) == 0 {
				return false
			}
			for i, s := range traj {
				if s.Units <= 0 {
					return false
				}
				total += s.Units
				if s.State.Failure() && i != len(traj)-1 {
					return false
				}
				if i > 0 && traj[i-1].State == s.State {
					return false
				}
			}
		}
		return total <= n
	}, &quick.Config{MaxCount: 150})
	if err != nil {
		t.Fatal(err)
	}
}

// refTrajectories is the extraction written so it can be checked by reading:
// one sample at a time, a failure run of any mix of failure states is one
// absorbing sojourn, the first recoverable sample after it starts a new
// trajectory, and a failure run with no trajectory before it is skipped.
func refTrajectories(states []State) (out [][]Sojourn) {
	var cur []Sojourn
	for _, st := range states {
		switch last := len(cur) - 1; {
		case st.Failure() && len(cur) == 0:
		case st.Failure() && cur[last].State.Failure():
			cur[last].Units++
		case !st.Failure() && len(cur) > 0 && cur[last].State.Failure():
			out, cur = append(out, cur), []Sojourn{{st, 1}}
		case len(cur) > 0 && cur[last].State == st:
			cur[last].Units++
		default:
			cur = append(cur, Sojourn{st, 1})
		}
	}
	if len(cur) > 0 {
		out = append(out, cur)
	}
	return out
}

// fuzzSamples decodes one sample per byte: three values of eight idle, two in
// the S2 band, one above Th2, one short of memory, one down.
func fuzzSamples(data []byte) []trace.Sample {
	out := make([]trace.Sample, len(data))
	for i, b := range data {
		s := trace.Sample{CPU: 10, FreeMemMB: 300, Up: true}
		switch b % 8 {
		case 3, 4:
			s.CPU = 40
		case 5:
			s.CPU = 90
		case 6:
			s.FreeMemMB = 10
		case 7:
			s.Up = false
		}
		out[i] = s
	}
	return out
}

// FuzzExtractorMatchesReference holds the extractor every prediction runs on
// against refTrajectories, sojourn for sojourn and initial state for initial
// state: the data is cut into up to four windows that go through one
// extractor twice, in both orders, with a Reset between — so the second pass
// builds on an arena the first one filled.
func FuzzExtractorMatchesReference(f *testing.F) {
	high := func(n int) []byte { return []byte(strings.Repeat("\x05", n)) }
	f.Add([]byte{}, uint8(0))
	f.Add([]byte{0, 0, 3, 3, 7, 7, 6, 0, 4}, uint8(0))                    // S5 then S4: one failure run
	f.Add(append(append([]byte{0, 0}, high(12)...), 0, 7, 0), uint8(0))   // S3, recovery, S5
	f.Add(append(append(high(4), 1, 3), high(10)...), uint8(1))           // transient, then S3 cut by a window edge
	f.Add(append([]byte{7, 6, 7, 0, 1, 4, 6}, high(11)...), uint8(3))     // leading failures, S4 into S3
	f.Add([]byte{7, 7, 7, 6, 6, 6, 7, 7}, uint8(2))                       // nothing but failures
	f.Add(append(append(high(10), 0, 3, 0, 3, 7), high(10)...), uint8(2)) // windows that start failed
	f.Fuzz(func(t *testing.T, data []byte, cuts uint8) {
		cfg := DefaultConfig()
		samples := fuzzSamples(data)
		n := 1 + int(cuts%4)
		windows := make([][]trace.Sample, n)
		for i := range windows {
			windows[i] = samples[i*len(samples)/n : (i+1)*len(samples)/n]
		}
		ex := NewExtractor(cfg, period)
		for pass := 0; pass < 2; pass++ {
			ex.Reset(cfg, period)
			var want [][]Sojourn
			for _, w := range windows {
				states := Classify(w, cfg, period)
				st, ok := ex.AddWindow(w, false)
				if wantOK := len(states) > 0 && states[0].Recoverable(); ok != wantOK || (len(states) > 0 && st != states[0]) {
					t.Fatalf("pass %d: initial state %v %v of a window classified %v", pass, st, ok, states)
				}
				want = append(want, refTrajectories(states)...)
			}
			got := ex.Seqs()
			if len(got) != len(want) {
				t.Fatalf("pass %d: %d trajectories %v, want %d %v", pass, len(got), got, len(want), want)
			}
			for i := range want {
				if !slices.Equal(got[i], want[i]) {
					t.Fatalf("pass %d: trajectory %d = %v, want %v", pass, i, got[i], want[i])
				}
				if cap(got[i]) != len(got[i]) {
					t.Fatalf("pass %d: trajectory %d can be appended into its neighbour", pass, i)
				}
			}
			slices.Reverse(windows)
		}
	})
}

func TestSuspendUnitsPanicsOnBadPeriod(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	DefaultConfig().SuspendUnits(0)
}

func TestStateOccupancy(t *testing.T) {
	cfg := DefaultConfig()
	samples := append(mk(rep(10, 6), 300, true), mk(rep(40, 3), 300, true)...)
	samples = append(samples, trace.Sample{CPU: 10, FreeMemMB: 300, Up: false})
	o := StateOccupancy(samples, cfg, period)
	near := func(a, b float64) bool { return a > b-1e-9 && a < b+1e-9 }
	if !near(o.Of(S1), 0.6) || !near(o.Of(S2), 0.3) || !near(o.Of(S5), 0.1) {
		t.Fatalf("occupancy = %+v", o)
	}
	if got := o.Recoverable(); !near(got, 0.9) {
		t.Fatalf("Recoverable = %v", got)
	}
	if o.Of(State(0)) != 0 || o.Of(State(9)) != 0 {
		t.Fatal("out-of-range state must be 0")
	}
	var zero Occupancy
	if StateOccupancy(nil, cfg, period) != zero {
		t.Fatal("empty input occupancy not zero")
	}
}

func TestStateOccupancySumsToOne(t *testing.T) {
	cfg := DefaultConfig()
	r := rng.New(9)
	samples := make([]trace.Sample, 500)
	for i := range samples {
		samples[i] = trace.Sample{CPU: r.Uniform(0, 100), FreeMemMB: r.Uniform(0, 400), Up: r.Bool(0.9)}
	}
	o := StateOccupancy(samples, cfg, period)
	sum := 0.0
	for _, f := range o {
		sum += f
	}
	if sum < 0.999 || sum > 1.001 {
		t.Fatalf("occupancy sum = %v", sum)
	}
}

func TestHourlyOccupancy(t *testing.T) {
	cfg := DefaultConfig()
	d := trace.NewDay(monday, period)
	for i := range d.Samples {
		d.Samples[i] = trace.Sample{CPU: 5, FreeMemMB: 300, Up: true}
	}
	// Hour 14 is fully loaded (S2 band).
	lo, hi := d.IndexAt(14*time.Hour), d.IndexAt(15*time.Hour)
	for i := lo; i < hi; i++ {
		d.Samples[i].CPU = 40
	}
	hours := HourlyOccupancy([]*trace.Day{d, d.Clone()}, cfg)
	if hours[14].Of(S2) != 1 {
		t.Fatalf("hour 14 = %+v", hours[14])
	}
	if hours[3].Of(S1) != 1 {
		t.Fatalf("hour 3 = %+v", hours[3])
	}
}

// TestHourlyOccupancyStraddle: a run above Th2 of 12 samples — past the
// 10-sample suspend limit at 6 s — split 6 + 6 across 09:00 is S3 in both
// hours, as the day classifies it, not a transient excursion in each.
func TestHourlyOccupancyStraddle(t *testing.T) {
	cfg := DefaultConfig()
	d := trace.NewDay(monday, period)
	for i := range d.Samples {
		d.Samples[i] = trace.Sample{CPU: 5, FreeMemMB: 300, Up: true}
	}
	nine := d.IndexAt(9 * time.Hour)
	for i := nine - 6; i < nine+6; i++ {
		d.Samples[i].CPU = 95
	}
	hours := HourlyOccupancy([]*trace.Day{d}, cfg)
	perHour := float64(d.IndexAt(time.Hour))
	for _, h := range []int{8, 9} {
		if got, want := hours[h].Of(S3), 6/perHour; got != want {
			t.Fatalf("hour %d S3 share = %v, want %v (%+v)", h, got, want, hours[h])
		}
	}
}

// Property: the hours partition the day, so the sample-weighted mean of the 24
// hourly occupancies is the occupancy of the day classified whole.
func TestHourlyOccupancyMatchesWholeDay(t *testing.T) {
	cfg := DefaultConfig()
	err := quick.Check(func(seed uint64) bool {
		r := rng.New(seed)
		// 7 s does not divide the hour: the hours hold unequal sample counts.
		d := trace.NewDay(monday, []time.Duration{period, 7 * time.Second, 5 * time.Minute}[r.Intn(3)])
		for i := range d.Samples {
			d.Samples[i] = trace.Sample{CPU: r.Uniform(0, 100), FreeMemMB: r.Uniform(0, 400), Up: r.Bool(0.97)}
			if i > 0 && r.Bool(0.9) {
				d.Samples[i] = d.Samples[i-1] // runs long enough to reach S3
			}
		}
		hours := HourlyOccupancy([]*trace.Day{d}, cfg)
		var mean Occupancy
		for h, o := range hours {
			n := d.IndexAt(time.Duration(h+1)*time.Hour) - d.IndexAt(time.Duration(h)*time.Hour)
			for i := range o {
				mean[i] += o[i] * float64(n) / float64(d.Len())
			}
		}
		whole := StateOccupancy(d.Samples, cfg, d.Period)
		for i := range whole {
			if math.Abs(mean[i]-whole[i]) > 1e-12 {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 40})
	if err != nil {
		t.Fatal(err)
	}
}
