package predict

import (
	"fmt"
	"math"
	"sort"
	"testing"
	"time"

	"fgcs/internal/avail"
	"fgcs/internal/rng"
	"fgcs/internal/timeseries"
	"fgcs/internal/trace"
)

var monday = time.Date(2005, 8, 22, 0, 0, 0, 0, time.UTC)

const period = trace.DefaultPeriod

// idleDay returns a fully idle, fully up day.
func idleDay(offsetDays int) *trace.Day {
	d := trace.NewDay(monday.AddDate(0, 0, offsetDays), period)
	for i := range d.Samples {
		d.Samples[i].CPU = 5
		d.Samples[i].FreeMemMB = 400
	}
	return d
}

// failAt overlays an unavailability occurrence (URR) starting at the offset.
func failAt(d *trace.Day, start, hold time.Duration) *trace.Day {
	lo, hi := d.IndexAt(start), d.IndexAt(start+hold)
	for i := lo; i < hi && i < len(d.Samples); i++ {
		d.Samples[i].Up = false
	}
	return d
}

// busyAt overlays sustained high CPU load.
func busyAt(d *trace.Day, start, hold time.Duration, cpu float64) *trace.Day {
	lo, hi := d.IndexAt(start), d.IndexAt(start+hold)
	for i := lo; i < hi && i < len(d.Samples); i++ {
		d.Samples[i].CPU = cpu
	}
	return d
}

func defaultSMP() SMP { return SMP{Cfg: avail.DefaultConfig()} }

func TestWindowValidate(t *testing.T) {
	good := []Window{
		{Start: 0, Length: time.Hour},
		{Start: 8 * time.Hour, Length: 10 * time.Hour},
		{Start: 23 * time.Hour, Length: time.Hour},
	}
	for _, w := range good {
		if err := w.Validate(); err != nil {
			t.Errorf("%v rejected: %v", w, err)
		}
	}
	bad := []Window{
		{Start: -time.Hour, Length: time.Hour},
		{Start: 25 * time.Hour, Length: time.Hour},
		{Start: 8 * time.Hour, Length: 0},
		{Start: 20 * time.Hour, Length: 5 * time.Hour},
	}
	for _, w := range bad {
		if err := w.Validate(); err == nil {
			t.Errorf("%v accepted", w)
		}
	}
}

func TestWindowStringAndUnits(t *testing.T) {
	w := Window{Start: 8*time.Hour + 30*time.Minute, Length: 2 * time.Hour}
	if w.String() != "08:30+2h0m0s" {
		t.Fatalf("String = %q", w.String())
	}
	if w.Units(6*time.Second) != 1200 {
		t.Fatalf("Units = %d", w.Units(6*time.Second))
	}
}

// TestWindowAtMatchesTheTwoClipsItReplaced checks WindowAt against the
// arithmetic StateManager.QueryTR and core.TRAt each carried before it
// existed (the two were the same formula), at the edges of the day.
func TestWindowAtMatchesTheTwoClipsItReplaced(t *testing.T) {
	const period = 6 * time.Second
	reference := func(now time.Time, length time.Duration) (time.Time, Window) {
		now = now.UTC()
		midnight := time.Date(now.Year(), now.Month(), now.Day(), 0, 0, 0, 0, time.UTC)
		start := now.Sub(midnight).Truncate(period)
		length = length.Truncate(period)
		if length < period {
			length = period
		}
		if start+length > 24*time.Hour {
			length = 24*time.Hour - start
		}
		return midnight, Window{Start: start, Length: length}
	}
	day := time.Date(2005, 9, 2, 0, 0, 0, 0, time.UTC)
	for _, tc := range []struct {
		at     time.Duration
		length time.Duration
		want   Window
	}{
		{0, 2 * time.Hour, Window{0, 2 * time.Hour}},
		{0, 25 * time.Hour, Window{0, 24 * time.Hour}},
		{23*time.Hour + 54*time.Minute, time.Hour, Window{23*time.Hour + 54*time.Minute, 6 * time.Minute}},
		{23*time.Hour + 59*time.Minute + 59*time.Second, time.Hour, Window{24*time.Hour - period, period}},
		{10 * time.Hour, 3 * time.Second, Window{10 * time.Hour, period}},
		{10*time.Hour + 5*time.Second, 20 * time.Second, Window{10 * time.Hour, 18 * time.Second}},
		{22 * time.Hour, 25 * time.Hour, Window{22 * time.Hour, 2 * time.Hour}},
	} {
		for _, loc := range []*time.Location{time.UTC, time.FixedZone("west", -5*3600)} {
			now := day.Add(tc.at).In(loc)
			midnight, w := WindowAt(now, tc.length, period)
			refMidnight, refW := reference(now, tc.length)
			if !midnight.Equal(day) || w != tc.want || !midnight.Equal(refMidnight) || w != refW {
				t.Errorf("WindowAt(%v, %v) = %v, %v; want %v, %v (reference %v, %v)",
					now, tc.length, midnight, w, day, tc.want, refMidnight, refW)
			}
			if err := w.Validate(); err != nil {
				t.Errorf("WindowAt(%v, %v) = %v: %v", now, tc.length, w, err)
			}
		}
	}
}

func TestSMPPredictDeterministicFailureRate(t *testing.T) {
	// 10 history days; on 4 of them the machine fails at 9:00 within the
	// 8:00-10:00 window. Predicted TR for that window should be ~0.6.
	var days []*trace.Day
	for i := 0; i < 10; i++ {
		d := idleDay(i)
		if i%10 < 4 {
			failAt(d, 9*time.Hour, 30*time.Minute)
		}
		days = append(days, d)
	}
	w := Window{Start: 8 * time.Hour, Length: 2 * time.Hour}
	pred, err := defaultSMP().Predict(days, w)
	if err != nil {
		t.Fatal(err)
	}
	if pred.HistoryWindows != 10 {
		t.Fatalf("HistoryWindows = %d", pred.HistoryWindows)
	}
	if math.Abs(pred.TR-0.6) > 1e-9 {
		t.Fatalf("TR = %v, want 0.6", pred.TR)
	}
	// All history windows start idle.
	if pred.InitProb[0] != 1 || pred.InitProb[1] != 0 {
		t.Fatalf("InitProb = %v", pred.InitProb)
	}
}

func TestSMPPredictAllClear(t *testing.T) {
	days := []*trace.Day{idleDay(0), idleDay(1), idleDay(2)}
	pred, err := defaultSMP().Predict(days, Window{Start: 8 * time.Hour, Length: 10 * time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	if pred.TR != 1 {
		t.Fatalf("TR = %v, want 1 with no observed failures", pred.TR)
	}
}

func TestSMPPredictTRMonotoneInLength(t *testing.T) {
	var days []*trace.Day
	for i := 0; i < 12; i++ {
		d := idleDay(i)
		if i%3 == 0 {
			busyAt(d, time.Duration(9+i%4)*time.Hour, 10*time.Minute, 95)
		}
		days = append(days, d)
	}
	// Each window length estimates its own kernel from its own data, so
	// strict monotonicity is not guaranteed across lengths; it must hold
	// up to estimation slack, and the extremes must be ordered.
	prev := 1.1
	var first, last float64
	for i, hrs := range []int{1, 2, 3, 5, 10} {
		w := Window{Start: 8 * time.Hour, Length: time.Duration(hrs) * time.Hour}
		pred, err := defaultSMP().Predict(days, w)
		if err != nil {
			t.Fatal(err)
		}
		if pred.TR > prev+0.15 {
			t.Fatalf("TR jumped with window length at %dh: %v > %v", hrs, pred.TR, prev)
		}
		prev = pred.TR
		if i == 0 {
			first = pred.TR
		}
		last = pred.TR
	}
	if last > first {
		t.Fatalf("TR(10h)=%v above TR(1h)=%v", last, first)
	}
}

func TestSMPHistoryDaysLimit(t *testing.T) {
	// Old days all fail; the 5 most recent are clean. With HistoryDays=5
	// the prediction must ignore the failures.
	var days []*trace.Day
	for i := 0; i < 10; i++ {
		d := idleDay(i)
		if i < 5 {
			failAt(d, 9*time.Hour, time.Hour)
		}
		days = append(days, d)
	}
	w := Window{Start: 8 * time.Hour, Length: 3 * time.Hour}
	p := defaultSMP()
	p.HistoryDays = 5
	pred, err := p.Predict(days, w)
	if err != nil {
		t.Fatal(err)
	}
	if pred.TR != 1 {
		t.Fatalf("TR = %v, want 1 (old failures must be outside the history horizon)", pred.TR)
	}
	if pred.HistoryWindows != 5 {
		t.Fatalf("HistoryWindows = %d, want 5", pred.HistoryWindows)
	}
	// Without the limit the failures count.
	pred, err = defaultSMP().Predict(days, w)
	if err != nil {
		t.Fatal(err)
	}
	if pred.TR >= 1 {
		t.Fatalf("unlimited history TR = %v, want < 1", pred.TR)
	}
}

func TestSMPPredictFrom(t *testing.T) {
	// Failures only ever happen out of S2 (heavy load precedes them).
	var days []*trace.Day
	for i := 0; i < 8; i++ {
		d := idleDay(i)
		busyAt(d, 9*time.Hour, 30*time.Minute, 40) // S2 period
		if i%2 == 0 {
			busyAt(d, 9*time.Hour+30*time.Minute, 10*time.Minute, 95) // S3
		}
		days = append(days, d)
	}
	w := Window{Start: 9 * time.Hour, Length: 2 * time.Hour}
	pred, err := defaultSMP().Predict(days, w)
	if err != nil {
		t.Fatal(err)
	}
	tr2, err := pred.from(avail.S2)
	if err != nil {
		t.Fatal(err)
	}
	if tr2 >= 1 || tr2 < 0 {
		t.Fatalf("TR from S2 = %v", tr2)
	}
	if _, err := pred.from(avail.S5); err == nil {
		t.Fatal("failure initial state accepted")
	}
}

func TestSMPPredictErrors(t *testing.T) {
	p := defaultSMP()
	if _, err := p.Predict(nil, Window{Start: 0, Length: time.Hour}); err == nil {
		t.Fatal("empty history accepted")
	}
	days := []*trace.Day{idleDay(0)}
	if _, err := p.Predict(days, Window{Start: -1, Length: time.Hour}); err == nil {
		t.Fatal("invalid window accepted")
	}
	if _, err := p.Predict(days, Window{Start: 0, Length: time.Second}); err == nil {
		t.Fatal("sub-period window accepted")
	}
	bad := p
	bad.Cfg.Th1 = 90
	bad.Cfg.Th2 = 10
	if _, err := bad.Predict(days, Window{Start: 0, Length: time.Hour}); err == nil {
		t.Fatal("invalid config accepted")
	}
}

func TestTimeSeriesPredictDayIdle(t *testing.T) {
	ts := TimeSeries{Cfg: avail.DefaultConfig(), Fitter: timeseries.Last{}}
	ok, err := ts.predictDay(idleDay(0), Window{Start: 8 * time.Hour, Length: 2 * time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("idle day predicted to fail")
	}
}

func TestTimeSeriesPredictDayHeavyLoadPersists(t *testing.T) {
	// Heavy load through the previous window: LAST predicts the heavy
	// load persists → predicted failure.
	d := idleDay(0)
	busyAt(d, 6*time.Hour, 2*time.Hour, 90)
	ts := TimeSeries{Cfg: avail.DefaultConfig(), Fitter: timeseries.Last{}}
	ok, err := ts.predictDay(d, Window{Start: 8 * time.Hour, Length: 2 * time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("LAST did not extrapolate the heavy load")
	}
}

func TestTimeSeriesPredictDayDownAtOrigin(t *testing.T) {
	d := idleDay(0)
	failAt(d, 7*time.Hour, time.Hour+time.Minute)
	ts := TimeSeries{Cfg: avail.DefaultConfig(), Fitter: timeseries.Last{}}
	ok, err := ts.predictDay(d, Window{Start: 8 * time.Hour, Length: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("machine down at origin predicted to survive")
	}
}

func TestTimeSeriesPredictDayWindowAtMidnight(t *testing.T) {
	// No preceding samples: must not error, falls back to idle forecast.
	ts := TimeSeries{Cfg: avail.DefaultConfig(), Fitter: timeseries.AR{P: 8}}
	ok, err := ts.predictDay(idleDay(0), Window{Start: 0, Length: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("midnight window on an idle day predicted to fail")
	}
}

func TestTimeSeriesPredictAggregates(t *testing.T) {
	days := []*trace.Day{idleDay(0), idleDay(1)}
	busyAt(days[1], 6*time.Hour, 2*time.Hour, 90)
	ts := TimeSeries{Cfg: avail.DefaultConfig(), Fitter: timeseries.Last{}}
	tr, err := ts.predictDays(days, Window{Start: 8 * time.Hour, Length: 2 * time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	if tr != 0.5 {
		t.Fatalf("aggregate TR = %v, want 0.5", tr)
	}
	if _, err := ts.predictDays(nil, Window{Start: 0, Length: time.Hour}); err == nil {
		t.Fatal("empty day set accepted")
	}
}

func TestTimeSeriesErrors(t *testing.T) {
	ts := TimeSeries{Cfg: avail.DefaultConfig()}
	if _, err := ts.predictDay(idleDay(0), Window{Start: 0, Length: time.Hour}); err == nil {
		t.Fatal("nil fitter accepted")
	}
	ts.Fitter = timeseries.Last{}
	if _, err := ts.predictDay(idleDay(0), Window{Start: -1, Length: time.Hour}); err == nil {
		t.Fatal("invalid window accepted")
	}
}

// materializedPredictWindow is PredictWindow the way it was written before
// it ran on scratch: a fresh series, a fresh forecast, the forecast as fresh
// samples, and avail.WindowSurvives over them.
func materializedPredictWindow(ts TimeSeries, prev []trace.Sample, w Window) (bool, error) {
	var series []float64
	lastFree := ts.Cfg.GuestMemMB + 1
	for _, s := range prev {
		if s.Up {
			series = append(series, s.CPU)
			lastFree = s.FreeMemMB
		}
	}
	if len(prev) > 0 && !prev[len(prev)-1].Up {
		return false, nil
	}
	if len(series) == 0 {
		series = []float64{0}
	}
	model, err := ts.Fitter.Fit(series)
	if err != nil {
		return false, err
	}
	var predicted []trace.Sample
	for _, cpu := range model.Forecast(nil, w.Units(period)) {
		predicted = append(predicted, trace.Sample{CPU: math.Min(math.Max(cpu, 0), 100), FreeMemMB: lastFree, Up: true})
	}
	return avail.WindowSurvives(predicted, ts.Cfg, period), nil
}

// prevWindows returns the seeded windows the baselines are checked on: load
// that wanders across Th2 with outages and memory dips, at the bench's three
// lengths and a few awkward ones, plus the degenerate shapes.
func prevWindows() map[string][]trace.Sample {
	wander := func(seed uint64, n int) []trace.Sample {
		r := rng.New(seed)
		out := make([]trace.Sample, n)
		level, cpu := r.Uniform(20, 70), 0.0
		for i := range out {
			if r.Intn(200) == 0 {
				level = r.Uniform(5, 90)
			}
			cpu = 0.8*cpu + 0.2*level + r.Normal(0, 6)
			out[i] = trace.Sample{CPU: math.Min(math.Max(cpu, 0), 100), FreeMemMB: r.Uniform(80, 400), Up: r.Intn(150) != 0}
		}
		return out
	}
	constant := make([]trace.Sample, 600)
	for i := range constant {
		constant[i] = trace.Sample{CPU: 37.5, FreeMemMB: 400, Up: true}
	}
	downAtOrigin := wander(1, 600)
	downAtOrigin[len(downAtOrigin)-1].Up = false
	out := map[string][]trace.Sample{
		"empty":                nil,
		"constant":             constant,
		"down-at-origin":       downAtOrigin,
		"one-sample":           wander(2, 1),
		"shorter-than-long-AR": wander(3, 7), // ARMA(8,8)'s long AR wants 20 lags of n/3 = 2
	}
	for seed := uint64(10); seed < 16; seed++ {
		out[fmt.Sprintf("1h/%d", seed)] = wander(seed, 600)
		out[fmt.Sprintf("5h/%d", seed)] = wander(seed, 3000)
		out[fmt.Sprintf("10h/%d", seed)] = wander(seed, 6000)
		out[fmt.Sprintf("47min/%d", seed)] = wander(seed, 470)
	}
	return out
}

// TestTimeSeriesScratchMatchesMaterialized: for the five reference fitters
// over prevWindows, PredictWindow (clamping as it appends, a failure scan
// over ClassifyInto) agrees with the materialized reference (math.Min/Max,
// avail.WindowSurvives).
func TestTimeSeriesScratchMatchesMaterialized(t *testing.T) {
	windows := prevWindows()
	// Longest first, so that most cases find the scratch larger than needed.
	names := make([]string, 0, len(windows))
	for name := range windows {
		names = append(names, name)
	}
	sort.Slice(names, func(i, j int) bool {
		if a, b := len(windows[names[i]]), len(windows[names[j]]); a != b {
			return a > b
		}
		return names[i] < names[j]
	})
	cfg := avail.DefaultConfig()
	for _, fit := range timeseries.ReferenceSuite() {
		ts := TimeSeries{Cfg: cfg, Fitter: fit}
		outcomes := map[bool]int{}
		for _, name := range names {
			prev := windows[name]
			// The query window has prev's length, as in predictDay, and
			// starts where prev ends.
			length := time.Duration(len(prev)) * period
			if length == 0 {
				length = time.Hour
			}
			w := Window{Start: 10 * time.Hour, Length: length}
			want, err := materializedPredictWindow(ts, prev, w)
			if err != nil {
				t.Fatalf("%s %s: reference: %v", fit.Name(), name, err)
			}
			got, err := ts.PredictWindow(prev, w, period)
			if err != nil {
				t.Fatalf("%s %s: %v", fit.Name(), name, err)
			}
			if got != want {
				t.Errorf("%s %s: PredictWindow %v; materialized reference %v", fit.Name(), name, got, want)
			}
			outcomes[want]++
		}
		// down-at-origin is false without a forecast: ask for more.
		if outcomes[true] < 2 || outcomes[false] < 2 {
			t.Errorf("%s: outcomes %v — the forecasts do not exercise both answers", fit.Name(), outcomes)
		}
	}
}

func TestEmpiricalTR(t *testing.T) {
	cfg := avail.DefaultConfig()
	w := Window{Start: 8 * time.Hour, Length: 2 * time.Hour}
	days := []*trace.Day{
		idleDay(0),
		failAt(idleDay(1), 9*time.Hour, 10*time.Minute),
		// Failed at the window start: excluded from the population.
		failAt(idleDay(2), 7*time.Hour, 90*time.Minute),
	}
	tr, n := EmpiricalTR(days, w, cfg)
	if n != 2 {
		t.Fatalf("usable days = %d, want 2", n)
	}
	if tr != 0.5 {
		t.Fatalf("empirical TR = %v, want 0.5", tr)
	}
	if tr, n := EmpiricalTR(nil, w, cfg); tr != 0 || n != 0 {
		t.Fatal("empty day set should report 0,0")
	}
}

func TestEvaluateSMPPerfectOnStationaryPattern(t *testing.T) {
	// Train and test sets have identical failure statistics: every third
	// day fails inside the window. The SMP prediction should land close
	// to the empirical TR.
	var train, test []*trace.Day
	for i := 0; i < 12; i++ {
		d := idleDay(i)
		if i%3 == 0 {
			failAt(d, 9*time.Hour, 20*time.Minute)
		}
		train = append(train, d)
	}
	for i := 12; i < 24; i++ {
		d := idleDay(i)
		if i%3 == 0 {
			failAt(d, 9*time.Hour, 20*time.Minute)
		}
		test = append(test, d)
	}
	sp := trace.Split{Train: train, Test: test}
	ev, err := EvaluateSMP(defaultSMP(), sp, Window{Start: 8 * time.Hour, Length: 2 * time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	if ev.RelErr > 0.05 {
		t.Fatalf("relative error %v too high on a stationary pattern (pred %v, emp %v)",
			ev.RelErr, ev.TRPred, ev.TREmp)
	}
	if ev.TestDays != 12 {
		t.Fatalf("TestDays = %d", ev.TestDays)
	}
	if ev.Predictor != "SMP" {
		t.Fatalf("Predictor = %q", ev.Predictor)
	}
}

func TestEvaluateTimeSeries(t *testing.T) {
	var test []*trace.Day
	for i := 0; i < 6; i++ {
		test = append(test, idleDay(i))
	}
	sp := trace.Split{Test: test}
	ts := TimeSeries{Cfg: avail.DefaultConfig(), Fitter: timeseries.BM{P: 8}}
	ev, err := EvaluateTimeSeries(ts, sp, Window{Start: 8 * time.Hour, Length: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	if ev.TRPred != 1 || ev.TREmp != 1 || ev.RelErr != 0 {
		t.Fatalf("evaluation = %+v", ev)
	}
	if ev.Predictor != "BM(8)" {
		t.Fatalf("Predictor = %q", ev.Predictor)
	}
}

func TestEvaluateErrorsOnNoUsableTestDays(t *testing.T) {
	// Every test day is failed at the window start.
	var test []*trace.Day
	for i := 0; i < 3; i++ {
		test = append(test, failAt(idleDay(i), 7*time.Hour, 3*time.Hour))
	}
	sp := trace.Split{Train: []*trace.Day{idleDay(9)}, Test: test}
	w := Window{Start: 8 * time.Hour, Length: time.Hour}
	if _, err := EvaluateSMP(defaultSMP(), sp, w); err == nil {
		t.Fatal("EvaluateSMP accepted an unusable test set")
	}
	ts := TimeSeries{Cfg: avail.DefaultConfig(), Fitter: timeseries.Last{}}
	if _, err := EvaluateTimeSeries(ts, sp, w); err == nil {
		t.Fatal("EvaluateTimeSeries accepted an unusable test set")
	}
}

// TestRestartSeesRecurringFailure pins what harvesting every trajectory must
// still deliver on a strictly repetitive failure: the post-recovery data
// dilutes the estimate, but the prediction stays substantially degraded.
func TestRestartSeesRecurringFailure(t *testing.T) {
	// A machine that fails at 09:00 every day, recovering afterwards.
	var days []*trace.Day
	for i := 0; i < 10; i++ {
		days = append(days, failAt(idleDay(i), 9*time.Hour, 20*time.Minute))
	}
	pred, err := defaultSMP().Predict(days, Window{Start: 8 * time.Hour, Length: 3 * time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	if pred.TR >= 0.75 {
		t.Fatalf("TR = %v, want well below 1", pred.TR)
	}
}
