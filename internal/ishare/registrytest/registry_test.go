// Package registrytest holds the tests that add to the process-global
// predictor registry. It is a test binary of its own so that no other suite's
// registered set — golden tables, tracker rows, transcripts — changes with
// it.
package registrytest

import (
	"context"
	"errors"
	"testing"
	"time"

	"fgcs/internal/avail"
	"fgcs/internal/ishare"
	"fgcs/internal/predict"
	"fgcs/internal/simclock"
	"fgcs/internal/trace"
)

const (
	machine    = "lab-01"
	period     = trace.DefaultPeriod
	ninthName  = "CONST"
	ninthTR    = 0.25
	brokenName = "BROKEN"
)

var (
	monday    = time.Date(2005, 8, 22, 0, 0, 0, 0, time.UTC)
	idle      = trace.Sample{CPU: 5, FreeMemMB: 400, Up: true}
	errBroken = errors.New("registrytest: no TR for any window")
)

// constant is the smallest possible predictor: the same TR for every window.
// It is neither SMP nor Cacheable, so the engine does not memoize it.
type constant struct{}

// constantCalls counts constant's evaluations and constantPrev the Prev
// samples its latest one was handed.
var constantCalls, constantPrev int

func (constant) Name() string { return ninthName }
func (constant) PredictTR(in predict.PluginInput) (float64, error) {
	constantCalls++
	constantPrev = len(in.Prev)
	return ninthTR, nil
}

// broken never produces a TR.
type broken struct{}

func (broken) Name() string                                   { return brokenName }
func (broken) PredictTR(predict.PluginInput) (float64, error) { return 0, errBroken }

func init() {
	predict.RegisterPlugin(ninthName, func(predict.PluginOptions) predict.Plugin { return constant{} })
	predict.RegisterPlugin(brokenName, func(predict.PluginOptions) predict.Plugin { return broken{} })
}

// newManager builds a state manager over eleven idle history days, with its
// clock at 08:30 on the following day and one live sample recorded.
func newManager(t *testing.T, deps ishare.SharedDeps) (*ishare.StateManager, *simclock.Virtual) {
	t.Helper()
	history := trace.NewMachine(machine, period)
	for i := 0; i < 11; i++ {
		d := trace.NewDay(monday.AddDate(0, 0, i), period)
		for j := range d.Samples {
			d.Samples[j] = idle
		}
		if err := history.AddDay(d); err != nil {
			t.Fatal(err)
		}
	}
	now := monday.AddDate(0, 0, 11).Add(8*time.Hour + 30*time.Minute)
	clock := simclock.NewVirtual(now)
	sm, err := ishare.NewStateManagerShared(machine, period, avail.DefaultConfig(), clock, history, 0, deps)
	if err != nil {
		t.Fatal(err)
	}
	sm.Record(now, idle)
	return sm, clock
}

// TestNinthPluginEndToEnd is docs/PREDICTORS.md's "registration is the only
// wiring step", checked: a plugin registered beside the eight built-ins is
// evaluated and scored on every QueryTR.
func TestNinthPluginEndToEnd(t *testing.T) {
	sm, clock := newManager(t, ishare.SharedDeps{})
	if _, err := sm.QueryTR(context.Background(), ishare.QueryTRReq{LengthSeconds: 3600, GuestMemMB: 100}); err != nil {
		t.Fatal(err)
	}
	// The window's outcome is observed once the monitor passes its deadline;
	// only an evaluated predictor has a prediction there to score.
	clock.Advance(time.Hour + period)
	sm.Record(clock.Now(), idle)
	rows := sm.Obs().Tracker.All()
	for _, row := range rows {
		if row.Machine == machine && row.Predictor == ninthName && row.Resolved == 1 && row.MeanTR == ninthTR {
			return
		}
	}
	t.Fatalf("tracker rows %+v lack 1 resolved prediction of TR %v for %s", rows, ninthTR, ninthName)
}

// TestUnmemoizedPluginIsLive: a plugin predict.Memoized does not name is
// evaluated from the live origin — it is handed today's samples before the
// window — once per recorded sample, and leaves no entry in the engine's LRU.
func TestUnmemoizedPluginIsLive(t *testing.T) {
	if predict.Memoized(constant{}) {
		t.Fatal("a plugin that is neither SMP nor Cacheable reads as engine-memoized")
	}
	engine := predict.NewEngine(predict.EngineConfig{})
	sm, clock := newManager(t, ishare.SharedDeps{Engine: engine})
	ctx := context.Background()
	req := ishare.QueryTRReq{LengthSeconds: 3600, GuestMemMB: 100}
	constantCalls = 0
	for i := 0; i < 3; i++ {
		if _, err := sm.QueryTR(ctx, req); err != nil {
			t.Fatal(err)
		}
	}
	if constantCalls != 1 || constantPrev == 0 {
		t.Fatalf("3 queries on one sample: %d evaluations over %d Prev samples, want 1 over the live log", constantCalls, constantPrev)
	}
	entries := engine.Stats().Entries
	clock.Advance(period)
	sm.Record(clock.Now(), idle)
	if _, err := sm.QueryTR(ctx, req); err != nil {
		t.Fatal(err)
	}
	if constantCalls != 2 {
		t.Fatalf("%d evaluations after a new sample, want 2", constantCalls)
	}
	// The engine holds SMP's kernel, PCT's TR and FFT's TR per window, and
	// FFT's spectrum once per day pool; the sample moved the window on, so each
	// of the three adds one entry and the unmemoized plugins add none.
	if got := engine.Stats().Entries; entries != 4 || got != 7 {
		t.Fatalf("engine entries %d -> %d, want 4 -> 7", entries, got)
	}
}

// TestBrokenPluginCostsOnlyItsScore: a registered plugin that has no TR for
// the window neither fails the query nor changes its answer — SMP's TR for
// the same input is served — and it is the only predictor left without a
// resolved claim; CONST and every built-in still resolve one.
func TestBrokenPluginCostsOnlyItsScore(t *testing.T) {
	sm, clock := newManager(t, ishare.SharedDeps{})
	length := time.Hour
	resp, err := sm.QueryTR(context.Background(), ishare.QueryTRReq{LengthSeconds: length.Seconds(), GuestMemMB: 100})
	if err != nil {
		t.Fatal(err)
	}
	midnight, w := predict.WindowAt(clock.Now(), length, period)
	var days []*trace.Day
	for _, d := range sm.History() {
		if d.Date.Before(midnight) && d.Type() == trace.TypeOfDate(midnight) {
			days = append(days, d)
		}
	}
	cfg := avail.DefaultConfig()
	cfg.GuestMemMB = 100
	smp, _ := predict.NewPlugin("SMP", predict.PluginOptions{Cfg: cfg})
	want, err := smp.PredictTR(predict.PluginInput{Days: days, Window: w, Period: period, State: sm.CurrentState(), HaveState: true})
	if err != nil {
		t.Fatal(err)
	}
	if resp.TR != want || resp.HistoryWindows != len(days) {
		t.Fatalf("QueryTR = TR %v over %d days, want SMP's %v over %d", resp.TR, resp.HistoryWindows, want, len(days))
	}

	clock.Advance(length + period)
	sm.Record(clock.Now(), idle)
	resolved := map[string]uint64{}
	for _, row := range sm.Obs().Tracker.All() {
		if row.Machine == machine {
			resolved[row.Predictor] = row.Resolved
		}
	}
	if _, ok := resolved[brokenName]; ok {
		t.Errorf("the tracker holds a %s row: %v", brokenName, resolved)
	}
	for _, name := range predict.PluginNames() {
		if name != brokenName && resolved[name] != 1 {
			t.Errorf("%s: %d resolved claims, want 1", name, resolved[name])
		}
	}
}
