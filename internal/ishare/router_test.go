package ishare

import (
	"reflect"
	"sort"
	"testing"
	"time"

	"fgcs/internal/obs"
	"fgcs/internal/predict"
)

// feedOutcomes records and resolves n predictions per listed predictor on
// one machine: pred maps predictor name to the TR it keeps issuing, and
// survive is the observed outcome. Each round is resolved immediately by an
// observation past the window deadline, so rolling scores advance by exactly
// n entries per predictor.
func feedOutcomes(tr *obs.Tracker, machine string, preds map[string]float64, survive bool, n int, at time.Time) time.Time {
	for i := 0; i < n; i++ {
		start := at
		for name, p := range preds {
			tr.RecordPrediction(machine, name, p, start, time.Minute)
		}
		at = at.Add(2 * time.Minute)
		tr.Observe(machine, at, survive)
	}
	return at
}

// TestRouterFallbackAndSwitch walks the router through its lifecycle on one
// machine: fallback while scores are thin, hysteresis holding the incumbent
// until the dwell elapses, then a switch to a strictly better challenger.
func TestRouterFallbackAndSwitch(t *testing.T) {
	tracker := obs.NewTracker()
	r := NewRouter(tracker)

	// Thin scores: the fallback serves.
	if got := r.Route("m1"); got != "SMP" {
		t.Fatalf("cold route = %q, want fallback SMP", got)
	}

	// FFT perfectly calibrated, SMP badly wrong: windows survive, FFT said
	// 1.0, SMP said 0.1. Brier(FFT)=0, Brier(SMP)=0.81. 15 outcomes each
	// is one short of the 16 a predictor needs to compete.
	at := time.Date(2005, 8, 22, 8, 0, 0, 0, time.UTC)
	at = feedOutcomes(tracker, "m1", map[string]float64{"SMP": 0.1, "FFT": 1.0}, true, 15, at)
	if got := r.Route("m1"); got != "SMP" {
		t.Fatalf("route below min samples = %q, want fallback SMP", got)
	}

	// FFT's 16th outcome makes it eligible, but only 31 have resolved —
	// below the 32 dwell, so the incumbent holds even though the challenger
	// is clearly better.
	at = feedOutcomes(tracker, "m1", map[string]float64{"FFT": 1.0}, true, 1, at)
	if got := r.Route("m1"); got != "SMP" {
		t.Fatalf("route before dwell = %q, want SMP held by hysteresis", got)
	}

	feedOutcomes(tracker, "m1", map[string]float64{"SMP": 0.1}, true, 1, at)
	// 32 resolved: dwell satisfied, FFT beats SMP by far more than the
	// margin, so the router switches.
	if got := r.Route("m1"); got != "FFT" {
		t.Fatalf("route after dwell = %q, want FFT", got)
	}
	snap := r.Snapshot()
	if snap.Switches != 1 {
		t.Fatalf("switches = %d, want 1", snap.Switches)
	}
	if snap.Machines != 1 {
		t.Fatalf("routed machines = %d, want 1", snap.Machines)
	}
	if snap.Served["SMP"] != 3 || snap.Served["FFT"] != 1 {
		t.Fatalf("served = %v, want SMP=3 FFT=1", snap.Served)
	}
}

// TestRouterMarginHoldsIncumbent pins the margin rule: a challenger that is
// better but not by the 0.02 margin must not unseat the incumbent; one that
// clears it does.
func TestRouterMarginHoldsIncumbent(t *testing.T) {
	tracker := obs.NewTracker()
	r := NewRouter(tracker)
	at := time.Date(2005, 8, 22, 8, 0, 0, 0, time.UTC)
	// Both predict well; FFT slightly better (Brier 0.01 vs 0.0225) — inside
	// the margin once SMP is incumbent. 16 outcomes each clear both the
	// sample floor and the dwell, so only the margin holds SMP.
	feedOutcomes(tracker, "m1", map[string]float64{"SMP": 0.85, "FFT": 0.9}, true, 16, at)
	if got := r.Route("m1"); got != "SMP" {
		t.Fatalf("route = %q, want incumbent SMP held by margin", got)
	}
	if s := r.Snapshot(); s.Switches != 0 {
		t.Fatalf("switches = %d, want 0", s.Switches)
	}
	// Same history on another machine but SMP at 0.8 (Brier 0.04): the gap
	// of 0.03 clears the margin.
	feedOutcomes(tracker, "m2", map[string]float64{"SMP": 0.8, "FFT": 0.9}, true, 16, at)
	if got := r.Route("m2"); got != "FFT" {
		t.Fatalf("route = %q, want FFT past the margin", got)
	}
}

// TestRouterDeterministic replays identical tracker histories through two
// independent routers: the decision sequences must match exactly — the
// property the fleetsim transcript hash pins at scale. The tracker is only
// fed between routing calls, mirroring the sim's feed-then-query phases.
func TestRouterDeterministic(t *testing.T) {
	build := func() (*obs.Tracker, *Router) {
		tracker := obs.NewTracker()
		return tracker, NewRouter(tracker)
	}
	tr1, r1 := build()
	tr2, r2 := build()

	machines := []string{"m0", "m1", "m2"}
	at := time.Date(2005, 8, 22, 8, 0, 0, 0, time.UTC)
	var decisions1, decisions2 []string
	for round := 0; round < 6; round++ {
		// Alternate which predictor is calibrated, per machine.
		for mi, m := range machines {
			good := (round+mi)%2 == 0
			preds := map[string]float64{"SMP": 0.2, "FFT": 0.9, "PCT": 0.5}
			if !good {
				preds = map[string]float64{"SMP": 0.9, "FFT": 0.1, "PCT": 0.5}
			}
			feedOutcomes(tr1, m, preds, true, 16, at)
			feedOutcomes(tr2, m, preds, true, 16, at)
		}
		at = at.Add(time.Hour)
		for _, m := range machines {
			for k := 0; k < 2; k++ {
				decisions1 = append(decisions1, r1.Route(m))
				decisions2 = append(decisions2, r2.Route(m))
			}
		}
	}
	if len(decisions1) != len(decisions2) {
		t.Fatalf("decision counts differ: %d vs %d", len(decisions1), len(decisions2))
	}
	for i := range decisions1 {
		if decisions1[i] != decisions2[i] {
			t.Fatalf("decision %d diverged: %q vs %q", i, decisions1[i], decisions2[i])
		}
	}
	s1, s2 := r1.Snapshot(), r2.Snapshot()
	if s1.Switches != s2.Switches {
		t.Fatalf("switch counts diverged: %d vs %d", s1.Switches, s2.Switches)
	}
	if s1.Switches == 0 {
		t.Fatal("no router ever switched: the replay compared nothing")
	}
}

// TestRouterDefaults pins the candidate set: every registered plugin, sorted
// so ties break toward the smallest name.
func TestRouterDefaults(t *testing.T) {
	got := NewRouter(obs.NewTracker()).Predictors()
	want := predict.PluginNames()
	sort.Strings(want)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("candidates = %v, want every registered plugin sorted: %v", got, want)
	}
}
