package obs

import (
	"testing"
	"time"
)

// feed folds n resolutions of (tr, survived) into the tracker for machine
// m01 under predictor SMP.
func feed(t *Tracker, n int, tr float64, survived bool) {
	for i := 0; i < n; i++ {
		t.RestoreResolution("m01", "SMP", tr, survived)
	}
}

func driftAlerts(alerts []Alert, kind string) []Alert {
	var out []Alert
	for _, a := range alerts {
		if a.Kind == kind {
			out = append(out, a)
		}
	}
	return out
}

func TestDriftSilentOnStableStream(t *testing.T) {
	tr := NewTracker()
	w := NewDriftWatcher(tr, nil, 0)
	now := time.Date(2026, 6, 4, 0, 0, 0, 0, time.UTC)
	for step := 0; step < 30; step++ {
		feed(tr, 8, 0.9, true) // Brier 0.01 per resolution, forever
		if fired := w.Step(now); len(fired) != 0 {
			t.Fatalf("step %d: stable stream fired %+v", step, fired)
		}
		now = now.Add(time.Minute)
	}
}

func TestDriftFiresOnPersistentShift(t *testing.T) {
	tr := NewTracker()
	ring := NewAlertRing(32)
	w := NewDriftWatcher(tr, ring, 0)
	now := time.Date(2026, 6, 4, 0, 0, 0, 0, time.UTC)

	// Baseline: 10 steps of well-calibrated predictions.
	for step := 0; step < 10; step++ {
		feed(tr, 8, 0.9, true)
		if fired := w.Step(now); len(fired) != 0 {
			t.Fatalf("baseline step %d fired %+v", step, fired)
		}
		now = now.Add(time.Minute)
	}

	// Regression: the same confident predictions now fail (Brier 0.81).
	var fired []Alert
	for step := 0; step < 10 && len(fired) == 0; step++ {
		feed(tr, 8, 0.9, false)
		fired = w.Step(now)
		now = now.Add(time.Minute)
	}
	drifts := driftAlerts(fired, AlertAccuracyDrift)
	if len(drifts) == 0 {
		t.Fatal("persistent Brier shift never fired the drift detector")
	}
	// Both the per-machine stream and the "_all" rollup watch the same
	// resolutions here, so the machine-scoped alert must be among them.
	var scoped *Alert
	for i := range drifts {
		if drifts[i].Machine == "m01" && drifts[i].Predictor == "SMP" {
			scoped = &drifts[i]
		}
	}
	if scoped == nil {
		t.Fatalf("no (m01, SMP)-scoped drift alert in %+v", drifts)
	}
	if scoped.Value <= scoped.Threshold {
		t.Errorf("alert value %.4f not above threshold %.4f", scoped.Value, scoped.Threshold)
	}
	if scoped.Seq == 0 {
		t.Error("ring-appended alert carries no sequence number")
	}
	if got := ring.Alerts(0); len(got) != len(fired) {
		t.Errorf("ring holds %d alerts, watcher fired %d", len(got), len(fired))
	}

	// Re-baseline: the stream stays at the degraded (but stable) level; the
	// detector must not page again every step.
	var refires int
	for step := 0; step < 20; step++ {
		feed(tr, 8, 0.9, false)
		refires += len(driftAlerts(w.Step(now), AlertAccuracyDrift))
		now = now.Add(time.Minute)
	}
	if refires != 0 {
		t.Errorf("stable post-change stream re-fired %d times", refires)
	}
}

func TestDriftMinResolvedGate(t *testing.T) {
	tr := NewTracker()
	w := NewDriftWatcher(tr, nil, 0)
	now := time.Unix(0, 0).UTC()
	// 15 resolutions is under the 16 a key needs: the key is not
	// even sampled, no matter how bad the scores are.
	feed(tr, 15, 0.99, false)
	for step := 0; step < 10; step++ {
		if fired := w.Step(now); len(fired) != 0 {
			t.Fatalf("sub-MinResolved stream fired %+v", fired)
		}
	}
}

func TestDriftBatchesThinStreams(t *testing.T) {
	tr := NewTracker()
	w := NewDriftWatcher(tr, nil, 0)
	now := time.Unix(0, 0).UTC()
	feed(tr, 16, 0.9, true) // first observation: establishes the stream
	w.Step(now)

	// Trickle fewer than the 8 new resolutions one observation needs: the
	// watcher must batch, not emit noisy single-point observations (seven of
	// those would pass the 6-observation baseline and alarm). With no
	// emissions there can be no alarm, however bad the trickle is.
	for step := 0; step < 7; step++ {
		feed(tr, 1, 0.9, false)
		if fired := w.Step(now); len(fired) != 0 {
			t.Fatalf("batched trickle fired %+v at step %d", fired, step)
		}
	}
}

func TestDriftNilSafety(t *testing.T) {
	var w *DriftWatcher
	if got := w.Step(time.Now()); got != nil {
		t.Errorf("nil watcher fired %+v", got)
	}
	w2 := NewDriftWatcher(nil, nil, 0)
	if got := w2.Step(time.Now()); got != nil {
		t.Errorf("trackerless watcher fired %+v", got)
	}
}
