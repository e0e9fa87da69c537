package obs

import (
	"fmt"
	"time"
)

// Accuracy-drift detection: an online Page–Hinkley test over each
// (machine, predictor) Brier stream, plus the "_all" fleet aggregates.
//
// The Page–Hinkley test (a one-sided CUSUM) watches a stream x_1, x_2, ...
// and maintains m_T = Σ (x_t − mean_t − δ) together with its running minimum
// M_T; the statistic PH = m_T − M_T measures how far the recent mean has
// risen above the historical one, discounted by the insensitivity δ. PH
// exceeding λ means the Brier score — the prediction error — has genuinely
// shifted upward, and the watcher raises an accuracy-drift alert for that
// (machine, predictor) stream.
//
// One observation x_t is the mean Brier of the resolutions that arrived
// since the previous emitted observation; a step emits nothing until at
// least driftMinStepResolved resolutions have accumulated, so thin streams are
// batched rather than fed one noisy point at a time. Built from cumulative
// sums (not the rolling ring), the stream is invariant to resolution
// interleaving across machines and therefore byte-deterministic in the
// fleet simulator.

// The detector's tuning. Per-machine streams and the fleet aggregates are
// watched alike.
const (
	// driftDelta is the Page–Hinkley insensitivity δ: mean shifts smaller
	// than this (in Brier) are ignored.
	driftDelta = 0.005
	// driftDefaultLambda is the alarm threshold λ on the PH statistic
	// unless NewDriftWatcher is given another.
	driftDefaultLambda = 0.05
	// driftMinSteps is the minimum number of emitted observations before a
	// stream may alarm — a fresh stream must establish a baseline first.
	driftMinSteps = 6
	// driftMinResolved ignores keys with fewer lifetime resolutions.
	driftMinResolved = 16
	// driftMinStepResolved batches at least this many new resolutions into
	// one observation.
	driftMinStepResolved = 8
)

// phState is the Page–Hinkley accumulator for one stream.
type phState struct {
	n     int     // emitted observations
	mean  float64 // running mean of x
	mT    float64 // Σ (x − mean − δ)
	minMT float64 // running min of mT

	lastResolved uint64  // cumulative counters at the last emitted observation
	lastBrier    float64 //
	stamp        uint64  // last Step that saw this key, for eviction sweeps
}

// DriftWatcher runs the Page–Hinkley test over a Tracker's accuracy streams
// and appends typed alerts to a ring. Step is the only entry point; call it
// periodically (each simulator tick, or every evaluation interval on a live
// node). Detector state follows tracker retention: keys evicted from the
// tracker are swept from the watcher.
type DriftWatcher struct {
	t      *Tracker
	ring   *AlertRing
	lambda float64

	states map[trackerKey]*phState
	steps  uint64
}

// NewDriftWatcher builds a watcher over t that appends alerts to ring (which
// may be nil; Step still reports fired alerts to its caller). lambda is the
// alarm threshold on the PH statistic; 0 selects the default 0.05.
func NewDriftWatcher(t *Tracker, ring *AlertRing, lambda float64) *DriftWatcher {
	if lambda == 0 {
		lambda = driftDefaultLambda
	}
	return &DriftWatcher{t: t, ring: ring, lambda: lambda, states: make(map[trackerKey]*phState)}
}

// driftSample is one key's cumulative accuracy counters, captured under the
// tracker lock.
type driftSample struct {
	key      trackerKey
	resolved uint64
	brierSum float64
}

// driftSamples snapshots the watched keys in sorted order. Cumulative sums
// only: they are order-invariant under concurrent resolution, unlike the
// rolling ring of the "_all" aggregates.
func (t *Tracker) driftSamples() []driftSample {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]driftSample, 0, len(t.keys))
	for _, key := range t.keys {
		st := t.stats[key]
		if st.resolved < driftMinResolved {
			continue
		}
		out = append(out, driftSample{key: key, resolved: st.resolved, brierSum: st.brierSum})
	}
	return out
}

// Step evaluates every watched stream once and returns the alerts fired (in
// sorted key order, so a single-threaded caller gets deterministic output).
// Nil-safe.
func (w *DriftWatcher) Step(now time.Time) []Alert {
	if w == nil || w.t == nil {
		return nil
	}
	w.steps++
	samples := w.t.driftSamples()
	var fired []Alert
	for _, s := range samples {
		ph, ok := w.states[s.key]
		if !ok {
			ph = &phState{}
			w.states[s.key] = ph
		}
		ph.stamp = w.steps
		if a, did := w.stepKey(ph, s, now); did {
			fired = append(fired, a)
		}
	}
	// Sweep detector state for keys the tracker has evicted. Only worth the
	// scan when evictions actually outpaced the live key set.
	if len(w.states) > 2*len(samples)+16 {
		for k, st := range w.states {
			if st.stamp != w.steps {
				delete(w.states, k)
			}
		}
	}
	return fired
}

// stepKey advances one stream's Page–Hinkley state and fires at most one
// drift alert.
func (w *DriftWatcher) stepKey(ph *phState, s driftSample, now time.Time) (Alert, bool) {
	dr := s.resolved - ph.lastResolved
	if dr < driftMinStepResolved && ph.lastResolved != 0 {
		return Alert{}, false // batch until enough new resolutions arrived
	}
	if dr == 0 {
		return Alert{}, false
	}
	x := (s.brierSum - ph.lastBrier) / float64(dr)
	ph.lastResolved = s.resolved
	ph.lastBrier = s.brierSum
	ph.n++
	ph.mean += (x - ph.mean) / float64(ph.n)
	ph.mT += x - ph.mean - driftDelta
	if ph.mT < ph.minMT {
		ph.minMT = ph.mT
	}
	stat := ph.mT - ph.minMT
	if ph.n < driftMinSteps || stat <= w.lambda {
		return Alert{}, false
	}
	a := w.emit(Alert{
		Kind:      AlertAccuracyDrift,
		Machine:   s.key.Machine,
		Predictor: s.key.Predictor,
		Value:     stat,
		Threshold: w.lambda,
		Message: fmt.Sprintf("Brier mean shifted up: window %.4f vs baseline %.4f (PH %.4f > λ %.4f)",
			x, ph.mean, stat, w.lambda),
		Time: now,
	})
	// Re-baseline: after an alarm the stream starts fresh at the post-change
	// level, so a sustained (but stable) degradation fires once, not every
	// step.
	ph.n, ph.mean, ph.mT, ph.minMT = 0, 0, 0, 0
	return a, true
}

func (w *DriftWatcher) emit(a Alert) Alert {
	if w.ring != nil {
		return w.ring.Append(a)
	}
	return a
}
