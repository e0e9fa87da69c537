// Package predict is the paper's core contribution as a library: prediction
// of temporal reliability — the probability that a machine stays available
// for guest execution throughout a future time window — from monitor history
// logs.
//
// Two predictor families are provided. SMP is the paper's semi-Markov-process
// predictor (Section 4): it pools the same clock window from the most recent
// N days of the same type (weekday/weekend), estimates the sparse Q/H
// parameters, and solves Equation (3). TimeSeries is the reference baseline
// of Section 6.2: a linear time-series model fitted to the window preceding
// the query window, forecast multi-step-ahead and classified into
// availability states.
//
// The package also implements the evaluation methodology of Section 7:
// empirical TR over test days, relative error, and the training/test
// machinery shared by the Figure 5-8 experiments.
package predict

import (
	"fmt"
	"slices"
	"time"

	"fgcs/internal/avail"
	"fgcs/internal/smp"
	"fgcs/internal/timeseries"
	"fgcs/internal/trace"
)

// Window is a future time window specified by its start offset from midnight
// (W_init) and its length (T).
type Window struct {
	Start  time.Duration
	Length time.Duration
}

// String formats the window as the start clock time and the length in
// time.Duration form, e.g. "08:00+2h0m0s".
func (w Window) String() string {
	h := int(w.Start / time.Hour)
	m := int(w.Start/time.Minute) % 60
	return fmt.Sprintf("%02d:%02d+%s", h, m, w.Length)
}

// Validate checks the window is inside a day.
func (w Window) Validate() error {
	if w.Start < 0 || w.Start >= 24*time.Hour {
		return fmt.Errorf("predict: window start %v outside the day", w.Start)
	}
	if w.Length <= 0 || w.Start+w.Length > 24*time.Hour {
		return fmt.Errorf("predict: window %v does not fit in the day", w)
	}
	return nil
}

// WindowAt places a job of the given length starting at wall-clock time t on
// its day: it returns the UTC midnight of that day and the window from t
// (truncated to the period) over the job's length (truncated to the period,
// at least one period). A window that would cross midnight is clipped there:
// the day-structured estimator pools same-clock windows, which do not wrap
// (windows beyond midnight would mix day types).
func WindowAt(t time.Time, length, period time.Duration) (time.Time, Window) {
	t = t.UTC()
	midnight := time.Date(t.Year(), t.Month(), t.Day(), 0, 0, 0, 0, time.UTC)
	w := Window{Start: t.Sub(midnight).Truncate(period), Length: length.Truncate(period)}
	if w.Length < period {
		w.Length = period
	}
	if w.Start+w.Length > 24*time.Hour {
		w.Length = 24*time.Hour - w.Start
	}
	return midnight, w
}

// Units converts the window length into discretization intervals of the
// given period (d in the paper; equal to the monitoring period).
func (w Window) Units(period time.Duration) int {
	return int(w.Length / period)
}

// SMP is the semi-Markov availability predictor. It harvests every
// unavailability occurrence in a history window: the machine recovers after
// each failure and its subsequent samples start a fresh trajectory, so an
// isolated noise event is one observation among many (Section 7.3). Stopping
// each window at its first failure was measured and removed; DESIGN.md §4
// records why.
type SMP struct {
	// Cfg is the availability-model configuration (thresholds etc.).
	Cfg avail.Config
	// HistoryDays bounds how many of the most recent same-type days are
	// pooled into the estimate (N in Section 4.2). Zero means all
	// provided days.
	HistoryDays int
}

// Name implements a human-readable identifier used in experiment output.
func (SMP) Name() string { return "SMP" }

// Prediction is the result of an SMP query.
type Prediction struct {
	// TR is the initial-state-weighted temporal reliability.
	TR float64
	// TRByInit holds TR conditioned on starting in S1 and S2.
	TRByInit [2]float64
	// InitProb is the empirical distribution of the initial state over
	// the history windows (S1, S2), used to weight TRByInit.
	InitProb [2]float64
	// HistoryWindows is the number of history windows the estimate used.
	HistoryWindows int
}

// from returns TR conditioned on a job starting in the given state, which
// must be recoverable.
func (pred Prediction) from(init avail.State) (float64, error) {
	switch init {
	case avail.S1:
		return pred.TRByInit[0], nil
	case avail.S2:
		return pred.TRByInit[1], nil
	}
	return 0, fmt.Errorf("smp: initial state %v is not recoverable", init)
}

// Predict computes the temporal reliability for the window on a future day,
// estimated from the history days (which must all be of the target day's
// type; use trace.Machine.DaysOfType or a trace.Split to select them).
//
// When the caller knows the machine's current state (a live query at
// W_init), use PredictFrom instead; Predict weights the two recoverable
// initial states by their historical frequency, which is the right thing for
// ahead-of-time evaluation.
func (p SMP) Predict(history []*trace.Day, w Window) (Prediction, error) {
	sc := &scratch{}
	kernel, pred, units, err := p.prepare(sc, history, w)
	if err != nil {
		return Prediction{}, err
	}
	return pred.solve(sc, kernel, units)
}

func periodOf(days []*trace.Day) time.Duration {
	if len(days) == 0 {
		return trace.DefaultPeriod
	}
	return days[0].Period
}

// scratch bundles the reusable per-query buffers: the classification and
// extraction arena and the estimation/solver workspace for SMP, a
// classification buffer for Percentile and Spectral's fit, and the fit's
// transform and top-k bins. One process-wide free list holds them
// (scratches), so at steady state a miss allocates only the kernel's support
// and what it caches, whatever the window length; an SMP or Percentile call
// outside the engine starts from the zero value, and a direct Spectral call
// takes one from the list. Results do not depend on what a scratch held.
type scratch struct {
	ex     avail.Extractor
	ws     smp.Workspace
	states []avail.State
	fft    []complex128 // spectralSignalLen points, allocated on first fit
	top    []binAmp
}

// prepare is the front half of the one pipeline from samples to TR: it cuts
// the history to the most recent HistoryDays, extracts the restart
// trajectories of the window on each day (one classification pass per day,
// which also yields the day's initial state) and estimates the kernel. It
// returns the kernel, the partially-filled Prediction (initial-state
// distribution, window count) and the window length in discretization units;
// Prediction.solve is the back half.
func (p SMP) prepare(sc *scratch, history []*trace.Day, w Window) (*smp.Kernel, Prediction, int, error) {
	var pred Prediction
	if err := w.Validate(); err != nil {
		return nil, pred, 0, err
	}
	if err := p.Cfg.Validate(); err != nil {
		return nil, pred, 0, err
	}
	if len(history) == 0 {
		return nil, pred, 0, fmt.Errorf("predict: no history days")
	}
	days := RecentDays(history, p.HistoryDays)
	period := periodOf(days)
	units := w.Units(period)
	if units < 1 {
		return nil, pred, 0, fmt.Errorf("predict: window %v shorter than the sampling period", w)
	}
	var initCount [2]float64
	sc.ex.Reset(p.Cfg, period)
	for _, d := range days {
		samples := d.Window(w.Start, w.Length)
		if len(samples) == 0 {
			continue
		}
		pred.HistoryWindows++
		if st, ok := sc.ex.AddWindow(samples, false); ok {
			if st == avail.S1 {
				initCount[0]++
			} else {
				initCount[1]++
			}
		}
	}
	total := initCount[0] + initCount[1]
	if total > 0 {
		pred.InitProb = [2]float64{initCount[0] / total, initCount[1] / total}
	} else {
		pred.InitProb = [2]float64{1, 0} // no usable history: assume idle start
	}
	kernel, err := smp.Estimator{Horizon: units}.EstimateWS(&sc.ws, sc.ex.Seqs())
	if err != nil {
		return nil, pred, 0, err
	}
	return kernel, pred, units, nil
}

// solve is the back half: the Equation (3) recursion over the estimated
// kernel on sc's workspace, and the one place a Prediction gets its TRs —
// TRByInit from the recursion, TR as their InitProb-weighted mix.
func (pred Prediction) solve(sc *scratch, kernel *smp.Kernel, units int) (Prediction, error) {
	tr1, tr2, err := kernel.ReliabilitiesWS(&sc.ws, units)
	if err != nil {
		return Prediction{}, err
	}
	pred.TRByInit = [2]float64{tr1, tr2}
	pred.TR = pred.InitProb[0]*tr1 + pred.InitProb[1]*tr2
	return pred, nil
}

// TimeSeries is the linear-time-series baseline predictor: fit on the window
// preceding the query window (same length), forecast the host CPU load
// multi-step-ahead across the query window, classify the forecast into
// availability states, and report survival of the predicted transitions.
type TimeSeries struct {
	// Cfg is the availability-model configuration used to classify the
	// forecast trajectory.
	Cfg avail.Config
	// Fitter is the model family (one of timeseries.ReferenceSuite()).
	Fitter timeseries.Fitter
}

// Name returns the underlying model name.
func (t TimeSeries) Name() string { return t.Fitter.Name() }

// predictDay forecasts the query window of one specific day from that day's
// preceding samples and reports whether the predicted trajectory survives
// (no failure states). This mirrors RPS usage: the model sees only the
// immediately preceding window of equal length.
func (t TimeSeries) predictDay(day *trace.Day, w Window) (bool, error) {
	prevStart := w.Start - w.Length
	if prevStart < 0 {
		prevStart = 0
	}
	return t.PredictWindow(day.Window(prevStart, w.Start-prevStart), w, day.Period)
}

// PredictWindow is predictDay over explicit samples: prev holds the samples
// of the window immediately preceding w (equal length, clipped at midnight),
// and period is their sampling period.
func (t TimeSeries) PredictWindow(prev []trace.Sample, w Window, period time.Duration) (bool, error) {
	if err := w.Validate(); err != nil {
		return false, err
	}
	if err := t.Cfg.Validate(); err != nil {
		return false, err
	}
	if t.Fitter == nil {
		return false, fmt.Errorf("predict: no fitter configured")
	}
	if len(prev) > 0 && !prev[len(prev)-1].Up {
		// Machine is down at the forecast origin: the only sensible
		// prediction for the window is failure.
		return false, nil
	}
	// Build the training series from reachable samples; machine-down
	// samples carry no load observation.
	series := make([]float64, 0, len(prev)+1)
	lastFree := t.Cfg.GuestMemMB + 1 // optimistic default when unobserved
	for _, s := range prev {
		if s.Up {
			series = append(series, s.CPU)
			lastFree = s.FreeMemMB
		}
	}
	if len(series) == 0 {
		// Nothing observed before the window (e.g. a window starting at
		// midnight after an outage): predict idle.
		series = append(series, 0)
	}
	model, err := t.Fitter.Fit(series)
	if err != nil {
		return false, err
	}
	forecast := model.Forecast(nil, w.Units(period))
	predicted := make([]trace.Sample, 0, len(forecast))
	for _, cpu := range forecast {
		if cpu < 0 {
			cpu = 0
		}
		if cpu > 100 {
			cpu = 100
		}
		// CPU is forecast by the linear model; memory and machine-up
		// follow the persistence forecast, as RPS models only the load
		// signal.
		predicted = append(predicted, trace.Sample{CPU: cpu, FreeMemMB: lastFree, Up: true})
	}
	// The trajectory survives when no sample of it classifies as a failure
	// state, which is what avail.WindowSurvives computes.
	states := avail.ClassifyInto(nil, predicted, t.Cfg, period)
	return !slices.ContainsFunc(states, avail.State.Failure), nil
}

// predictDays aggregates predictDay over a set of days: the predicted temporal
// reliability is the fraction of days whose forecast trajectory survives the
// window.
func (t TimeSeries) predictDays(days []*trace.Day, w Window) (float64, error) {
	if len(days) == 0 {
		return 0, fmt.Errorf("predict: no days")
	}
	survived := 0
	for _, d := range days {
		ok, err := t.predictDay(d, w)
		if err != nil {
			return 0, err
		}
		if ok {
			survived++
		}
	}
	return float64(survived) / float64(len(days)), nil
}
