package predict

import (
	"fmt"
	"slices"

	"fgcs/internal/avail"
	"fgcs/internal/stats"
	"fgcs/internal/trace"
)

// EmpiricalTR measures the observed temporal reliability of a window over a
// set of days: the fraction of days on which the machine, having been in a
// recoverable state at the window start, stays available throughout the
// window. Days already failed at the window start are excluded — a guest job
// would not have been placed there. The second result is the number of days
// that contributed.
func EmpiricalTR(days []*trace.Day, w Window, cfg avail.Config) (float64, int) {
	tr, usable := empirical(days, w, cfg)
	return tr, len(usable)
}

// empirical is EmpiricalTR returning the contributing days themselves. Each
// day's window is classified once: the first state says whether the day is
// usable, the absence of a failure state whether it survived.
func empirical(days []*trace.Day, w Window, cfg avail.Config) (float64, []*trace.Day) {
	var usable []*trace.Day
	var states []avail.State
	survived := 0
	for _, d := range days {
		states = avail.ClassifyInto(states, d.Window(w.Start, w.Length), cfg, d.Period)
		if len(states) == 0 || !states[0].Recoverable() {
			continue
		}
		usable = append(usable, d)
		if !slices.ContainsFunc(states, avail.State.Failure) {
			survived++
		}
	}
	if len(usable) == 0 {
		return 0, nil
	}
	return float64(survived) / float64(len(usable)), usable
}

// Evaluation is the outcome of comparing a prediction against the test set,
// the quantity plotted in Figures 5-7.
type Evaluation struct {
	Window    Window
	Predictor string
	// TRPred is the predicted temporal reliability (from the training
	// set for SMP; from per-test-day forecasts for time-series models).
	TRPred float64
	// TREmp is the observed temporal reliability over the test days.
	TREmp float64
	// RelErr is |TRPred - TREmp| / TREmp, the paper's accuracy metric.
	RelErr float64
	// TestDays is how many test days contributed to TREmp.
	TestDays int
}

// EvaluateSMP trains the SMP predictor on the split's training days and
// scores it against the split's test days for one window.
func EvaluateSMP(p SMP, sp trace.Split, w Window) (Evaluation, error) {
	pred, err := p.Predict(sp.Train, w)
	if err != nil {
		return Evaluation{}, err
	}
	emp, n := EmpiricalTR(sp.Test, w, p.Cfg)
	if n == 0 {
		return Evaluation{}, fmt.Errorf("predict: no usable test days for window %v", w)
	}
	return Evaluation{
		Window:    w,
		Predictor: p.Name(),
		TRPred:    pred.TR,
		TREmp:     emp,
		RelErr:    stats.RelativeError(pred.TR, emp),
		TestDays:  n,
	}, nil
}

// EvaluateTimeSeries scores a time-series baseline on the split's test days
// for one window. Per Section 6.2 the model needs no training set: each test
// day is forecast from its own preceding window; the training days only
// participate through the day-type split.
func EvaluateTimeSeries(t TimeSeries, sp trace.Split, w Window) (Evaluation, error) {
	// Restrict to test days usable for the empirical measurement so both
	// sides of the comparison see the same population.
	emp, usable := empirical(sp.Test, w, t.Cfg)
	if len(usable) == 0 {
		return Evaluation{}, fmt.Errorf("predict: no usable test days for window %v", w)
	}
	trPred, err := t.predictDays(usable, w)
	if err != nil {
		return Evaluation{}, err
	}
	return Evaluation{
		Window:    w,
		Predictor: t.Name(),
		TRPred:    trPred,
		TREmp:     emp,
		RelErr:    stats.RelativeError(trPred, emp),
		TestDays:  len(usable),
	}, nil
}
