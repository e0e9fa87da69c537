// Package core is the high-level entry point to the paper's contribution:
// given the monitor history of a machine, predict its temporal reliability —
// the probability that it remains available to a guest job throughout a
// future time window.
//
// It wraps the full pipeline (state classification in package avail,
// semi-Markov estimation and the Equation (3) solver in package smp, window
// and history selection in package predict) behind a small API:
//
//	m, _ := trace.LoadFile("lab-01.trace")
//	p, _ := core.NewPredictor(m, core.Options{})
//	tr, _ := p.TRAt(time.Now(), 2*time.Hour)
//
// For the live-system integration (gateway, monitor, scheduler daemons) see
// package ishare; for the evaluation harnesses see package experiments.
package core

import (
	"fmt"
	"time"

	"fgcs/internal/avail"
	"fgcs/internal/predict"
	"fgcs/internal/trace"
)

// Options configures a Predictor.
type Options struct {
	// Model is the availability-model configuration; zero value selects
	// the paper's testbed defaults (Th1 20%, Th2 60%, 1 min suspend
	// limit, 100 MB guest).
	Model avail.Config
	// HistoryDays bounds the day pool per prediction (N most recent
	// same-type days; 0 = all available).
	HistoryDays int
	// Smoothing adds a pseudo-count to the kernel estimate; 0 reproduces
	// the paper's plain statistics.
	Smoothing float64
}

// Predictor predicts temporal reliability for one machine from its history.
type Predictor struct {
	machine *trace.Machine
	smp     predict.SMP
}

// NewPredictor builds a predictor over a machine's monitor history.
func NewPredictor(m *trace.Machine, opts Options) (*Predictor, error) {
	if m == nil || len(m.Days) == 0 {
		return nil, fmt.Errorf("core: machine history is empty")
	}
	cfg := opts.Model
	if cfg == (avail.Config{}) {
		cfg = avail.DefaultConfig()
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Predictor{
		machine: m,
		smp: predict.SMP{
			Cfg:         cfg,
			HistoryDays: opts.HistoryDays,
			Smoothing:   opts.Smoothing,
		},
	}, nil
}

// TR predicts the temporal reliability of a window on a day of the given
// type, pooling the machine's history days of that type.
func (p *Predictor) TR(dayType trace.DayType, w predict.Window) (predict.Prediction, error) {
	days := p.machine.DaysOfType(dayType)
	if len(days) == 0 {
		return predict.Prediction{}, fmt.Errorf("core: no %s history for %s", dayType, p.machine.ID)
	}
	return p.smp.Predict(days, w)
}

// TRAt predicts the reliability of running a job of the given length
// starting at the given wall-clock time, using the history days strictly
// before that time. Windows crossing midnight are clipped at midnight (the
// day-structured estimator pools same-clock windows).
func (p *Predictor) TRAt(start time.Time, jobLength time.Duration) (float64, error) {
	if jobLength <= 0 {
		return 0, fmt.Errorf("core: non-positive job length")
	}
	midnight, w := predict.WindowAt(start, jobLength, p.machine.Period)
	dayType := trace.TypeOfDate(midnight)
	var days []*trace.Day
	for _, d := range p.machine.Days {
		if d.Date.Before(midnight) && d.Type() == dayType {
			days = append(days, d)
		}
	}
	if len(days) == 0 {
		return 0, fmt.Errorf("core: no %s history before %v", dayType, midnight)
	}
	pred, err := p.smp.Predict(days, w)
	if err != nil {
		return 0, err
	}
	return pred.TR, nil
}
