package predict

import (
	"fmt"
	"sort"

	"fgcs/internal/rng"
	"fgcs/internal/trace"
)

// Interval is a two-sided confidence interval for a predicted TR.
type Interval struct {
	// TR is the point prediction on the full history.
	TR float64
	// Lo and Hi bound the central confidence region.
	Lo, Hi float64
	// Level is the nominal coverage (e.g. 0.90).
	Level float64
	// Resamples is the bootstrap replication count used.
	Resamples int
}

// PredictCI augments Predict with a nonparametric bootstrap confidence
// interval: history days are resampled with replacement B times, the SMP is
// re-estimated and re-solved on each replicate, and the interval is read off
// the empirical quantiles of the replicated TRs. This quantifies how much of
// a prediction rests on a handful of observed failures — the uncertainty
// the semi-Markov reward work cited by the paper struggled with ("wide
// confidence intervals") but never propagated to its users.
//
// Cost: B full predictions; keep B modest (50-200) for long windows, whose
// Equation (3) solve is quadratic in the window length.
func (p SMP) PredictCI(history []*trace.Day, w Window, level float64, resamples int, seed uint64) (Interval, error) {
	if level <= 0 || level >= 1 {
		return Interval{}, fmt.Errorf("predict: confidence level %v outside (0,1)", level)
	}
	if resamples < 10 {
		return Interval{}, fmt.Errorf("predict: need at least 10 bootstrap resamples")
	}
	point, err := p.Predict(history, w)
	if err != nil {
		return Interval{}, err
	}
	// Resample over the effective day pool (what the estimator would use).
	days := history
	if p.HistoryDays > 0 && len(days) > p.HistoryDays {
		days = days[len(days)-p.HistoryDays:]
	}
	r := rng.New(seed)
	trs := make([]float64, 0, resamples)
	resampled := make([]*trace.Day, len(days))
	for b := 0; b < resamples; b++ {
		for i := range resampled {
			resampled[i] = days[r.Intn(len(days))]
		}
		// Resampling breaks chronological order; bypass HistoryDays
		// truncation by predicting on exactly this pool.
		pb := p
		pb.HistoryDays = 0
		pred, err := pb.Predict(resampled, w)
		if err != nil {
			return Interval{}, err
		}
		trs = append(trs, pred.TR)
	}
	sort.Float64s(trs)
	alpha := (1 - level) / 2
	last := len(trs) - 1
	lo := trs[min(max(int(alpha*float64(len(trs))), 0), last)]
	hi := trs[min(max(int((1-alpha)*float64(len(trs)))-1, 0), last)]
	if lo > point.TR {
		lo = point.TR
	}
	if hi < point.TR {
		hi = point.TR
	}
	return Interval{TR: point.TR, Lo: lo, Hi: hi, Level: level, Resamples: resamples}, nil
}
