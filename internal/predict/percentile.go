package predict

import (
	"fmt"
	"math"
	"sort"

	"fgcs/internal/avail"
)

// Percentile is the quantile predictor (crane's pkg/prediction/percentile
// shape): score each history day by the fraction of the query window it
// spent in a recoverable state, then report a chosen quantile of that
// per-day distribution as the TR. The median (the default) is robust to a
// single anomalous day; lower quantiles give a conservative estimate that
// tracks the machine's bad days.
type Percentile struct {
	// Cfg is the availability-model configuration used to classify the
	// history windows.
	Cfg avail.Config
	// HistoryDays bounds how many of the most recent days are scored
	// (zero means all provided).
	HistoryDays int
	// Quantile in (0, 1] selects which quantile of the per-day
	// availability distribution becomes the prediction: 0.5 is the
	// median, lower is more conservative. Lower interpolation (the floor
	// index of the sorted scores) keeps the result bit-exact.
	Quantile float64
	// MarginFraction shaves a safety margin off the final TR:
	// tr *= (1 - MarginFraction).
	MarginFraction float64
}

// DefaultPercentile returns the quantile predictor at the median with no
// margin.
func DefaultPercentile() Percentile {
	return Percentile{Cfg: avail.DefaultConfig(), Quantile: 0.5}
}

// Name implements Plugin.
func (Percentile) Name() string { return "PCT" }

// cacheSalt implements Plugin: Percentile is a pure function of (Days,
// Window, knobs), so the engine may memoize it.
func (p Percentile) cacheSalt() uint64 {
	h := configSalt(p.Cfg, p.HistoryDays)
	h = mix64(h, math.Float64bits(p.Quantile))
	h = mix64(h, math.Float64bits(p.MarginFraction))
	return h
}

// PredictTR implements Plugin.
func (p Percentile) PredictTR(in PluginInput) (float64, error) {
	return p.predictTR(&scratch{}, in)
}

// predictTR is PredictTR classifying into sc.states, which it may grow and
// leaves dirty; the result does not depend on what sc held.
func (p Percentile) predictTR(sc *scratch, in PluginInput) (float64, error) {
	w := in.Window
	if err := w.Validate(); err != nil {
		return 0, err
	}
	// cacheable contract: only Days, Window and the receiver's own knobs
	// may influence the result — the cache salt covers exactly the
	// receiver.
	cfg := p.Cfg
	if err := cfg.Validate(); err != nil {
		return 0, err
	}
	q := p.Quantile
	if q <= 0 || q > 1 {
		return 0, fmt.Errorf("predict: percentile: quantile %g outside (0, 1]", q)
	}
	days := RecentDays(in.Days, p.HistoryDays)
	if len(days) == 0 {
		return 0, fmt.Errorf("predict: percentile: no history days")
	}
	scores := make([]float64, 0, len(days))
	for _, d := range days {
		samples := d.Window(w.Start, w.Length)
		if len(samples) == 0 {
			continue
		}
		up := 0
		sc.states = avail.ClassifyInto(sc.states, samples, cfg, d.Period)
		for _, st := range sc.states {
			if st.Recoverable() {
				up++
			}
		}
		scores = append(scores, float64(up)/float64(len(sc.states)))
	}
	if len(scores) == 0 {
		return 0, fmt.Errorf("predict: percentile: no history windows overlap %v", w)
	}
	sort.Float64s(scores)
	tr := scores[int(q*float64(len(scores)-1))]
	tr *= 1 - p.MarginFraction
	if tr < 0 {
		tr = 0
	}
	if tr > 1 {
		tr = 1
	}
	return tr, nil
}
