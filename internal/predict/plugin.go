package predict

import (
	"math"
	"time"

	"fgcs/internal/avail"
	"fgcs/internal/trace"
)

// Plugin is the surface of the two shadow predictors, FFT (Spectral) and PCT
// (Percentile), which every QueryTR scores beside SMP's served answer: fit
// from recorded day history and predict the temporal reliability of one
// (start, length) window. A plugin's result is a pure function of (Days,
// Window) and the knobs cacheSalt folds, so the engine memoizes it (see
// Engine.PredictPluginCtx). It must also be deterministic — the same
// PluginInput always yields the same TR bit-for-bit, with no wall-clock
// reads, map-iteration dependence or unseeded randomness — because golden
// traces, the tracker's resolved claims and the fleetsim accuracy figures
// all hash or sum predictor output.
type Plugin interface {
	cacheable
	// Name is the stable identifier the accuracy tracker keys the
	// predictor's rows by, and part of its engine cache key.
	Name() string
	// PredictTR returns the predicted probability, in [0, 1], that the
	// machine stays available for guest execution throughout in.Window.
	PredictTR(in PluginInput) (float64, error)
}

// PluginInput is everything a shadow predictor may condition on. Days may be
// empty — a plugin must fail, not panic.
type PluginInput struct {
	// Days holds completed history days of the target day's type, oldest
	// first, immutable (the same contract as SMP.Predict).
	Days []*trace.Day
	// Window is the query window.
	Window Window
	// Period is the sampling period of Days. FFT and PCT read each day's
	// own period instead; no plugin reads this field.
	Period time.Duration
}

// cacheable is the half of Plugin the engine's cache key needs: cacheSalt
// must fold every knob that changes the output, so two configurations with
// different predictions never share an entry.
type cacheable interface {
	// cacheSalt digests the plugin's configuration for the cache key.
	cacheSalt() uint64
}

// configSalt starts a cacheSalt with the two settings every plugin shares:
// the availability model and the history bound. It is the one place the
// fields of avail.Config are folded; a plugin mixes its own knobs into the
// result.
func configSalt(cfg avail.Config, historyDays int) uint64 {
	h := uint64(fnvOffset64)
	h = mix64(h, math.Float64bits(cfg.Th1))
	h = mix64(h, math.Float64bits(cfg.Th2))
	h = mix64(h, uint64(cfg.SuspendLimit))
	h = mix64(h, math.Float64bits(cfg.GuestMemMB))
	return mix64(h, uint64(historyDays))
}

// RecentDays is the one HistoryDays cut: the most recent n days when n > 0,
// every day otherwise.
func RecentDays(days []*trace.Day, n int) []*trace.Day {
	if n > 0 && len(days) > n {
		return days[len(days)-n:]
	}
	return days
}
