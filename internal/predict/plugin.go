package predict

import (
	"fmt"
	"math"
	"sync"
	"time"

	"fgcs/internal/avail"
	"fgcs/internal/timeseries"
	"fgcs/internal/trace"
)

// Plugin is the uniform predictor surface every QueryTR evaluates and the
// accuracy tracker scores: fit from recorded day history and predict the
// temporal reliability of one (start, length) window. Implementations must
// be deterministic — the same PluginInput must always yield the same TR
// bit-for-bit, with no wall-clock reads, map-iteration dependence, or
// unseeded randomness — because golden traces, the tracker's resolved
// claims and the fleetsim accuracy figures all hash or sum predictor
// output. See docs/PREDICTORS.md for the authoring contract and a worked
// example.
type Plugin interface {
	// Name is the stable identifier used by the accuracy tracker,
	// query-stats output and the docs reference table.
	Name() string
	// PredictTR returns the predicted probability, in [0, 1], that the
	// machine stays available for guest execution throughout in.Window.
	PredictTR(in PluginInput) (float64, error)
}

// PluginInput is everything a predictor may condition on. Day-structured
// predictors (SMP, FFT, PCT) read Days; forecast-origin predictors (the
// linear baselines) read Prev, the live samples immediately preceding the
// window. Either slice may be empty — plugins must fail or degrade
// gracefully, not panic.
type PluginInput struct {
	// Days holds completed history days of the target day's type, oldest
	// first, immutable (the same contract as SMP.Predict).
	Days []*trace.Day
	// Prev holds today's samples for the window immediately preceding
	// Window (equal length, clipped at midnight), for predictors that
	// forecast from the live origin rather than from day structure. It may
	// be a buffer the caller reuses once PredictTR returns (see
	// Engine.PredictLive), so a plugin keeps nothing that aliases it.
	Prev []trace.Sample
	// Window is the query window.
	Window Window
	// Period is the sampling period of Prev (Days carry their own).
	Period time.Duration
	// State is the machine's current availability state when known
	// (HaveState true); predictors that condition on the initial state
	// fall back to the historical initial-state mix otherwise.
	State avail.State
	// HaveState reports whether State is meaningful.
	HaveState bool
}

// Cacheable marks plugins whose PredictTR is a pure function of (Days,
// Window) plus the plugin's own configuration — ignoring the request-scoped
// Prev and State fields entirely — so the engine may memoize their results in
// its LRU keyed by (history fingerprint, window, plugin name, CacheSalt).
// CacheSalt must fold every knob that changes the output; two configurations
// with different predictions must never share a salt.
type Cacheable interface {
	// CacheSalt digests the plugin's configuration for the cache key.
	CacheSalt() uint64
}

// configSalt starts a CacheSalt with the two settings every plugin shares (see
// PluginOptions). It is the one place the fields of avail.Config are folded;
// a plugin mixes its own knobs into the result.
func configSalt(cfg avail.Config, historyDays int) uint64 {
	h := uint64(fnvOffset64)
	h = mix64(h, math.Float64bits(cfg.Th1))
	h = mix64(h, math.Float64bits(cfg.Th2))
	h = mix64(h, uint64(cfg.SuspendLimit))
	h = mix64(h, math.Float64bits(cfg.GuestMemMB))
	return mix64(h, uint64(historyDays))
}

// Memoized states once which plugins the engine answers from its LRU: SMP
// (solved predictions) and every Cacheable plugin. PredictPluginCtx and
// PredictLive evaluate the rest afresh on each call — they may read the live
// PluginInput.Prev — so a caller that repeats a query between samples
// memoizes those itself.
func Memoized(pl Plugin) bool {
	switch pl.(type) {
	case SMP, Cacheable:
		return true
	}
	return false
}

// PluginOptions parameterizes plugin construction with the two settings
// every predictor shares; plugin-specific knobs keep their registered
// defaults (construct the concrete type directly to override them).
type PluginOptions struct {
	// Cfg is the availability-model configuration.
	Cfg avail.Config
	// HistoryDays bounds how many of the most recent days are used (zero
	// means all provided).
	HistoryDays int
}

// PluginFactory builds a configured plugin instance.
type PluginFactory func(opts PluginOptions) Plugin

var (
	pluginMu        sync.RWMutex
	pluginOrder     []string
	pluginFactories = map[string]PluginFactory{}
)

// RegisterPlugin adds a predictor factory under its stable name. Built-ins
// register from this package's init; external predictors register from their
// own. Re-registering a name panics — names are identity everywhere
// (tracker keys, engine cache keys, docs table), so a silent overwrite would
// corrupt scoring.
func RegisterPlugin(name string, f PluginFactory) {
	if name == "" || f == nil {
		panic("predict: RegisterPlugin with empty name or nil factory")
	}
	pluginMu.Lock()
	defer pluginMu.Unlock()
	if _, dup := pluginFactories[name]; dup {
		panic(fmt.Sprintf("predict: plugin %q registered twice", name))
	}
	pluginFactories[name] = f
	pluginOrder = append(pluginOrder, name)
}

// PluginNames returns the registered predictor names in registration order:
// the built-ins as this package's init registers them, then external
// predictors. The serving path evaluates and scores predictors in this
// order, so it is part of the deterministic transcript.
func PluginNames() []string {
	pluginMu.RLock()
	defer pluginMu.RUnlock()
	return append([]string(nil), pluginOrder...)
}

// NewPlugin constructs the named plugin, reporting false for unknown names.
func NewPlugin(name string, opts PluginOptions) (Plugin, bool) {
	pluginMu.RLock()
	f, ok := pluginFactories[name]
	pluginMu.RUnlock()
	if !ok {
		return nil, false
	}
	return f(opts), true
}

func init() {
	RegisterPlugin("SMP", func(opts PluginOptions) Plugin {
		return SMP{Cfg: opts.Cfg, HistoryDays: opts.HistoryDays}
	})
	for _, f := range timeseries.ReferenceSuite() {
		fitter := f
		RegisterPlugin(fitter.Name(), func(opts PluginOptions) Plugin {
			return TimeSeries{Cfg: opts.Cfg, Fitter: fitter}
		})
	}
	RegisterPlugin("FFT", func(opts PluginOptions) Plugin {
		s := DefaultSpectral()
		s.Cfg = opts.Cfg
		s.HistoryDays = opts.HistoryDays
		return s
	})
	RegisterPlugin("PCT", func(opts PluginOptions) Plugin {
		p := DefaultPercentile()
		p.Cfg = opts.Cfg
		p.HistoryDays = opts.HistoryDays
		return p
	})
}

// PredictTR implements Plugin. When the caller knows the current state (a
// live query) the prediction is conditioned on it; otherwise the historical
// initial-state mix weights the two recoverable starts, exactly as Predict.
func (p SMP) PredictTR(in PluginInput) (float64, error) {
	if in.HaveState && in.State.Recoverable() {
		return p.PredictFrom(in.Days, in.Window, in.State)
	}
	pred, err := p.Predict(in.Days, in.Window)
	if err != nil {
		return 0, err
	}
	return pred.TR, nil
}

// PredictTR implements Plugin over PredictWindow. The linear models classify
// a forecast trajectory into survive/fail, so the TR is binary {0, 1}.
func (t TimeSeries) PredictTR(in PluginInput) (float64, error) {
	return t.predictTR(&scratch{}, in)
}

// predictTR is PredictTR on sc's buffers (see predictWindow).
func (t TimeSeries) predictTR(sc *scratch, in PluginInput) (float64, error) {
	survives, err := t.predictWindow(sc, in.Prev, in.Window, in.Period)
	if err != nil {
		return 0, err
	}
	if survives {
		return 1, nil
	}
	return 0, nil
}

// RecentDays is the one HistoryDays cut: the most recent n days when n > 0,
// every day otherwise.
func RecentDays(days []*trace.Day, n int) []*trace.Day {
	if n > 0 && len(days) > n {
		return days[len(days)-n:]
	}
	return days
}
