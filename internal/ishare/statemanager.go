package ishare

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"fgcs/internal/avail"
	"fgcs/internal/monitor"
	"fgcs/internal/otrace"
	"fgcs/internal/predict"
	"fgcs/internal/simclock"
	"fgcs/internal/trace"
)

// StateManager stores history logs and predicts resource availability
// (Figure 2). It receives every monitor sample, maintains the machine's
// current availability state, and answers temporal-reliability queries from
// the gateway with SMP, the paper's estimator. Each query also evaluates two
// fixed shadow predictors, FFT and PCT, and the accuracy tracker scores all
// three.
//
// Queries run through a prediction engine that memoizes solved predictions,
// so repeated or concurrent QueryTR calls for the same clock window reuse one
// estimation. The engine's cache keys include a content fingerprint of the
// history days; the manager therefore maintains a stable snapshot of the
// completed (pre-today) days — rebuilt only when the recorder rolls over to
// a new day — so the same *trace.Day pointers are presented to the engine
// across queries and its per-day hash memoization pays off.
type StateManager struct {
	mu        sync.Mutex
	machineID string
	cfg       avail.Config
	period    time.Duration
	clock     simclock.Clock
	recorder  *monitor.Recorder
	preloaded *trace.Machine // history from previous runs (may be nil)
	recent    []trace.Sample // ring of recent samples for current-state tracking
	recentCap int
	// historyDays bounds every predictor's day pool (0 = all).
	historyDays int
	// shadows are FFT and PCT built for cfg, in the order QueryTR scores
	// them after SMP.
	shadows  []predict.Plugin
	engine   *predict.Engine
	obsv     *NodeObs
	stateBuf []avail.State // scratch for per-sample classification (under mu)
	curState avail.State   // last classified state, valid when recent is non-empty (under mu)

	histMu    sync.Mutex
	histDays  []*trace.Day // completed days, stable across queries
	histTyped []*trace.Day // histDays restricted to today's day type
	histLive  int          // recorder day count the snapshot was built from
	histToday int64        // unix midnight the snapshot was filtered against
}

// NewStateManager creates a state manager for one machine. preloaded may
// carry history recorded by previous runs (loaded from a trace file); it may
// be nil. historyDays bounds the SMP estimator's day pool (0 = all). A node
// is built with NewHostNode; this constructor serves tests and bench.
func NewStateManager(machineID string, period time.Duration, cfg avail.Config, clock simclock.Clock, preloaded *trace.Machine, historyDays int) (*StateManager, error) {
	return NewStateManagerShared(machineID, period, cfg, clock, preloaded, historyDays, SharedDeps{})
}

// SharedDeps carries the heavyweight per-node dependencies a caller may
// share across many StateManagers. A production host node owns one of each,
// but a fleet simulation hosting 100k machines in one process cannot afford
// a full metric registry (~50 instrument families) and a prediction-kernel
// cache per machine: shared, the observability bundle amortizes to nothing
// and the engine turns machines with identical history into cache hits
// (its keys fingerprint history content, not machine identity). Zero-value
// fields fall back to per-manager instances.
//
// Sharing is visible in two places: the accuracy tracker scores every
// sharing machine into one table (QueryStats on any of them reports all),
// and a shared Engine's metrics are the caller's to wire.
type SharedDeps struct {
	// Obs is the observability bundle to record into (nil = own bundle).
	Obs *NodeObs
	// Engine is the prediction engine to query through (nil = own engine,
	// wired to the bundle's engine metrics).
	Engine *predict.Engine
}

// NewStateManagerShared is NewStateManager with injected shared
// dependencies; see SharedDeps.
func NewStateManagerShared(machineID string, period time.Duration, cfg avail.Config, clock simclock.Clock, preloaded *trace.Machine, historyDays int, deps SharedDeps) (*StateManager, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if period <= 0 {
		return nil, fmt.Errorf("ishare: non-positive period")
	}
	if clock == nil {
		clock = simclock.Real{}
	}
	if preloaded != nil && preloaded.Period != period {
		return nil, fmt.Errorf("ishare: preloaded history period %v != %v", preloaded.Period, period)
	}
	obsv := deps.Obs
	if obsv == nil {
		obsv = NewNodeObs()
	}
	recentCap := int(cfg.SuspendLimit/period) + 4
	sm := &StateManager{
		machineID:   machineID,
		cfg:         cfg,
		period:      period,
		clock:       clock,
		recorder:    monitor.NewRecorder(machineID, period, 0),
		preloaded:   preloaded,
		recentCap:   recentCap,
		historyDays: historyDays,
		engine:      deps.Engine,
		obsv:        obsv,
		stateBuf:    make([]avail.State, 0, recentCap),
		shadows:     shadowsFor(cfg, historyDays),
	}
	if sm.engine == nil {
		sm.engine = predict.NewEngine(predict.EngineConfig{})
		sm.engine.SetMetrics(obsv.Engine)
	}
	return sm, nil
}

// servingPredictor is the paper's estimator: it answers every query, and it
// is the only predictor whose failure fails the query.
const servingPredictor = "SMP"

// shadowsFor builds the shadow predictors for cfg: FFT and PCT at their
// default knobs, over the manager's history bound.
func shadowsFor(cfg avail.Config, historyDays int) []predict.Plugin {
	fft, pct := predict.DefaultSpectral(), predict.DefaultPercentile()
	fft.Cfg, fft.HistoryDays = cfg, historyDays
	pct.Cfg, pct.HistoryDays = cfg, historyDays
	return []predict.Plugin{fft, pct}
}

// EngineStats reports the prediction engine's cache counters.
func (sm *StateManager) EngineStats() predict.EngineStats { return sm.engine.Stats() }

// Record implements monitor.Sink: it archives the sample, refreshes the
// current-state estimate, and feeds the availability outcome to the accuracy
// tracker so pending TR predictions whose windows cover this instant are
// scored. The classification reuses a scratch buffer, so the per-sample path
// does not allocate at steady state.
func (sm *StateManager) Record(t time.Time, s trace.Sample) {
	sm.recorder.Record(t, s)
	up := sm.pushRecent(s)
	sm.obsv.Monitor.Samples.Inc()
	sm.obsv.Tracker.Observe(sm.machineID, t, up)
}

// pushRecent appends samples to the recent ring, trims it to recentCap,
// re-classifies it and refreshes the current state; it reports whether the
// machine is now in a recoverable state (true while the ring is empty).
func (sm *StateManager) pushRecent(samples ...trace.Sample) bool {
	sm.mu.Lock()
	sm.recent = append(sm.recent, samples...)
	if over := len(sm.recent) - sm.recentCap; over > 0 {
		// Shift down in place: reslicing forward would give up a slot of
		// capacity per sample and reallocate the ring every few samples.
		sm.recent = sm.recent[:copy(sm.recent, sm.recent[over:])]
	}
	sm.stateBuf = avail.ClassifyInto(sm.stateBuf, sm.recent, sm.cfg, sm.period)
	up := true
	if n := len(sm.stateBuf); n > 0 {
		sm.curState = sm.stateBuf[n-1]
		up = sm.curState.Recoverable()
	}
	sm.mu.Unlock()
	return up
}

// restoreSample is the WAL-replay twin of Record: it applies one recovered
// sample through the identical archival and classification path but skips
// the observability side effects — the sample counter counts only what this
// process ingested live, and the accuracy tracker's pending predictions are
// not persisted, so replay has nothing to resolve. Because the live path
// quantizes samples at ingest (see Persister), replaying the WAL rebuilds
// recorder, recent ring and current state bit-identically.
func (sm *StateManager) restoreSample(t time.Time, s trace.Sample) {
	sm.recorder.Record(t, s)
	sm.pushRecent(s)
}

// viewHistory reads the state a durable snapshot must carry to rebuild this
// manager: fn sees the recorded log and the last-sample timestamp in place,
// under the recorder's lock (monitor.Recorder.View: fn retains nothing); the
// recent ring is copied once fn has returned. The ring differs from the log
// tail — gap back-fill writes down samples into the log that never enter it.
func (sm *StateManager) viewHistory(fn func(m *trace.Machine, last time.Time)) []trace.Sample {
	sm.recorder.View(fn)
	sm.mu.Lock()
	defer sm.mu.Unlock()
	return append([]trace.Sample(nil), sm.recent...)
}

// RestoreHistory installs recovered snapshot state: the recorded log, the
// last-sample timestamp and the recent ring. The current availability state
// is re-derived from the ring rather than persisted. Call before samples
// flow; WAL-tail samples are then replayed through restoreSample on top.
func (sm *StateManager) RestoreHistory(m *trace.Machine, last time.Time, recent []trace.Sample) error {
	if err := sm.recorder.Restore(m, last); err != nil {
		return err
	}
	sm.mu.Lock()
	sm.recent = sm.recent[:0]
	sm.mu.Unlock()
	sm.pushRecent(recent...)
	return nil
}

// CurrentState classifies the machine's present availability state from the
// recent sample window.
func (sm *StateManager) CurrentState() avail.State {
	sm.mu.Lock()
	defer sm.mu.Unlock()
	if len(sm.recent) == 0 {
		return avail.S1
	}
	// The recent ring only changes in Record, which classifies it as it
	// lands — the query path rides that result instead of re-classifying.
	return sm.curState
}

// history returns the full day history available for prediction: the
// preloaded and the live-recorded days, merged chronologically with live data
// winning on overlap. Every day but the last recorded one is shared, not
// copied (monitor.Recorder.History).
func (sm *StateManager) history() []*trace.Day {
	var pre []*trace.Day
	if sm.preloaded != nil {
		pre = sm.preloaded.Days
	}
	return mergeDays(pre, sm.recorder.History())
}

// mergeDays merges two date-ordered day lists into one. A date both lists
// hold (a node restarted over a data dir with its own archive as preloaded
// history) is taken from live only: pooled twice, the day would count double
// in every estimate and halve the distinct days a history bound admits.
func mergeDays(pre, live []*trace.Day) []*trace.Day {
	out := make([]*trace.Day, 0, len(pre)+len(live))
	for _, d := range live {
		for len(pre) > 0 && pre[0].Date.Before(d.Date) {
			out = append(out, pre[0])
			pre = pre[1:]
		}
		if len(pre) > 0 && pre[0].Date.Equal(d.Date) {
			pre = pre[1:]
		}
		out = append(out, d)
	}
	return append(out, pre...)
}

// completedDays returns the history days strictly before today, from a
// cached view that is rebuilt only when the recorder rolls into a new day
// (or the query date changes). The live days come from the recorder's
// sealed DaysBefore view — stable pointers, no deep clone — so the
// prediction engine serves repeated queries from its kernel cache without
// rehashing the history, and a day rollover costs one slice rebuild
// instead of a full-history copy; the rebuild on day rollover is exactly
// the engine's invalidation-on-new-day moment.
// The second return value is histDays restricted to days of the same type
// (weekday/weekend) as today — the pool the day-structured estimator pools
// over — cached on the same terms so the hot query path does no per-day
// date arithmetic at all.
func (sm *StateManager) completedDays(today time.Time) ([]*trace.Day, []*trace.Day) {
	sm.histMu.Lock()
	defer sm.histMu.Unlock()
	live := sm.recorder.Days()
	if sm.histDays != nil && live == sm.histLive && today.Unix() == sm.histToday {
		return sm.histDays, sm.histTyped
	}
	// Rebuild from sealed live days (stable pointers, no clone — the
	// Snapshot deep copy here was a full-history copy per machine per
	// rollover, the dominant rollover stall at fleet scale) merged with the
	// preloaded days, both cut to strictly before today.
	var pre []*trace.Day
	if sm.preloaded != nil {
		pre = sm.preloaded.Days
		pre = pre[:sort.Search(len(pre), func(i int) bool { return !pre[i].Date.Before(today) })]
	}
	kept := mergeDays(pre, sm.recorder.DaysBefore(today))
	tt := trace.TypeOfDate(today)
	typed := make([]*trace.Day, 0, len(kept))
	for _, d := range kept {
		if d.Type() == tt {
			typed = append(typed, d)
		}
	}
	sm.histDays = kept
	sm.histTyped = typed
	sm.histLive = live
	sm.histToday = today.Unix()
	return sm.histDays, sm.histTyped
}

// Archive persists the full history (preloaded + live-recorded days, merged
// chronologically with live data winning on overlap) to a trace file; the
// extension selects the codec (".gz" recommended for long-running nodes).
// A node restarted with the archive as its Preloaded history resumes with
// everything it ever learned.
func (sm *StateManager) Archive(path string) error {
	merged := trace.NewMachine(sm.machineID, sm.period)
	for _, d := range sm.history() {
		if err := merged.AddDay(d); err != nil {
			return err
		}
	}
	return trace.SaveFile(path, &trace.Dataset{Machines: []*trace.Machine{merged}})
}

// QueryTR predicts the probability that this machine stays available for a
// guest job of the given length and memory footprint starting now. Under a
// sampled trace the query runs in a "state.query-tr" span; the prediction
// engine marks cache hits and misses on it, and for an FFT miss whether the
// spectrum was fitted or reused.
func (sm *StateManager) QueryTR(ctx context.Context, req QueryTRReq) (QueryTRResp, error) {
	if req.LengthSeconds <= 0 {
		return QueryTRResp{}, fmt.Errorf("ishare: non-positive job length")
	}
	ctx, span := otrace.StartSpan(ctx, "state.query-tr")
	defer span.End()
	now := sm.clock.Now()
	cur := sm.CurrentState()
	if !cur.Recoverable() {
		span.AddEvent("unrecoverable-state", otrace.String("state", cur.String()))
		return QueryTRResp{TR: 0, CurrentState: cur.String()}, nil
	}
	midnight, w := predict.WindowAt(now, time.Duration(req.LengthSeconds*float64(time.Second)), sm.period)

	cfg, shadows := sm.cfg, sm.shadows
	if req.GuestMemMB > 0 && req.GuestMemMB != cfg.GuestMemMB {
		cfg.GuestMemMB = req.GuestMemMB
		shadows = shadowsFor(cfg, sm.historyDays)
	}
	// History: same-type days strictly before today, drawn from the stable
	// snapshot so the engine can recognize repeated queries.
	_, days := sm.completedDays(midnight)
	resp := QueryTRResp{HistoryWindows: len(days), CurrentState: cur.String()}
	if len(days) == 0 {
		// No history yet: report optimistic full availability; the
		// scheduler treats all such machines equally, and the shadows have
		// nothing to fit.
		span.AddEvent("no-history")
		resp.TR, shadows = 1, nil
	} else {
		tr, err := sm.engine.PredictFromCtx(ctx, predict.SMP{Cfg: cfg, HistoryDays: sm.historyDays}, days, w, cur)
		if err != nil {
			span.SetError(err)
			return QueryTRResp{}, err
		}
		resp.TR = tr
	}

	// Register every prediction with the accuracy tracker — the paper's
	// Section 5 comparison, scored online as each window's outcome is
	// observed by the monitor. A shadow's error only costs it this query's
	// score.
	issued := midnight.Add(w.Start)
	sm.obsv.Tracker.RecordPrediction(sm.machineID, servingPredictor, resp.TR, issued, w.Length)
	in := predict.PluginInput{Days: days, Window: w, Period: sm.period}
	for _, pl := range shadows {
		if tr, err := sm.engine.PredictPluginCtx(ctx, pl, in); err == nil {
			sm.obsv.Tracker.RecordPrediction(sm.machineID, pl.Name(), tr, issued, w.Length)
		}
	}
	st := sm.engine.Stats()
	resp.CacheHits, resp.CacheMisses = st.Hits, st.Misses
	return resp, nil
}
