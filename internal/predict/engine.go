package predict

import (
	"container/list"
	"context"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"fgcs/internal/avail"
	"fgcs/internal/obs"
	"fgcs/internal/otrace"
	"fgcs/internal/trace"
)

// Engine is the serving cache over the SMP predictor: it memoizes solved
// predictions in an LRU keyed by (history fingerprint, window, estimator
// configuration) and serves any number of concurrent PredictFromCtx queries
// against the cache. Cache misses run on scratch buffers from one
// process-wide free list shared by every engine, so once it holds buffers
// sized for the longest window a process asks for, extraction, estimation
// and the backward recursion allocate only the kernel's support, which the
// miss drops once it is solved.
//
// The LRU holds three kinds of entry under one key type: an SMP Prediction
// (its solved reliabilities and initial-state mix) per (pool, window,
// estimator configuration); a bare TR per (pool, window, plugin name, salt)
// for each shadow plugin; and, per (pool, "FFT", salt) with no
// window, the fitted spectrum that all of a pool's Spectral windows are
// evaluated from.
//
// Cache coherence rests on one rule: history days are immutable once handed
// to the engine. The fingerprint memoizes a per-*trace.Day content hash by
// pointer, so mutating a day in place after its first query yields stale
// results — clone days instead (everything in this repository already does:
// the recorder snapshots, noise injection clones). Appending a new day to a
// history slice changes the fingerprint and naturally invalidates all
// entries for the old day set — the "new day arrived" semantics a
// day-structured predictor wants.
type Engine struct {
	cacheSize int

	mu       sync.Mutex
	lru      *list.List // front = most recent; values are *engineEntry
	items    map[engineKey]*list.Element
	inflight map[engineKey]*inflightCall

	hits      atomic.Uint64
	misses    atomic.Uint64
	evictions atomic.Uint64

	metrics atomic.Pointer[EngineMetrics]

	hashMu    sync.RWMutex
	dayHashes map[*trace.Day]uint64
}

// scratches is the free list of every engine's per-query working memory. A
// scratch is per-goroutine state, not engine state: one list per process
// means N engines do not each grow their own horizon-sized buffers. Unlike a
// sync.Pool it keeps them across collections, at most GOMAXPROCS of them.
var scratches = make(chan *scratch, runtime.GOMAXPROCS(0))

func getScratch() *scratch {
	select {
	case sc := <-scratches:
		return sc
	default:
		return &scratch{}
	}
}

func putScratch(sc *scratch) {
	select {
	case scratches <- sc:
	default:
	}
}

// EngineConfig tunes an Engine.
type EngineConfig struct {
	// CacheSize bounds the number of cached entries. Zero selects the
	// default (256); a negative value disables caching entirely (every
	// query recomputes — useful for benchmarking the cold path).
	CacheSize int
}

// defaultCacheSize is the cache capacity used when EngineConfig
// leaves CacheSize zero.
const defaultCacheSize = 256

// maxDayHashes bounds the per-day content-hash memo; when exceeded the memo
// is dropped and rebuilt on demand (hashing is cheap relative to
// estimation, the memo only amortizes it).
const maxDayHashes = 16384

// NewEngine builds an engine.
func NewEngine(cfg EngineConfig) *Engine {
	size := cfg.CacheSize
	if size == 0 {
		size = defaultCacheSize
	}
	return &Engine{
		cacheSize: size,
		lru:       list.New(),
		items:     make(map[engineKey]*list.Element),
		inflight:  make(map[engineKey]*inflightCall),
		dayHashes: make(map[*trace.Day]uint64),
	}
}

// engineKey identifies one cached result: the fingerprint of the day pool,
// the query window, and the predictor identity — the full SMP estimator
// configuration on the kernel path, or the plugin's name plus its
// configuration salt on the plugin path (see cacheable). The plugin
// name is always part of the key, so two predictors can never share an
// entry: the tracker never scores one predictor's fitted result as
// another's. SMP and Window are comparable value types, so the key works
// directly as a map key.
type engineKey struct {
	fp     uint64
	window Window
	pred   SMP
	plugin string
	salt   uint64
}

// engineEntry is one cached result: the answer, not what it was computed
// from. An SMP entry is its solved Prediction (the per-initial-state
// reliabilities and the empirical initial-state distribution), so hits touch
// no predictor code at all; its kernel is dropped once solved.
type engineEntry struct {
	key  engineKey
	pred Prediction // fully populated: TR, TRByInit, InitProb, HistoryWindows
	// spectrum is set instead on a Spectral fit entry (see Engine.spectrum).
	spectrum *spectrum
}

type inflightCall struct {
	done  chan struct{}
	entry *engineEntry
	err   error
}

// EngineStats reports cache effectiveness counters.
type EngineStats struct {
	// Hits counts queries served from the cache, including queries that
	// piggybacked on another goroutine's in-flight estimation.
	Hits uint64
	// Misses counts queries that ran the full extract/estimate/solve
	// pipeline.
	Misses uint64
	// Evictions counts cache entries displaced by the LRU policy.
	Evictions uint64
	// Entries is the current number of cached entries: solved SMP
	// predictions, plugin TRs and fitted spectra.
	Entries int
}

// EngineMetrics is the engine's observability surface: cache-effectiveness
// counters plus fit and solve latency histograms. All instruments are
// nil-safe, so a zero EngineMetrics records nothing; the counters mirror the
// engine's internal Stats counters so an externally scraped registry and the
// QueryTR response always agree.
type EngineMetrics struct {
	Hits      *obs.Counter
	Misses    *obs.Counter
	Evictions *obs.Counter
	// Entries tracks the current number of cached entries (see
	// EngineStats.Entries).
	Entries *obs.Gauge
	// FitSeconds observes the latency of the extract/estimate/solve
	// pipeline on a cache miss; SolveSeconds the Equation (3) backward
	// recursion alone (a sub-span of FitSeconds).
	FitSeconds   *obs.Histogram
	SolveSeconds *obs.Histogram
}

// NewEngineMetrics registers the engine metric family on a registry.
func NewEngineMetrics(r *obs.Registry) *EngineMetrics {
	return &EngineMetrics{
		Hits:         r.Counter("fgcs_engine_cache_hits_total", "Queries served from the kernel cache (including coalesced in-flight waits)."),
		Misses:       r.Counter("fgcs_engine_cache_misses_total", "Queries that ran the full extract/estimate/solve pipeline."),
		Evictions:    r.Counter("fgcs_engine_cache_evictions_total", "Cache entries displaced by the LRU policy."),
		Entries:      r.Gauge("fgcs_engine_cache_entries", "Cached kernels currently held."),
		FitSeconds:   r.Histogram("fgcs_engine_fit_seconds", "Cold-path latency: extraction, estimation and solve.", nil),
		SolveSeconds: r.Histogram("fgcs_engine_solve_seconds", "Equation (3) reliability solve latency.", nil),
	}
}

// SetMetrics attaches (or replaces) the engine's metrics. Safe to call
// concurrently with queries; pass nil to detach.
func (e *Engine) SetMetrics(m *EngineMetrics) { e.metrics.Store(m) }

// Stats returns a snapshot of the cache counters.
func (e *Engine) Stats() EngineStats {
	e.mu.Lock()
	entries := len(e.items)
	e.mu.Unlock()
	return EngineStats{
		Hits:      e.hits.Load(),
		Misses:    e.misses.Load(),
		Evictions: e.evictions.Load(),
		Entries:   entries,
	}
}

// PredictFromCtx is TR for a job starting in the given (recoverable) current
// state: SMP.Predict's TRByInit entry for init, bit-identical, through the
// cache. Repeated queries for the same (history, window, config) reuse the
// solved prediction, whatever their initial state, instead of re-running
// extraction, estimation and the Equation (3) recursion. When ctx carries a
// sampled span, the lookup marks a cache-hit or cache-miss event on it and a
// miss records engine.fit/engine.solve child spans. With an untraced context
// the instrumentation is two pointer reads — the cached warm path stays at 0
// allocs/op.
func (e *Engine) PredictFromCtx(ctx context.Context, p SMP, history []*trace.Day, w Window, init avail.State) (float64, error) {
	entry, err := e.lookup(ctx, p, history, w)
	if err != nil {
		return 0, err
	}
	return entry.pred.from(init)
}

// lookup resolves an SMP query to its prediction entry. The HistoryDays
// truncation is folded into the fingerprint, so the key carries the
// normalized configuration.
func (e *Engine) lookup(ctx context.Context, p SMP, history []*trace.Day, w Window) (*engineEntry, error) {
	days := RecentDays(history, p.HistoryDays)
	norm := p
	norm.HistoryDays = 0
	key := engineKey{fp: e.fingerprint(days), window: w, pred: norm, plugin: "SMP"}
	return e.memo(ctx, key, func(span *otrace.Span, m *EngineMetrics) (*engineEntry, error) {
		return e.compute(span, m, norm, days, w)
	})
}

// memoOutcome says how resolve produced its entry.
type memoOutcome int

const (
	memoHit    memoOutcome = iota // found in the LRU
	memoWaited                    // served by another goroutine's in-flight fit
	memoFitted                    // this call ran fit
)

// resolve returns the entry cached under key, running fit and caching its
// result when there is none. Concurrent calls for one uncached key are
// coalesced: one goroutine fits, the rest wait and share the result. Errors
// are never cached. With caching disabled every call fits.
func (e *Engine) resolve(key engineKey, fit func() (*engineEntry, error)) (*engineEntry, memoOutcome, error) {
	if e.cacheSize < 0 {
		entry, err := fit()
		return entry, memoFitted, err
	}
	e.mu.Lock()
	if el, ok := e.items[key]; ok {
		e.lru.MoveToFront(el)
		entry := el.Value.(*engineEntry)
		e.mu.Unlock()
		return entry, memoHit, nil
	}
	if call, ok := e.inflight[key]; ok {
		e.mu.Unlock()
		<-call.done
		return call.entry, memoWaited, call.err
	}
	call := &inflightCall{done: make(chan struct{})}
	e.inflight[key] = call
	e.mu.Unlock()

	entry, err := fit()
	call.entry, call.err = entry, err

	e.mu.Lock()
	delete(e.inflight, key)
	if err == nil {
		entry.key = key
		e.items[key] = e.lru.PushFront(entry)
		m := e.metrics.Load()
		for len(e.items) > e.cacheSize {
			oldest := e.lru.Back()
			e.lru.Remove(oldest)
			delete(e.items, oldest.Value.(*engineEntry).key)
			e.evictions.Add(1)
			if m != nil {
				m.Evictions.Inc()
			}
		}
		if m != nil {
			m.Entries.Set(float64(len(e.items)))
		}
	}
	e.mu.Unlock()
	close(call.done)
	return entry, memoFitted, err
}

// memo resolves a query's (pool, window, predictor) key and accounts for the
// outcome: Stats and EngineMetrics count a miss when this call ran fit and a
// hit when the entry was cached or another goroutine's in-flight fit served
// it (it did not pay for the fit). The span in ctx (if any) gets a cache-hit
// or cache-miss event; the unsampled path adds no allocations.
func (e *Engine) memo(ctx context.Context, key engineKey, fit func(*otrace.Span, *EngineMetrics) (*engineEntry, error)) (*engineEntry, error) {
	span := otrace.FromContext(ctx)
	m := e.metrics.Load()
	entry, how, err := e.resolve(key, func() (*engineEntry, error) {
		e.misses.Add(1)
		if m != nil {
			m.Misses.Inc()
		}
		span.AddEvent("cache-miss")
		return fit(span, m)
	})
	if err != nil || how == memoFitted {
		return entry, err
	}
	e.hits.Add(1)
	if m != nil {
		m.Hits.Inc()
	}
	if how == memoWaited {
		span.AddEvent("cache-hit", otrace.String("via", "inflight"))
	} else {
		span.AddEvent("cache-hit")
	}
	return entry, nil
}

// PredictPluginCtx evaluates a shadow predictor through the engine. Its TR
// is cached under (history fingerprint, window, plugin name, configuration
// salt) — the plugin identity in the key guarantees predictors never
// cross-serve — and Spectral additionally shares its fitted spectrum between
// the windows of one day pool (see spectrum).
func (e *Engine) PredictPluginCtx(ctx context.Context, pl Plugin, in PluginInput) (float64, error) {
	key := engineKey{fp: e.fingerprint(in.Days), window: in.Window, plugin: pl.Name(), salt: pl.cacheSalt()}
	entry, err := e.memo(ctx, key, func(span *otrace.Span, _ *EngineMetrics) (*engineEntry, error) {
		var tr float64
		var err error
		switch p := pl.(type) {
		case Spectral:
			tr, err = p.predictTR(in, func(days []*trace.Day) (*spectrum, error) {
				return e.spectrum(span, p, key, days)
			})
		case Percentile:
			sc := getScratch()
			tr, err = p.predictTR(sc, in)
			putScratch(sc)
		default:
			tr, err = pl.PredictTR(in)
		}
		if err != nil {
			return nil, err
		}
		return &engineEntry{pred: Prediction{TR: tr}}, nil
	})
	if err != nil {
		return 0, err
	}
	return entry.pred.TR, nil
}

// spectrum is Spectral.fit through the cache: the fit reads the day pool and
// the knobs but not the window, so it is held under the query's key with the
// window zeroed (no valid window is zero) and every cold window of one pool
// evaluates the same fitted spectrum instead of transforming the history
// again. A new sealed day changes the fingerprint and refits. The lookup is
// not a query outcome, so it counts into neither Hits nor Misses; a sampled
// span shows it as a spectrum-fit or spectrum-hit event next to the window's
// cache-miss.
func (e *Engine) spectrum(span *otrace.Span, s Spectral, key engineKey, days []*trace.Day) (*spectrum, error) {
	key.window = Window{}
	entry, how, err := e.resolve(key, func() (*engineEntry, error) {
		span.AddEvent("spectrum-fit", otrace.Int("history-days", len(days)))
		sc := getScratch()
		sp, err := s.fit(sc, days)
		putScratch(sc)
		if err != nil {
			return nil, err
		}
		return &engineEntry{spectrum: sp}, nil
	})
	if err != nil {
		return nil, err
	}
	if how != memoFitted {
		span.AddEvent("spectrum-hit")
	}
	return entry.spectrum, nil
}

// compute runs the full prediction pipeline on pooled scratch buffers. The
// metrics pointer is threaded in from memo so the cold path is timed only
// when someone is watching; a sampled span gets engine.fit/engine.solve
// child spans covering the same intervals the histograms observe.
func (e *Engine) compute(span *otrace.Span, m *EngineMetrics, p SMP, days []*trace.Day, w Window) (*engineEntry, error) {
	sc := getScratch()
	defer putScratch(sc)
	fitSpan := span.StartChild("engine.fit")
	if fitSpan != nil {
		fitSpan.SetAttr(otrace.Int("history-days", len(days)))
	}
	var fitStart time.Time
	if m != nil {
		fitStart = time.Now()
	}
	kernel, pred, units, err := p.prepare(sc, days, w)
	if err != nil {
		fitSpan.SetError(err)
		fitSpan.End()
		return nil, err
	}
	solveSpan := fitSpan.StartChild("engine.solve")
	var solveStart time.Time
	if m != nil {
		solveStart = time.Now()
	}
	pred, err = pred.solve(sc, kernel, units)
	if m != nil {
		now := time.Now()
		m.SolveSeconds.Observe(now.Sub(solveStart).Seconds())
		m.FitSeconds.Observe(now.Sub(fitStart).Seconds())
	}
	solveSpan.SetError(err)
	solveSpan.End()
	fitSpan.SetError(err)
	fitSpan.End()
	if err != nil {
		return nil, err
	}
	return &engineEntry{pred: pred}, nil
}

// fingerprint hashes the identity and content of a day pool. Per-day content
// hashes are memoized by pointer (days are immutable, see the Engine doc);
// the combined fingerprint additionally mixes each day's date, period and
// length, so replacing a day with a same-content clone still hits while any
// change to the pool's composition misses.
func (e *Engine) fingerprint(days []*trace.Day) uint64 {
	h := uint64(fnvOffset64)
	h = mix64(h, uint64(len(days)))
	for _, d := range days {
		h = mix64(h, uint64(d.Date.Unix()))
		h = mix64(h, uint64(d.Period))
		h = mix64(h, uint64(len(d.Samples)))
		h = mix64(h, e.dayHash(d))
	}
	return h
}

func (e *Engine) dayHash(d *trace.Day) uint64 {
	e.hashMu.RLock()
	h, ok := e.dayHashes[d]
	e.hashMu.RUnlock()
	if ok {
		return h
	}
	h = hashSamples(d.Samples)
	e.hashMu.Lock()
	if len(e.dayHashes) >= maxDayHashes {
		e.dayHashes = make(map[*trace.Day]uint64)
	}
	e.dayHashes[d] = h
	e.hashMu.Unlock()
	return h
}

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// mix64 folds one 64-bit word into an FNV-1a style running hash.
func mix64(h, v uint64) uint64 {
	return (h ^ v) * fnvPrime64
}

// hashSamples digests a day's sample content word-wise.
func hashSamples(samples []trace.Sample) uint64 {
	h := uint64(fnvOffset64)
	for i := range samples {
		s := &samples[i]
		h = mix64(h, math.Float64bits(s.CPU))
		h = mix64(h, math.Float64bits(s.FreeMemMB))
		if s.Up {
			h = mix64(h, 1)
		} else {
			h = mix64(h, 2)
		}
	}
	return h
}
