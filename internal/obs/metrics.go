// Package obs is the runtime observability layer: a zero-dependency metrics
// registry (atomic counters, gauges and fixed-bucket histograms with
// mergeable snapshots) plus an online prediction-accuracy tracker that
// scores issued temporal-reliability predictions against the availability
// outcomes later observed by the monitor — the paper's Section 5 comparison
// of SMP against the linear predictors, maintained live while the system
// serves traffic instead of recomputed offline.
//
// Design constraints, in order:
//
//  1. Hot-path operations (Counter.Add, Gauge.Set, Histogram.Observe,
//     Tracker.Observe with no due predictions) allocate nothing and take no
//     locks beyond atomics, so instrumenting the prediction engine does not
//     undo its zero-alloc work.
//  2. Everything is registered up front; label sets are baked into the
//     metric identity at registration time so serving a sample never
//     formats a string.
//  3. A snapshot is a plain list of typed series (series.go) that merges by
//     addition, so per-node registries fold into fleet-level totals, and
//     one writer renders every /metrics page from it.
package obs

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// ------------------------------------------------------------- counter ----

// Counter is a monotonically increasing atomic counter. All methods are safe
// on a nil receiver (they no-op or return zero), so instrumentation points
// never need nil checks.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add increments the counter by n.
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value returns the current count.
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// --------------------------------------------------------------- gauge ----

// Gauge is an atomic float64 gauge (last value wins). Nil-safe like Counter.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores the value.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// value returns the stored value.
func (g *Gauge) value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// ----------------------------------------------------------- histogram ----

// Histogram counts observations into fixed upper-bound buckets (plus an
// implicit +Inf bucket) and tracks the running sum. Observe is lock-free and
// allocation-free; the bucket layout is fixed at construction. Nil-safe.
type Histogram struct {
	bounds []float64       // sorted upper bounds; +Inf bucket is implicit
	counts []atomic.Uint64 // len(bounds)+1
	sum    atomic.Uint64   // float64 bits, updated by CAS
	count  atomic.Uint64
}

// newHistogram builds a free-standing histogram (outside any registry) with
// the given sorted upper bounds.
func newHistogram(bounds []float64) *Histogram {
	b := make([]float64, len(bounds))
	copy(b, bounds)
	sort.Float64s(b)
	return &Histogram{bounds: b, counts: make([]atomic.Uint64, len(b)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	// Binary search for the first bound >= v; the histogram is small (tens
	// of buckets) so this is a handful of compares, no allocation.
	lo, hi := 0, len(h.bounds)
	for lo < hi {
		mid := (lo + hi) / 2
		if h.bounds[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	h.counts[lo].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		if h.sum.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// Snapshot captures a consistent-enough view (each field individually
// atomic; cross-field skew is bounded by in-flight Observes). Nil-safe.
func (h *Histogram) Snapshot() HistogramSnapshot {
	if h == nil {
		return HistogramSnapshot{}
	}
	s := HistogramSnapshot{
		Bounds: h.bounds, // immutable after construction, safe to share
		Counts: make([]uint64, len(h.counts)),
		Sum:    math.Float64frombits(h.sum.Load()),
		Count:  h.count.Load(),
	}
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
	}
	return s
}

// HistogramSnapshot is a point-in-time copy of a histogram, mergeable with
// snapshots of histograms that share the same bucket layout.
type HistogramSnapshot struct {
	Bounds []float64
	Counts []uint64 // len(Bounds)+1; last is the +Inf bucket
	Sum    float64
	Count  uint64
}

// Merge folds other into s. The bucket layouts must match.
func (s *HistogramSnapshot) Merge(other HistogramSnapshot) error {
	if !slices.Equal(s.Bounds, other.Bounds) {
		return fmt.Errorf("obs: merging histograms with different bucket layouts")
	}
	for i := range s.Counts {
		s.Counts[i] += other.Counts[i]
	}
	s.Sum += other.Sum
	s.Count += other.Count
	return nil
}

// quantile estimates the q-quantile (0..1) from the bucket counts by linear
// interpolation within the bucket; the +Inf bucket reports its lower bound.
func (s HistogramSnapshot) quantile(q float64) float64 {
	if s.Count == 0 {
		return 0
	}
	rank := q * float64(s.Count)
	var cum float64
	for i, c := range s.Counts {
		prev := cum
		cum += float64(c)
		if cum < rank || c == 0 {
			continue
		}
		lower := 0.0
		if i > 0 {
			lower = s.Bounds[i-1]
		}
		if i == len(s.Bounds) { // +Inf bucket
			return lower
		}
		upper := s.Bounds[i]
		frac := (rank - prev) / float64(c)
		if frac < 0 {
			frac = 0
		} else if frac > 1 {
			frac = 1
		}
		return lower + frac*(upper-lower)
	}
	if n := len(s.Bounds); n > 0 {
		return s.Bounds[n-1]
	}
	return 0
}

// latencyBuckets is the default latency bucket layout (seconds): log-spaced
// from 1 µs to 10 s, which brackets everything from a cache hit to a cold
// multi-day kernel estimation or a cross-continent RPC.
func latencyBuckets() []float64 {
	return []float64{
		1e-6, 2.5e-6, 5e-6,
		1e-5, 2.5e-5, 5e-5,
		1e-4, 2.5e-4, 5e-4,
		1e-3, 2.5e-3, 5e-3,
		1e-2, 2.5e-2, 5e-2,
		1e-1, 2.5e-1, 5e-1,
		1, 2.5, 5, 10,
	}
}

// ------------------------------------------------------------ registry ----

// metric is one registered instrument: a series identity and the instrument
// of its kind that holds the value.
type metric struct {
	name   string
	help   string
	labels []Label // sorted by key
	kind   Kind

	counter *Counter
	gauge   *Gauge
	hist    *Histogram
}

// Registry holds named metrics. Registration (Counter/Gauge/Histogram)
// allocates and takes a lock; it is meant for startup. The returned
// instruments are then used lock-free. Registering the same (name, labels)
// twice returns the original instrument, so independent components can share
// a series. A nil *Registry hands out free-standing instruments that count
// but appear in no snapshot.
type Registry struct {
	mu      sync.Mutex
	metrics []*metric // in Snapshot order
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry { return &Registry{} }

func (r *Registry) register(m *metric) *metric {
	byKey := func(a, b Label) int { return strings.Compare(a.Key, b.Key) }
	if !slices.IsSortedFunc(m.labels, byKey) {
		m.labels = slices.Clone(m.labels)
		slices.SortStableFunc(m.labels, byKey)
	}
	if r == nil {
		return m
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	i, ok := slices.BinarySearchFunc(r.metrics, m, func(e, m *metric) int {
		return compareKey(e.name, e.labels, m.name, m.labels)
	})
	if ok {
		return r.metrics[i]
	}
	r.metrics = slices.Insert(r.metrics, i, m)
	return m
}

// Counter registers (or returns the existing) counter.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	m := r.register(&metric{name: name, help: help, labels: labels, kind: KindCounter, counter: &Counter{}})
	return m.counter
}

// Gauge registers (or returns the existing) gauge.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	m := r.register(&metric{name: name, help: help, labels: labels, kind: KindGauge, gauge: &Gauge{}})
	return m.gauge
}

// Histogram registers (or returns the existing) histogram with the given
// bucket upper bounds (nil selects latencyBuckets).
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...Label) *Histogram {
	if bounds == nil {
		bounds = latencyBuckets()
	}
	m := r.register(&metric{name: name, help: help, labels: labels, kind: KindHistogram, hist: newHistogram(bounds)})
	return m.hist
}

// Snapshot captures every registered metric.
func (r *Registry) Snapshot() Snapshot {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	s := make(Snapshot, len(r.metrics))
	for i, m := range r.metrics {
		s[i] = Series{Name: m.name, Labels: m.labels, Kind: m.kind, Help: m.help,
			Count: m.counter.Value(), Value: m.gauge.value(), Hist: m.hist.Snapshot()}
	}
	return s
}
