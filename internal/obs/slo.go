package obs

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Serving-path SLOs, evaluated the SRE way: an error budget with
// multi-window burn rates. A burn rate of 1 means the service is consuming
// its error budget exactly as fast as the budget allows; the fast-burn page
// fires only when BOTH the short (default 5m) and long (default 1h) windows
// exceed the threshold, so a single bad scrape cannot page but a sustained
// burn cannot hide either. QPS floors and p99 ceilings ride on the same
// windows.
//
// The monitor consumes cumulative samples (request/error counters and a
// latency histogram snapshot at time T); windowed rates are deltas between
// the newest sample and the newest sample at least one window old. Feeding
// it from a virtual clock makes every derived figure deterministic, which
// is how the fleet simulator pins SLO evaluation byte-for-byte.

// SLO is one declarative serving-path objective. Zero-valued limits are
// disabled; zero-valued windows and burn thresholds take the defaults
// (5m/1h, 14.4 fast / 6 slow — the classic 30d-budget paging thresholds).
type SLO struct {
	// Name identifies the objective in statuses and gates.
	Name string `json:"name"`
	// QPSFloor is the minimum short-window throughput (0 disables).
	QPSFloor float64 `json:"qps_floor,omitempty"`
	// P99Ceiling is the maximum short-window p99 latency in seconds
	// (0 disables).
	P99Ceiling float64 `json:"p99_ceiling_seconds,omitempty"`
	// ErrorBudget is the allowed error fraction, e.g. 0.01 for 99% (0
	// disables burn-rate evaluation).
	ErrorBudget float64 `json:"error_budget,omitempty"`
	// FastBurn and SlowBurn are the paging thresholds on the burn rate.
	FastBurn float64 `json:"fast_burn,omitempty"`
	SlowBurn float64 `json:"slow_burn,omitempty"`
	// ShortWindow and LongWindow are the two evaluation windows.
	ShortWindow time.Duration `json:"short_window,omitempty"`
	LongWindow  time.Duration `json:"long_window,omitempty"`
}

func (s SLO) withDefaults() SLO {
	if s.FastBurn == 0 {
		s.FastBurn = 14.4
	}
	if s.SlowBurn == 0 {
		s.SlowBurn = 6
	}
	if s.ShortWindow == 0 {
		s.ShortWindow = 5 * time.Minute
	}
	if s.LongWindow == 0 {
		s.LongWindow = time.Hour
	}
	if s.LongWindow < s.ShortWindow {
		s.LongWindow = s.ShortWindow
	}
	return s
}

// ParseSLO parses a declarative SLO spec of the form
//
//	name:qps=50;p99=200ms;budget=0.01;fast=14.4;slow=6;short=5m;long=1h
//
// Every key is optional; unknown keys are an error.
func ParseSLO(spec string) (SLO, error) {
	name, rest, ok := strings.Cut(spec, ":")
	if !ok || name == "" {
		return SLO{}, fmt.Errorf("obs: SLO spec %q: want name:key=value;...", spec)
	}
	out := SLO{Name: name}
	for _, part := range strings.Split(rest, ";") {
		if part == "" {
			continue
		}
		k, v, ok := strings.Cut(part, "=")
		if !ok {
			return SLO{}, fmt.Errorf("obs: SLO spec %q: bad field %q", spec, part)
		}
		var err error
		switch k {
		case "qps":
			out.QPSFloor, err = strconv.ParseFloat(v, 64)
		case "p99":
			var d time.Duration
			d, err = time.ParseDuration(v)
			out.P99Ceiling = d.Seconds()
		case "budget":
			out.ErrorBudget, err = strconv.ParseFloat(v, 64)
		case "fast":
			out.FastBurn, err = strconv.ParseFloat(v, 64)
		case "slow":
			out.SlowBurn, err = strconv.ParseFloat(v, 64)
		case "short":
			out.ShortWindow, err = time.ParseDuration(v)
		case "long":
			out.LongWindow, err = time.ParseDuration(v)
		default:
			return SLO{}, fmt.Errorf("obs: SLO spec %q: unknown key %q", spec, k)
		}
		if err != nil {
			return SLO{}, fmt.Errorf("obs: SLO spec %q: field %q: %w", spec, part, err)
		}
	}
	return out, nil
}

// SLOSample is one cumulative measurement: totals as of time T, plus an
// optional cumulative latency histogram for the p99 ceiling.
type SLOSample struct {
	T        time.Time
	Requests uint64
	Errors   uint64
	Latency  *HistogramSnapshot
}

// SLOWindow is the evaluated view of one window.
type SLOWindow struct {
	// Window is the nominal window; Seconds the span actually covered
	// (shorter while history is still filling).
	Window  time.Duration `json:"window"`
	Seconds float64       `json:"seconds"`
	// QPS and ErrorRate are the windowed request rate and error fraction;
	// BurnRate is ErrorRate divided by the error budget.
	QPS       float64 `json:"qps"`
	ErrorRate float64 `json:"error_rate"`
	BurnRate  float64 `json:"burn_rate"`
	// P99Seconds is the windowed p99 latency (0 when no latency data).
	P99Seconds float64 `json:"p99_seconds,omitempty"`
}

// SLOStatus is the full evaluation of one SLO at a point in time.
type SLOStatus struct {
	Name  string    `json:"name"`
	Short SLOWindow `json:"short"`
	Long  SLOWindow `json:"long"`
	// BudgetConsumed is the fraction of the error budget consumed over the
	// monitor's whole lifetime (errors / (budget × requests)).
	BudgetConsumed float64 `json:"budget_consumed"`
	// QPSOK / P99OK report the floor and ceiling; FastBurnAlert and
	// SlowBurnAlert fire only when BOTH windows exceed the threshold.
	QPSOK         bool `json:"qps_ok"`
	P99OK         bool `json:"p99_ok"`
	FastBurnAlert bool `json:"fast_burn_alert"`
	SlowBurnAlert bool `json:"slow_burn_alert"`
	// OK is the rollup; Reason names the first violated condition.
	OK     bool   `json:"ok"`
	Reason string `json:"reason,omitempty"`
}

// SLOMonitor evaluates one SLO from periodically recorded cumulative
// samples. Concurrency-safe; nil-safe.
type SLOMonitor struct {
	mu      sync.Mutex
	slo     SLO
	samples []SLOSample // time-ordered, pruned past the long window
}

// NewSLOMonitor builds a monitor for the objective (defaults applied).
func NewSLOMonitor(slo SLO) *SLOMonitor {
	return &SLOMonitor{slo: slo.withDefaults()}
}

// Record appends one cumulative sample. Out-of-order samples are dropped.
// History older than the long window is pruned, keeping one sample beyond
// the edge as the window baseline.
func (m *SLOMonitor) Record(s SLOSample) {
	if m == nil {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if n := len(m.samples); n > 0 && !m.samples[n-1].T.Before(s.T) {
		return
	}
	m.samples = append(m.samples, s)
	edge := s.T.Add(-m.slo.LongWindow)
	cut := 0
	for cut+1 < len(m.samples) && m.samples[cut+1].T.Before(edge) {
		cut++
	}
	if cut > 0 {
		m.samples = append(m.samples[:0], m.samples[cut:]...)
	}
}

// window computes the delta view between the newest sample and the newest
// sample at least w old (falling back to the oldest retained).
func (m *SLOMonitor) window(w time.Duration) SLOWindow {
	out := SLOWindow{Window: w}
	if len(m.samples) < 2 {
		return out
	}
	newest := m.samples[len(m.samples)-1]
	edge := newest.T.Add(-w)
	base := m.samples[0]
	for _, s := range m.samples[1 : len(m.samples)-1] {
		if s.T.After(edge) {
			break
		}
		base = s
	}
	secs := newest.T.Sub(base.T).Seconds()
	if secs <= 0 {
		return out
	}
	out.Seconds = secs
	reqs := newest.Requests - base.Requests
	errs := newest.Errors - base.Errors
	out.QPS = float64(reqs) / secs
	if reqs > 0 {
		out.ErrorRate = float64(errs) / float64(reqs)
	}
	if m.slo.ErrorBudget > 0 {
		out.BurnRate = out.ErrorRate / m.slo.ErrorBudget
	}
	if newest.Latency != nil && base.Latency != nil {
		if d, ok := subtractHist(*newest.Latency, *base.Latency); ok && d.Count > 0 {
			out.P99Seconds = d.quantile(0.99)
		}
	}
	return out
}

// subtractHist computes newest−base for cumulative snapshots sharing a
// bucket layout; counter resets (negative deltas) report not-ok.
func subtractHist(newest, base HistogramSnapshot) (HistogramSnapshot, bool) {
	if len(newest.Bounds) != len(base.Bounds) || len(newest.Counts) != len(base.Counts) {
		return HistogramSnapshot{}, false
	}
	d := HistogramSnapshot{
		Bounds: newest.Bounds,
		Counts: make([]uint64, len(newest.Counts)),
		Sum:    newest.Sum - base.Sum,
	}
	if newest.Count < base.Count {
		return HistogramSnapshot{}, false
	}
	d.Count = newest.Count - base.Count
	for i := range newest.Counts {
		if newest.Counts[i] < base.Counts[i] {
			return HistogramSnapshot{}, false
		}
		d.Counts[i] = newest.Counts[i] - base.Counts[i]
	}
	return d, true
}

// Status evaluates the SLO over the recorded history.
func (m *SLOMonitor) Status() SLOStatus {
	if m == nil {
		return SLOStatus{OK: true}
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	st := SLOStatus{
		Name:  m.slo.Name,
		Short: m.window(m.slo.ShortWindow),
		Long:  m.window(m.slo.LongWindow),
		QPSOK: true, P99OK: true,
	}
	if n := len(m.samples); n > 0 && m.slo.ErrorBudget > 0 && m.samples[n-1].Requests > 0 {
		newest := m.samples[n-1]
		st.BudgetConsumed = float64(newest.Errors) / (m.slo.ErrorBudget * float64(newest.Requests))
	}
	// Evaluate only once a full short window of history exists: a monitor
	// two samples into its life has rates, but no basis for paging.
	warm := st.Short.Seconds >= m.slo.ShortWindow.Seconds()
	if warm {
		if m.slo.QPSFloor > 0 && st.Short.QPS < m.slo.QPSFloor {
			st.QPSOK = false
		}
		if m.slo.P99Ceiling > 0 && st.Short.P99Seconds > m.slo.P99Ceiling {
			st.P99OK = false
		}
		if m.slo.ErrorBudget > 0 {
			st.FastBurnAlert = st.Short.BurnRate > m.slo.FastBurn && st.Long.BurnRate > m.slo.FastBurn
			st.SlowBurnAlert = st.Short.BurnRate > m.slo.SlowBurn && st.Long.BurnRate > m.slo.SlowBurn
		}
	}
	st.OK = st.QPSOK && st.P99OK && !st.FastBurnAlert && !st.SlowBurnAlert
	switch {
	case !st.QPSOK:
		st.Reason = fmt.Sprintf("QPS %.2f below floor %.2f", st.Short.QPS, m.slo.QPSFloor)
	case !st.P99OK:
		st.Reason = fmt.Sprintf("p99 %.4fs above ceiling %.4fs", st.Short.P99Seconds, m.slo.P99Ceiling)
	case st.FastBurnAlert:
		st.Reason = fmt.Sprintf("fast burn: %.2fx budget in both windows (limit %.1fx)", st.Short.BurnRate, m.slo.FastBurn)
	case st.SlowBurnAlert:
		st.Reason = fmt.Sprintf("slow burn: %.2fx budget in both windows (limit %.1fx)", st.Long.BurnRate, m.slo.SlowBurn)
	}
	return st
}
