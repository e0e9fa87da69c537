package obs

import (
	"encoding/json"
	"net/http"
	"sync"
	"time"
)

// Alert kinds emitted by the observability plane. Each kind names the signal
// that crossed its threshold; the Alert carries the observed value and the
// threshold so dashboards never need to re-derive either.
const (
	// AlertAccuracyDrift fires when the Page–Hinkley detector over a
	// (machine, predictor) Brier stream decides the prediction error's mean
	// has shifted upward — the predictor got worse, not just unlucky.
	AlertAccuracyDrift = "accuracy-drift"
	// AlertShedRate fires when the server sheds more than the configured
	// fraction of admissions over an evaluation step.
	AlertShedRate = "shed-rate"
	// AlertBreakerFlap fires when circuit breakers open repeatedly within an
	// evaluation step — a peer or machine is oscillating, not merely down.
	AlertBreakerFlap = "breaker-flap"
)

// Alert is one typed observability event. Alerts are values: immutable once
// appended, mergeable across peers (the Peer field is stamped at aggregation
// time), and small enough to ship in every query-obs response.
type Alert struct {
	// Seq is the ring-local monotonic sequence number, starting at 1.
	Seq uint64 `json:"seq"`
	// Kind is one of the Alert* constants.
	Kind string `json:"kind"`
	// Peer is the reporting peer, stamped during fleet aggregation (empty on
	// the originating node).
	Peer string `json:"peer,omitempty"`
	// Machine and Predictor scope accuracy alerts; operational alerts leave
	// them empty.
	Machine   string `json:"machine,omitempty"`
	Predictor string `json:"predictor,omitempty"`
	// Value is the observed statistic and Threshold the configured limit it
	// crossed.
	Value     float64 `json:"value"`
	Threshold float64 `json:"threshold"`
	// Message is a one-line human rendering of the condition.
	Message string `json:"message"`
	// Time is when the detector fired.
	Time time.Time `json:"time"`
}

// defaultAlertCap bounds the alert ring when the caller passes no capacity.
const defaultAlertCap = 256

// maxAlertCap is the hard ceiling on ring capacity, shared with the binary
// decoder so an untrusted peer cannot make us retain an unbounded backlog.
const maxAlertCap = 65536

// AlertRing is a bounded, concurrency-safe ring of the most recent alerts.
// Appends never block and never grow beyond the capacity; older alerts fall
// off. All methods are nil-safe so instrumentation points need no checks.
type AlertRing struct {
	mu    sync.Mutex
	buf   []Alert
	cap   int
	next  uint64 // total appended; next Seq is next+1
	onNew func(Alert)
}

// NewAlertRing builds a ring holding up to capacity alerts (<=0 selects the
// default of 256; capped at 65536).
func NewAlertRing(capacity int) *AlertRing {
	if capacity <= 0 {
		capacity = defaultAlertCap
	}
	if capacity > maxAlertCap {
		capacity = maxAlertCap
	}
	return &AlertRing{cap: capacity}
}

// OnAppend installs a hook invoked (outside the ring lock) for every appended
// alert — the flight-recorder WARN bridge. Install before traffic starts.
func (r *AlertRing) OnAppend(fn func(Alert)) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.onNew = fn
	r.mu.Unlock()
}

// Append stamps the alert with the next sequence number, stores it, and
// returns the stamped copy. On a nil ring it returns the alert unstamped.
func (r *AlertRing) Append(a Alert) Alert {
	if r == nil {
		return a
	}
	r.mu.Lock()
	r.next++
	a.Seq = r.next
	if len(r.buf) < r.cap {
		r.buf = append(r.buf, a)
	} else {
		r.buf[int((r.next-1)%uint64(r.cap))] = a
	}
	fn := r.onNew
	r.mu.Unlock()
	if fn != nil {
		fn(a)
	}
	return a
}

// Alerts returns the retained alerts in sequence order, oldest first. A
// limit > 0 keeps only the newest limit entries.
func (r *AlertRing) Alerts(limit int) []Alert {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Alert, 0, len(r.buf))
	if len(r.buf) < r.cap {
		out = append(out, r.buf...)
	} else {
		start := int(r.next % uint64(r.cap))
		out = append(out, r.buf[start:]...)
		out = append(out, r.buf[:start]...)
	}
	if limit > 0 && len(out) > limit {
		out = out[len(out)-limit:]
	}
	return out
}

// AlertsHandler serves the ring as a JSON array, oldest first. Mount it at
// /alerts. A nil ring serves an empty array.
func AlertsHandler(r *AlertRing) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		alerts := r.Alerts(0)
		if alerts == nil {
			alerts = []Alert{}
		}
		_ = json.NewEncoder(w).Encode(alerts)
	})
}
