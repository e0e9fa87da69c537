package monitor

import (
	"fmt"
	"log/slog"
	"sync"
	"time"

	"fgcs/internal/trace"
)

// MaxBackfill bounds how much of an outage is recorded as down samples:
// one week, the weekday/weekend cycle the estimator pools over. Of a longer
// outage only the week before the sample that ends it is back-filled.
const MaxBackfill = 7 * 24 * time.Hour

// OutageAfter is the paper's URR detection rule (Section 5.2): a gap of more
// than three periods between two samples, or from the t_monitor heartbeat to
// a restart, means the machine, or FGCS on it, was down in between.
func OutageAfter(period time.Duration) time.Duration { return 3 * period }

// Backfill records the outage [from, to) through record: a down sample
// each period after from and before to, of the last MaxBackfill only. It
// returns where the back-fill starts, from or later; [from, start) was
// not recorded.
func Backfill(from, to time.Time, period time.Duration, record func(time.Time, trace.Sample)) (start time.Time) {
	if start = to.Add(-MaxBackfill); start.Before(from) {
		start = from
	}
	for t := start.Add(period); t.Before(to); t = t.Add(period) {
		record(t, trace.Sample{Up: false})
	}
	return start
}

// Recorder is a Sink that accumulates samples into per-day trace structures
// — the history logs the state manager stores and the SMP predictor reads.
// An outage between consecutive samples (OutageAfter) is back-filled as
// machine-down samples, which is how URR periods become visible in the
// logs (Section 5.2).
type Recorder struct {
	mu sync.Mutex
	// period is the expected sampling period.
	period  time.Duration
	machine *trace.Machine
	// lastSample is the timestamp of the most recent recorded sample.
	lastSample time.Time
	// sealedBefore marks days handed out by DaysBefore as immutable: a
	// late sample targeting a day before this midnight is dropped rather
	// than mutated under a reader (zero = nothing sealed).
	sealedBefore time.Time
	// logger, when set, reports dropped samples (see SetLogger).
	logger *slog.Logger
}

// NewRecorder creates a recorder for the given machine ID and sampling
// period. The third argument is ignored, OutageAfter being the one outage
// rule; the signature stays because bench/, which only a benchmark change
// may edit, calls it.
func NewRecorder(machineID string, period, _ time.Duration) *Recorder {
	return &Recorder{period: period, machine: trace.NewMachine(machineID, period)}
}

// SetLogger makes the recorder report dropped samples — otherwise silently
// discarded clock-skew artifacts, and the start of an outage too long to
// back-fill — as structured warnings. Call before the monitor starts; the
// recorder itself adds the machine and component attrs.
func (r *Recorder) SetLogger(l *slog.Logger) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if l != nil {
		l = l.With(slog.String("component", "recorder"), slog.String("machine", r.machine.ID))
	}
	r.logger = l
}

// Record implements Sink.
func (r *Recorder) Record(t time.Time, s trace.Sample) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.lastSample.IsZero() && t.Sub(r.lastSample) > OutageAfter(r.period) {
		if start := Backfill(r.lastSample, t, r.period, r.put); start.After(r.lastSample) && r.logger != nil {
			r.logger.Warn("outage start not back-filled", slog.Time("dropped_from", r.lastSample), slog.Time("dropped_to", start))
		}
	}
	r.put(t, s)
	// A straggler (clock step, late delivery) must not move lastSample
	// backwards: the next on-time sample would then see a gap that never
	// happened and back-fill recorded samples as downtime.
	if t.After(r.lastSample) {
		r.lastSample = t
	}
}

// put writes one sample into its day slot, allocating days as needed.
func (r *Recorder) put(t time.Time, s trace.Sample) {
	t = t.UTC()
	date := time.Date(t.Year(), t.Month(), t.Day(), 0, 0, 0, 0, time.UTC)
	if !r.sealedBefore.IsZero() && date.Before(r.sealedBefore) {
		// The day was handed out as completed history (DaysBefore); a
		// prediction may be fitting over it right now. Completed days are
		// immutable — drop the straggler instead of mutating shared state.
		if r.logger != nil {
			r.logger.Warn("sample into sealed day dropped", slog.Time("sample_time", t))
		}
		return
	}
	var day *trace.Day
	if n := len(r.machine.Days); n > 0 && r.machine.Days[n-1].Date.Equal(date) {
		day = r.machine.Days[n-1]
	} else {
		day = trace.NewDay(date, r.period)
		// Days created mid-stream start unknown; mark samples before
		// the first observation of the day as down only when we know a
		// gap is in progress — otherwise leave them Up-with-zero-load.
		if err := r.machine.AddDay(day); err != nil {
			// Out-of-order timestamps (clock skew): drop the sample
			// rather than corrupt the log.
			if r.logger != nil {
				r.logger.Warn("out-of-order sample dropped",
					slog.Time("sample_time", t), slog.String("err", err.Error()))
			}
			return
		}
	}
	idx := day.IndexAt(t.Sub(date))
	if idx >= day.Len() {
		return
	}
	day.Samples[idx] = s
}

// DayWindow copies the recorded samples of the day containing date at clock
// offsets [start, start+length): nil when that day has none in the window
// yet. It copies only the requested window, and the lock is held only for
// the copy.
func (r *Recorder) DayWindow(date time.Time, start, length time.Duration) []trace.Sample {
	date = date.UTC()
	midnight := time.Date(date.Year(), date.Month(), date.Day(), 0, 0, 0, 0, time.UTC)
	r.mu.Lock()
	defer r.mu.Unlock()
	for i := len(r.machine.Days) - 1; i >= 0; i-- {
		d := r.machine.Days[i]
		if d.Date.Equal(midnight) {
			return append([]trace.Sample(nil), d.Window(start, length)...)
		}
		if d.Date.Before(midnight) {
			break
		}
	}
	return nil
}

// View runs fn on the live log and the timestamp of the most recent recorded
// sample — the two pieces of state a durable snapshot needs to rebuild the
// recorder exactly — under the recorder's lock, copying nothing. Every
// sample waits while fn runs, so fn is brief, does not call the recorder, and
// retains neither m nor anything reachable from it.
func (r *Recorder) View(fn func(m *trace.Machine, last time.Time)) {
	r.mu.Lock()
	defer r.mu.Unlock()
	fn(r.machine, r.lastSample)
}

// Restore replaces the recorder's state with a log recovered from durable
// storage. The machine's period must match the recorder's; the recorder
// takes ownership of m. Call before samples start flowing.
func (r *Recorder) Restore(m *trace.Machine, last time.Time) error {
	if m == nil {
		return fmt.Errorf("monitor: restore needs a machine log")
	}
	if m.Period != r.period {
		return fmt.Errorf("monitor: restored log period %v != %v", m.Period, r.period)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.machine = m
	r.lastSample = last
	// Seals are per-process reader state, not recovered state: WAL-tail
	// replay must be free to write into any recovered day.
	r.sealedBefore = time.Time{}
	return nil
}

// DaysBefore returns the recorded days dated strictly before the given UTC
// midnight, without copying: the returned *trace.Day values are the live
// ones, sealed by this call — any straggler sample targeting them is
// dropped (see put). Day pointers are stable across calls, which is what
// lets the prediction engine recognize an unchanged history and reuse its
// per-day content hashes; a deep clone made every day rollover a
// full-history copy per machine, a measurable stall at fleet scale.
func (r *Recorder) DaysBefore(midnight time.Time) []*trace.Day {
	midnight = midnight.UTC()
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.sealedBefore.Before(midnight) {
		r.sealedBefore = midnight
	}
	n := 0
	for _, d := range r.machine.Days {
		if !d.Date.Before(midnight) {
			break
		}
		n++
	}
	if n == 0 {
		return nil
	}
	out := make([]*trace.Day, n)
	copy(out, r.machine.Days[:n])
	return out
}

// History returns the recorded days in order, copying only the last, which
// samples still write: every day before it is the live one, shared, since
// put writes no day but the last. A full-history archive costs one day's
// copy, not the history's.
func (r *Recorder) History() []*trace.Day {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := len(r.machine.Days)
	if n == 0 {
		return nil
	}
	out := make([]*trace.Day, n)
	copy(out, r.machine.Days[:n-1])
	out[n-1] = r.machine.Days[n-1].Clone()
	return out
}

// Days returns the number of days with at least one sample.
func (r *Recorder) Days() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.machine.Days)
}
