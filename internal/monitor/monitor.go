// Package monitor implements the resource monitor daemon of Section 5.2: it
// periodically samples host resource usage (total host CPU load and free
// memory) with light-weight system facilities, appends the samples to
// history logs, and maintains the t_monitor heartbeat timestamp whose gaps
// reveal resource revocation (URR) without requiring administrator access to
// system logs.
package monitor

import (
	"errors"
	"fmt"
	"log/slog"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"fgcs/internal/obs"
	"fgcs/internal/simclock"
	"fgcs/internal/trace"
)

// Metrics is the monitor's observability surface. Instruments are nil-safe,
// so partially wired metrics record what they can.
type Metrics struct {
	// Samples counts successful source reads; Errors failed ones.
	Samples *obs.Counter
	Errors  *obs.Counter
	// TickSeconds observes the latency of one full sampling tick: source
	// read, sink fan-out and heartbeat write.
	TickSeconds *obs.Histogram
}

// NewMetrics registers the monitor metric family on a registry.
func NewMetrics(r *obs.Registry) *Metrics {
	return &Metrics{
		Samples:     r.Counter("fgcs_monitor_samples_total", "Successful resource samples taken."),
		Errors:      r.Counter("fgcs_monitor_read_errors_total", "Load-source reads that failed."),
		TickSeconds: r.Histogram("fgcs_monitor_tick_seconds", "Sampling tick latency: read, sink fan-out, heartbeat.", nil),
	}
}

// LoadSource provides instantaneous host resource readings — the role played
// by top on Linux and vmstat/prstat on Unix in the paper's prototype.
type LoadSource interface {
	// Read returns the total CPU usage of all host processes (percent)
	// and the free physical memory (MB).
	Read() (cpuPercent, freeMemMB float64, err error)
}

// Sink receives each sample as it is taken. trace-building recorders and the
// iShare state manager implement this.
type Sink interface {
	Record(t time.Time, s trace.Sample)
}

// Config configures a Monitor.
type Config struct {
	// Period is the sampling period (paper: 6 s).
	Period time.Duration
	// HeartbeatPath is the file holding t_monitor. Empty disables the
	// heartbeat (useful in pure simulations).
	HeartbeatPath string
	// Clock defaults to the wall clock.
	Clock simclock.Clock
	// Metrics, when non-nil, receives sample/error counts and tick
	// latency.
	Metrics *Metrics
	// Logger, when non-nil, receives tick failures (source read and
	// heartbeat write errors) as structured records instead of the errors
	// being silently counted. Callers attach machine/component attrs.
	Logger *slog.Logger
}

// Monitor samples a LoadSource periodically.
type Monitor struct {
	cfg   Config
	src   LoadSource
	sinks []Sink

	stopped chan struct{}
	stopo   sync.Once
}

// New creates a monitor. At least one sink is required.
func New(cfg Config, src LoadSource, sinks ...Sink) (*Monitor, error) {
	if cfg.Period <= 0 {
		return nil, fmt.Errorf("monitor: non-positive period")
	}
	if src == nil {
		return nil, fmt.Errorf("monitor: nil load source")
	}
	if len(sinks) == 0 {
		return nil, fmt.Errorf("monitor: no sinks")
	}
	if cfg.Clock == nil {
		cfg.Clock = simclock.Real{}
	}
	return &Monitor{cfg: cfg, src: src, sinks: sinks, stopped: make(chan struct{})}, nil
}

// Stop terminates Run after the current tick.
func (m *Monitor) Stop() { m.stopo.Do(func() { close(m.stopped) }) }

// Run samples until Stop is called. It is typically run in its own
// goroutine. Each tick reads the source, forwards the sample to every sink,
// and updates the heartbeat.
func (m *Monitor) Run() {
	for {
		select {
		case <-m.stopped:
			return
		case now := <-m.cfg.Clock.After(m.cfg.Period):
			m.Tick(now)
		}
	}
}

// Tick performs a single sampling step at the given time. Exposed so tests
// and simulations can drive the monitor deterministically. A failed read,
// or a reading no log can hold — NaN, infinite, or past trace's bound on
// stored units (trace.Storable) — is counted as a source error and records
// no sample.
func (m *Monitor) Tick(now time.Time) {
	mx := m.cfg.Metrics
	var tickStart time.Time
	if mx != nil {
		tickStart = time.Now()
	}
	cpu, free, err := m.src.Read()
	if err == nil && !trace.Storable(trace.Sample{CPU: cpu, FreeMemMB: free}) {
		// No log can hold it: the WAL stores whole units in an int64, a
		// trace file refuses a non-finite one, and the state machine has
		// no state for it.
		err = fmt.Errorf("monitor: reading out of range: cpu %v, free memory %v", cpu, free)
	}
	if err != nil {
		if mx != nil {
			mx.Errors.Inc()
		}
		if m.cfg.Logger != nil {
			m.cfg.Logger.Warn("load source read failed",
				slog.String("component", "monitor"), slog.String("err", err.Error()))
		}
		return
	}
	s := trace.Sample{CPU: cpu, FreeMemMB: free, Up: true}
	for _, sink := range m.sinks {
		sink.Record(now, s)
	}
	if m.cfg.HeartbeatPath != "" {
		// Heartbeat write failures are deliberately non-fatal: a full
		// disk must not kill monitoring — but they are worth a warning,
		// since a stale t_monitor later reads as a revocation.
		if err := WriteHeartbeat(m.cfg.HeartbeatPath, now); err != nil && m.cfg.Logger != nil {
			m.cfg.Logger.Warn("heartbeat write failed",
				slog.String("component", "monitor"),
				slog.String("path", m.cfg.HeartbeatPath), slog.String("err", err.Error()))
		}
	}
	if mx != nil {
		mx.Samples.Inc()
		mx.TickSeconds.Observe(time.Since(tickStart).Seconds())
	}
}

// ---------------------------------------------------------- heartbeat ----

// WriteHeartbeat persists t_monitor atomically.
func WriteHeartbeat(path string, t time.Time) error {
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, []byte(strconv.FormatInt(t.UnixNano(), 10)+"\n"), 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// ReadHeartbeat loads the saved t_monitor.
func ReadHeartbeat(path string) (time.Time, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return time.Time{}, err
	}
	ns, err := strconv.ParseInt(strings.TrimSpace(string(b)), 10, 64)
	if err != nil {
		return time.Time{}, fmt.Errorf("monitor: corrupt heartbeat: %w", err)
	}
	return time.Unix(0, ns), nil
}

// ErrNoGap is returned by DetectRevocation when the heartbeat is fresh.
var ErrNoGap = errors.New("monitor: no revocation gap")

// DetectRevocation implements the paper's URR detection: if the gap between
// now and the saved t_monitor exceeds the threshold, the monitor — and by
// implication the FGCS system — was down in between (system crash or owner
// leave). It returns the down interval [from, to).
func DetectRevocation(path string, now time.Time, threshold time.Duration) (from, to time.Time, err error) {
	last, err := ReadHeartbeat(path)
	if err != nil {
		return time.Time{}, time.Time{}, err
	}
	if now.Sub(last) <= threshold {
		return time.Time{}, time.Time{}, ErrNoGap
	}
	return last, now, nil
}
