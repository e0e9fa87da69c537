// Package avail implements the paper's multi-state resource availability
// model (Section 3, Figure 1): five states derived from observable host
// resource usage, the threshold-based classifier with the transient-excursion
// rule, sojourn extraction for semi-Markov estimation, and the empirical
// temporal-reliability measurement used by the evaluation.
package avail

import (
	"fmt"
	"time"

	"fgcs/internal/trace"
)

// State is one of the five availability states of Figure 1.
type State uint8

const (
	// S1: full resource availability for the guest process (host CPU load
	// below Th1).
	S1 State = iota + 1
	// S2: resource availability for the guest process at lowest priority
	// (host CPU load between Th1 and Th2).
	S2
	// S3: CPU unavailability (UEC) — host CPU load steadily above Th2; any
	// guest process must be terminated.
	S3
	// S4: memory thrashing (UEC) — not enough free memory for the guest
	// working set.
	S4
	// S5: machine unavailability (URR) — the resource was revoked or the
	// machine failed.
	S5
)

// NumStates is the size of the state space.
const NumStates = 5

// String returns the canonical state name.
func (s State) String() string {
	switch s {
	case S1:
		return "S1"
	case S2:
		return "S2"
	case S3:
		return "S3"
	case S4:
		return "S4"
	case S5:
		return "S5"
	}
	return fmt.Sprintf("State(%d)", int(s))
}

// Failure reports whether the state is unrecoverable for a guest process
// (S3, S4 or S5). Even if host load later drops or the machine rejoins, the
// guest process has already been killed or migrated off (Section 3.3).
func (s State) Failure() bool { return s >= S3 }

// Recoverable reports whether a guest process can continue in this state.
func (s State) Recoverable() bool { return s == S1 || s == S2 }

// Config holds the model parameters derived from the empirical studies of
// Section 3.2.
type Config struct {
	// Th1 and Th2 are the host-CPU-load thresholds (percent). Below Th1
	// the guest runs at default priority (S1); between Th1 and Th2 it must
	// be reniced to the lowest priority (S2); steadily above Th2 it must
	// be terminated (S3). The paper's Linux testbed uses 20 and 60.
	Th1, Th2 float64
	// SuspendLimit is how long the host load may transiently exceed Th2
	// (with the guest suspended) before the guest is terminated: 1 minute
	// in the paper's experiments. Excursions shorter than this stay in
	// S1/S2 per the state definitions of Section 3.3.
	SuspendLimit time.Duration
	// GuestMemMB is the working-set size of the guest process. Free
	// memory below this value means the guest cannot fit without
	// thrashing (S4).
	GuestMemMB float64
}

// DefaultConfig returns the testbed parameters of Section 3.3 with a
// representative guest working set (the SPEC CPU2000 applications used in the
// paper range from 29 to 193 MB).
func DefaultConfig() Config {
	return Config{Th1: 20, Th2: 60, SuspendLimit: time.Minute, GuestMemMB: 100}
}

// Validate checks configuration sanity.
func (c Config) Validate() error {
	if c.Th1 < 0 || c.Th2 > 100 || c.Th1 >= c.Th2 {
		return fmt.Errorf("avail: invalid thresholds Th1=%g Th2=%g", c.Th1, c.Th2)
	}
	if c.SuspendLimit <= 0 {
		return fmt.Errorf("avail: non-positive suspend limit")
	}
	if c.GuestMemMB < 0 {
		return fmt.Errorf("avail: negative guest memory")
	}
	return nil
}

// SuspendUnits converts the suspend limit into sampling periods, rounding up
// so that an excursion is only "steady" once the full limit has elapsed.
// The gateway's online kill rule and the offline classifier both use this,
// so a guest is killed exactly when the classifier would report S3.
func (c Config) SuspendUnits(period time.Duration) int {
	if period <= 0 {
		panic("avail: non-positive period")
	}
	u := int((c.SuspendLimit + period - 1) / period)
	if u < 1 {
		u = 1
	}
	return u
}

// RawState is one sample's state before the transient-excursion rule, for a
// guest whose working set is memMB: S5 when the machine is down, S4 when free
// memory is below memMB, S3 when the host CPU load is above Th2, else S2 or
// S1 by Th1. An S3 here is tentative — the classifier attributes a run
// shorter than the suspend limit to a recoverable neighbor. The classifier
// passes GuestMemMB, and the gateway's online kill rule the job's own memory
// request, so the two judge every sample by this one rule.
func (c Config) RawState(s trace.Sample, memMB float64) State {
	switch {
	case !s.Up:
		return S5
	case s.FreeMemMB < memMB:
		return S4
	case s.CPU > c.Th2:
		return S3
	case s.CPU >= c.Th1:
		return S2
	default:
		return S1
	}
}

// Classify labels every sample of a window with its availability state,
// applying the transient-excursion rule: a maximal run of samples above Th2
// that is shorter than the suspend limit is attributed to the neighboring
// recoverable state (the guest is merely suspended, per the S1/S2
// definitions); a run reaching the limit is CPU unavailability (S3) from the
// start of the run. Classification does not stop at failures — use
// ExtractSojourns for the absorbed view the SMP estimator needs.
func Classify(samples []trace.Sample, cfg Config, period time.Duration) []State {
	return ClassifyInto(nil, samples, cfg, period)
}

// ClassifyInto is Classify writing into dst's storage when it is large
// enough, so callers on hot paths (the prediction engine) can classify
// repeatedly without allocating. It always returns the classified slice,
// which aliases dst when dst had sufficient capacity. Each sample's raw
// level is computed exactly once, in a single pass.
func ClassifyInto(dst []State, samples []trace.Sample, cfg Config, period time.Duration) []State {
	n := len(samples)
	if cap(dst) >= n {
		dst = dst[:n]
	} else {
		dst = make([]State, n)
	}
	if n == 0 {
		return dst
	}
	limit := cfg.SuspendUnits(period)
	i := 0
	for i < n {
		st := cfg.RawState(samples[i], cfg.GuestMemMB)
		if st != S3 {
			dst[i] = st
			i++
			continue
		}
		j := i
		for j+1 < n && cfg.RawState(samples[j+1], cfg.GuestMemMB) == S3 {
			j++
		}
		j++ // j is now one past the end of the high run
		if j-i < limit {
			st = attributeTransient(samples, dst, cfg, i, j)
		}
		for k := i; k < j; k++ {
			dst[k] = st
		}
		i = j
	}
	return dst
}

// attributeTransient decides which recoverable state absorbs a transient
// high-CPU run spanning [i, j). Preference order: the state immediately
// before the run, then the raw level immediately after, then S2 (the
// conservative choice when the excursion has no recoverable neighbor).
func attributeTransient(samples []trace.Sample, out []State, cfg Config, i, j int) State {
	if i > 0 && out[i-1].Recoverable() {
		return out[i-1]
	}
	if j < len(samples) {
		if st := cfg.RawState(samples[j], cfg.GuestMemMB); st.Recoverable() {
			return st
		}
	}
	return S2
}

// Sojourn is one visit to a state: the state and its holding time measured in
// sampling periods. Holding times are the raw material for the H matrix of
// the semi-Markov model.
type Sojourn struct {
	State State
	Units int
}

// nextRun returns the end of the run that starts at states[i]: the maximal
// stretch of one recoverable state, or of failure states of any kind. The
// machine is unavailable through a whole failure stretch whichever resource
// ran out first, so it is one run, named by its first state. Every consumer
// of classified states walks them through this one step.
func nextRun(states []State, i int) int {
	j := i + 1
	if states[i].Failure() {
		for j < len(states) && states[j].Failure() {
			j++
		}
		return j
	}
	for j < len(states) && states[j] == states[i] {
		j++
	}
	return j
}

// ExtractSojourns compresses the classified window into a sequence of
// sojourns, stopping after the first failure run: S3, S4 and S5 are
// unrecoverable for a guest job, so the semi-Markov process is absorbed
// there (Figure 3's sparsity). The final sojourn of a window that never
// fails is right-censored: the state was still occupied when the window
// ended.
func ExtractSojourns(samples []trace.Sample, cfg Config, period time.Duration) []Sojourn {
	states := Classify(samples, cfg, period)
	var out []Sojourn
	for i := 0; i < len(states); {
		j := nextRun(states, i)
		out = append(out, Sojourn{State: states[i], Units: j - i})
		if states[i].Failure() {
			break
		}
		i = j
	}
	return out
}

// WindowSurvives reports whether a guest job running throughout the window
// would never encounter a failure state — the event whose probability is the
// temporal reliability TR.
func WindowSurvives(samples []trace.Sample, cfg Config, period time.Duration) bool {
	sojs := ExtractSojourns(samples, cfg, period)
	return len(sojs) == 0 || !sojs[len(sojs)-1].State.Failure()
}

// Event is one occurrence of resource unavailability in a day: the data
// recorded by the testbed monitoring of Section 6.1 (start, end, failure
// state).
type Event struct {
	State State
	// Start and End are offsets from midnight.
	Start, End time.Duration
}

// Events scans a full day and returns every failure run — the "occurrences
// of unavailability" whose per-machine counts (405-453 over three months)
// motivate the paper's prediction work. Unlike ExtractSojourns, scanning
// continues after failures: the machine recovers even though any individual
// guest job would not.
func Events(day *trace.Day, cfg Config) []Event {
	states := Classify(day.Samples, cfg, day.Period)
	var out []Event
	for i := 0; i < len(states); {
		j := nextRun(states, i)
		if states[i].Failure() {
			out = append(out, Event{
				State: states[i],
				Start: time.Duration(i) * day.Period,
				End:   time.Duration(j) * day.Period,
			})
		}
		i = j
	}
	return out
}

// CountEvents returns the number of unavailability occurrences in a day.
func CountEvents(day *trace.Day, cfg Config) int { return len(Events(day, cfg)) }
