package avail

import (
	"time"

	"fgcs/internal/trace"
)

// Extractor accumulates semi-Markov training sequences from a series of
// history windows using reusable buffers: the classification scratch, a flat
// sojourn arena, and the sequence list are all retained across Reset calls,
// so a long-lived extractor (e.g. one held in a prediction engine's
// sync.Pool) performs no per-query allocations at steady state. Each window
// is classified exactly once; the initial state needed for the empirical
// initial-state distribution falls out of the same pass instead of a second
// classification.
//
// The zero value is not usable; call NewExtractor or Reset first. Extractors
// are not safe for concurrent use.
type Extractor struct {
	cfg    Config
	period time.Duration
	states []State     // classification scratch, reused per window
	arena  []Sojourn   // flat storage for all sojourns of all sequences
	spans  [][2]int    // [start, end) arena ranges, one per sequence
	seqs   [][]Sojourn // materialized views into arena (built by Seqs)
}

// NewExtractor returns an extractor for the given model configuration and
// sampling period.
func NewExtractor(cfg Config, period time.Duration) *Extractor {
	e := &Extractor{}
	e.Reset(cfg, period)
	return e
}

// Reset discards accumulated sequences (keeping buffer capacity) and
// reconfigures the extractor.
func (e *Extractor) Reset(cfg Config, period time.Duration) {
	e.cfg = cfg
	e.period = period
	e.arena = e.arena[:0]
	e.spans = e.spans[:0]
	e.seqs = e.seqs[:0]
}

// AddWindow classifies one history window and appends its restart
// trajectories (see AppendTrajectories) to the accumulated set. It returns
// the window's initial availability state and whether that state is
// recoverable. Empty windows contribute nothing and report an unrecoverable
// start. The bool is ignored: it selected a removed extraction mode, and the
// signature stays because bench/, which only a benchmark change may edit,
// calls it.
func (e *Extractor) AddWindow(samples []trace.Sample, _ bool) (State, bool) {
	if len(samples) == 0 {
		return S1, false
	}
	e.states = ClassifyInto(e.states, samples, e.cfg, e.period)
	states := e.states
	curStart := -1
	for i := 0; i < len(states); {
		j := i
		for j < len(states) && states[j] == states[i] {
			j++
		}
		st := states[i]
		if st.Failure() {
			if curStart >= 0 {
				// The failure run (possibly spanning multiple failure
				// states) ends the current trajectory with a single
				// absorbing sojourn.
				k := j
				for k < len(states) && states[k].Failure() {
					k++
				}
				e.arena = append(e.arena, Sojourn{State: st, Units: k - i})
				e.spans = append(e.spans, [2]int{curStart, len(e.arena)})
				curStart = -1
				i = k
				continue
			}
			// Failure with no preceding recoverable sojourn: skip it.
			i = j
			continue
		}
		if curStart < 0 {
			curStart = len(e.arena)
		}
		e.arena = append(e.arena, Sojourn{State: st, Units: j - i})
		i = j
	}
	if curStart >= 0 {
		e.spans = append(e.spans, [2]int{curStart, len(e.arena)})
	}
	return states[0], states[0].Recoverable()
}

// Seqs materializes the accumulated sequences. The returned slices alias the
// extractor's arena and stay valid until the next Reset; callers must not
// retain them past that.
func (e *Extractor) Seqs() [][]Sojourn {
	e.seqs = e.seqs[:0]
	for _, sp := range e.spans {
		e.seqs = append(e.seqs, e.arena[sp[0]:sp[1]:sp[1]])
	}
	return e.seqs
}
