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
// trajectories to the accumulated set. A guest job is absorbed by the first
// failure, but the MACHINE recovers and keeps generating statistics: each
// failure run ends one trajectory with a single absorbing sojourn and the next
// recoverable samples start a fresh one, so every unavailability occurrence in
// the window is harvested for Q and H — an injected noise event is one more
// observation among many, not the sole fate of its window (Section 7.3). A
// failure run with no trajectory before it (the window starts failed)
// contributes nothing. AddWindow returns the window's initial availability
// state and whether that state is recoverable. Empty windows contribute
// nothing and report an unrecoverable start. The bool is ignored: it selected
// a removed extraction mode, and the signature stays because bench/, which
// only a benchmark change may edit, calls it.
func (e *Extractor) AddWindow(samples []trace.Sample, _ bool) (State, bool) {
	if len(samples) == 0 {
		return S1, false
	}
	e.states = ClassifyInto(e.states, samples, e.cfg, e.period)
	states := e.states
	curStart := -1
	for i := 0; i < len(states); {
		j := nextRun(states, i)
		failed := states[i].Failure()
		if !failed && curStart < 0 {
			curStart = len(e.arena)
		}
		if curStart >= 0 {
			e.arena = append(e.arena, Sojourn{State: states[i], Units: j - i})
			if failed {
				e.spans = append(e.spans, [2]int{curStart, len(e.arena)})
				curStart = -1
			}
		}
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
