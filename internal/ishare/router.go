package ishare

import (
	"sort"
	"sync"

	"fgcs/internal/obs"
	"fgcs/internal/predict"
)

// The ensemble router's selection rule and hysteresis.
const (
	// RouterMinSamples is how many rolling resolved predictions a predictor
	// needs on a machine before it may be routed to. Below it, scores are
	// noise — the router stays on the fallback.
	RouterMinSamples = 16
	// routerMinDwell is the hysteresis dwell: at least this many
	// predictions must resolve on a machine between routing switches. The
	// dwell clock is the cumulative resolved count, so it keeps ticking
	// after the rolling window saturates.
	routerMinDwell = 32
	// routerMargin is the hysteresis margin: a challenger must beat the
	// incumbent's rolling Brier score by at least this much to take over.
	routerMargin = 0.02
	// routerFallback is the predictor served while scores are thin (the
	// paper's estimator).
	routerFallback = "SMP"
)

// routeState is one machine's routing memory: the predictor currently
// serving it and the cumulative resolved count at the last switch (the
// dwell anchor).
type routeState struct {
	current   string
	dwellMark uint64
}

// Router is the ensemble control loop: per machine, it serves QueryTR with
// the predictor holding the best rolling Brier score in the accuracy
// tracker, with hysteresis (minimum dwell between switches, margin to
// unseat the incumbent) so routing is stable, and a fallback while scores
// are thin.
//
// Routing is deterministic under a fixed seed because every decision is a
// pure function of (tracker state, this machine's routing memory): the
// candidate list is sorted, ties break toward the smaller name, and the
// dwell clock is the tracker's cumulative resolved count rather than a
// query counter. Tracker state only advances when the monitor feeds
// samples, so concurrent queries between samples all evaluate the same
// frozen scores and reach the same decision regardless of interleaving —
// the property the fleetsim transcript hash pins at 100k-machine scale.
type Router struct {
	// predictors is the candidate set: every registered plugin, sorted so
	// ties always break toward the lexicographically smallest name.
	predictors []string
	tracker    *obs.Tracker

	mu       sync.Mutex
	state    map[string]*routeState
	served   map[string]uint64
	switches uint64
	scoreBuf []obs.RouteScore // reused under mu: Route allocates nothing at steady state

	cDecisions *obs.Counter
	cSwitches  *obs.Counter
}

// NewRouter builds an ensemble router over every registered plugin
// (predict.PluginNames()), reading scores from the tracker.
func NewRouter(tracker *obs.Tracker) *Router {
	names := predict.PluginNames()
	sort.Strings(names)
	return &Router{
		predictors: names,
		tracker:    tracker,
		state:      make(map[string]*routeState),
		served:     make(map[string]uint64, len(names)),
		scoreBuf:   make([]obs.RouteScore, len(names)),
	}
}

// SetMetrics attaches the routing counters (decisions and switches); nil
// detaches. Call before queries flow.
func (r *Router) SetMetrics(decisions, switches *obs.Counter) {
	r.mu.Lock()
	r.cDecisions, r.cSwitches = decisions, switches
	r.mu.Unlock()
}

// Predictors returns the sorted candidate set.
func (r *Router) Predictors() []string { return r.predictors }

// Route returns the predictor that should serve the machine's next query,
// updating the routing memory and the served/switch counters.
func (r *Router) Route(machine string) string {
	r.mu.Lock()
	rs := r.state[machine]
	if rs == nil {
		rs = &routeState{current: routerFallback}
		r.state[machine] = rs
	}
	// Candidate scores under one tracker lock (nested inside r.mu; nothing
	// takes the locks in the other order).
	r.tracker.RouteScores(machine, r.predictors, r.scoreBuf)
	best, bestBrier := "", 0.0
	var resolved uint64
	incumbentN := 0
	incumbentBrier := 0.0
	for i, name := range r.predictors {
		s := r.scoreBuf[i]
		resolved += s.Resolved
		if name == rs.current {
			incumbentBrier, incumbentN = s.Brier, s.N
		}
		if s.N < RouterMinSamples {
			continue
		}
		// Strict less keeps the first (lexicographically smallest) name
		// on ties — the list is sorted.
		if best == "" || s.Brier < bestBrier {
			best, bestBrier = name, s.Brier
		}
	}
	switched := false
	if best != "" && best != rs.current && resolved >= rs.dwellMark+routerMinDwell {
		// An incumbent without enough samples (the initial fallback, or a
		// predictor whose machine was evicted and re-tracked) is unseated
		// without a margin contest.
		if incumbentN < RouterMinSamples || bestBrier <= incumbentBrier-routerMargin {
			rs.current = best
			rs.dwellMark = resolved
			r.switches++
			switched = true
		}
	}
	r.served[rs.current]++
	cur := rs.current
	cDec, cSw := r.cDecisions, r.cSwitches
	r.mu.Unlock()
	if cDec != nil {
		cDec.Inc()
	}
	if switched && cSw != nil {
		cSw.Inc()
	}
	return cur
}

// Snapshot returns the router's served/switch counters for query-stats and
// the fleetsim report.
func (r *Router) Snapshot() RoutingStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	served := make(map[string]uint64, len(r.served))
	for name, n := range r.served {
		served[name] = n
	}
	return RoutingStats{
		Predictors: append([]string(nil), r.predictors...),
		Served:     served,
		Switches:   r.switches,
		Machines:   len(r.state),
	}
}
