package obs

import (
	"sort"
	"sync"
	"time"
)

// Tracker scores temporal-reliability predictions against the availability
// outcomes later observed by the monitor. Each issued prediction claims a
// window [Start, Start+Length); the monitor feeds every classified sample
// back through Observe, and the tracker resolves a prediction as
//
//   - failed    — an unrecoverable availability state (S3/S4/S5) was
//     observed inside the window, or
//   - survived  — the window's deadline passed with no failure observed,
//
// exactly the empirical-TR definition the paper's Section 5 evaluation
// measures offline over test days. Per (machine, predictor) the tracker
// maintains cumulative and rolling accuracy, Brier score, the mean
// predicted TR against the empirical survival rate, and a 10-bucket
// calibration table.
//
// Every query records one prediction per predictor it scores, so a served
// machine's pending queue sits at its cap and the costs that matter are the
// ones there: RecordPrediction is a mutex acquire, a map lookup and one slot
// write into a ring that allocates only while doubling up to the cap, and
// Observe of an up sample with nothing due is the same two plus one
// comparison against the ring's earliest deadline. Only a sample at or past
// that deadline, or a failure sample, walks the ring — once, in issue order.
//
// Memory is bounded at fleet scale: rolling state grows lazily up to the
// rolling-window cap per (machine, predictor), and a RetentionPolicy
// (SetRetention + periodic EvictIdle calls) evicts machines that have gone
// idle — stopped sampling and querying, i.e. left the fleet. The "_all"
// aggregates are never evicted, so fleet-level totals survive churn.
type Tracker struct {
	mu       sync.Mutex
	machines map[string]*machineState // pending window + last activity, keyed by machine
	stats    map[trackerKey]*accStats
	keys     []trackerKey // sorted by (machine, predictor) for stable output

	maxPending int
	retention  RetentionPolicy
	resolved   uint64
	dropped    uint64

	// resolutionSink, when set, is told about every resolved prediction so
	// the persistence layer can log it. Resolutions are collected under t.mu
	// and the sink invoked after release; on a host node Observe only runs
	// inside the persister's sample step, which serializes the sink's
	// appends against snapshots.
	resolutionSink func(machine, predictor string, tr float64, survived bool)
}

// CalibrationBuckets is the number of equal-width predicted-TR buckets in
// the calibration table.
const CalibrationBuckets = 10

// rollingWindow is the number of most-recent resolved predictions the
// rolling accuracy and Brier score are computed over.
const rollingWindow = 128

// defaultMaxPending bounds the per-machine queue of unresolved predictions;
// beyond it the oldest prediction is dropped (counted in DroppedPredictions).
const defaultMaxPending = 4096

type trackerKey struct {
	Machine   string
	Predictor string
}

// keyLess is the stable output order of t.keys.
func keyLess(a, b trackerKey) bool {
	if a.Machine != b.Machine {
		return a.Machine < b.Machine
	}
	return a.Predictor < b.Predictor
}

// pendingPred is one unresolved prediction in its machine's ring, laid out
// as RecordPrediction describes.
type pendingPred struct {
	predictor string
	tr        float64
	start     int64 // window start, UnixNano
	deadline  int64 // window end (exclusive), UnixNano
	failed    bool
}

// machineState is one machine's tracked state: its pending-prediction ring
// and the timestamp of its most recent activity (sample observed or
// prediction issued), which drives idle eviction.
type machineState struct {
	// ring holds the n pending predictions in issue order from head.
	ring    []pendingPred
	head, n int
	// earliest is a lower bound on the pending deadlines: exact after a
	// walk, stale-low once a cap drop has overwritten the entry that set it,
	// which costs the next Observe past it one walk that resolves nothing.
	earliest   int64
	lastActive time.Time
}

// push appends p in issue order, growing the ring by doubling up to limit
// slots; at limit it overwrites the oldest entry and reports the drop.
func (ms *machineState) push(p pendingPred, limit int) (dropped bool) {
	if ms.n == 0 || p.deadline < ms.earliest {
		ms.earliest = p.deadline
	}
	if ms.n == len(ms.ring) && ms.n < limit {
		// head is still 0 here: only the overwrite below moves it, and
		// that needs a ring already at limit.
		grown := make([]pendingPred, min(max(2*ms.n, 4), limit))
		copy(grown, ms.ring)
		ms.ring = grown
	}
	if ms.n == len(ms.ring) {
		ms.ring[ms.head] = p
		ms.head = ms.next(ms.head)
		return true
	}
	ms.ring[(ms.head+ms.n)%len(ms.ring)] = p
	ms.n++
	return false
}

// next is the ring index after i.
func (ms *machineState) next(i int) int {
	if i++; i == len(ms.ring) {
		return 0
	}
	return i
}

// accStats accumulates resolved outcomes for one (machine, predictor).
type accStats struct {
	resolved uint64
	survived uint64
	correct  uint64 // thresholded prediction (tr >= 0.5) matched the outcome
	sumTR    float64
	brierSum float64 // sum of (tr - outcome)^2

	calibCount    [CalibrationBuckets]uint64
	calibSurvived [CalibrationBuckets]uint64
	calibSumTR    [CalibrationBuckets]float64

	// ring holds the most recent resolved predictions. It grows lazily —
	// a machine resolved a handful of times carries a handful of entries,
	// not the full window — and wraps at rollingWindow once full.
	ring     []ringEntry
	ringNext int
}

type ringEntry struct {
	tr       float64
	survived bool
}

// RetentionPolicy bounds tracker memory across fleet churn. The zero value
// retains everything (the single-node default).
type RetentionPolicy struct {
	// IdleTTL evicts a machine whose last activity is at least this old
	// at EvictIdle time — typically the registry TTL, so tracker state
	// follows registration lifetime (0 = never).
	IdleTTL time.Duration
}

// NewTracker builds an empty tracker.
func NewTracker() *Tracker {
	return &Tracker{
		machines:   make(map[string]*machineState),
		stats:      make(map[trackerKey]*accStats),
		maxPending: defaultMaxPending,
	}
}

// SetRetention installs the memory-bounding policy. Enforcement is pull-
// based: the owner calls EvictIdle periodically (e.g. on the registry-TTL
// cadence); the hot RecordPrediction/Observe paths never scan.
func (t *Tracker) SetRetention(p RetentionPolicy) {
	t.mu.Lock()
	t.retention = p
	t.mu.Unlock()
}

// RecordPrediction registers one issued prediction: predictor claimed
// probability tr that machine stays available over [start, start+length).
// A queue at the cap holds 4 096 of these per machine, so the entry is kept
// small: the machine is the queue's map key, not a field, and the window is
// two UnixNano integers — 48 bytes where the key pair and two time.Time came
// to 96. start must therefore lie in the years UnixNano covers, 1678 to 2262.
func (t *Tracker) RecordPrediction(machine, predictor string, tr float64, start time.Time, length time.Duration) {
	if t == nil || length <= 0 {
		return
	}
	if tr < 0 {
		tr = 0
	} else if tr > 1 {
		tr = 1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	ms, ok := t.machines[machine]
	if !ok {
		ms = &machineState{}
		t.machines[machine] = ms
	}
	if ms.lastActive.Before(start) {
		ms.lastActive = start
	}
	at := start.UnixNano()
	if ms.push(pendingPred{predictor: predictor, tr: tr, start: at, deadline: at + int64(length)}, t.maxPending) {
		t.dropped++
	}
}

// Observe feeds one classified monitor sample: at time now the machine was
// in a recoverable state (up=true) or an unrecoverable one (up=false).
// Failures mark every pending prediction whose window covers now; any
// prediction whose deadline has passed resolves.
func (t *Tracker) Observe(machine string, now time.Time, up bool) {
	if t == nil {
		return
	}
	t.mu.Lock()
	var logged []pendingPred
	ms, ok := t.machines[machine]
	if !ok {
		t.mu.Unlock()
		return
	}
	if ms.lastActive.Before(now) {
		ms.lastActive = now
	}
	at := now.UnixNano()
	if ms.n == 0 || (up && at < ms.earliest) {
		t.mu.Unlock()
		return
	}
	// Resolve what is due and compact the rest toward head, in issue order.
	kept, earliest := 0, int64(0)
	for i, from, to := 0, ms.head, ms.head; i < ms.n; i, from = i+1, ms.next(from) {
		p := ms.ring[from]
		if at >= p.deadline {
			t.resolve(machine, p.predictor, p.tr, !p.failed)
			if t.resolutionSink != nil {
				logged = append(logged, p)
			}
			continue
		}
		if !up && at >= p.start {
			// Failure inside the window: the outcome is decided, but hold
			// the entry until its deadline so duplicate failures are cheap
			// no-ops — resolving early would double-count re-predictions.
			p.failed = true
		}
		if kept == 0 || p.deadline < earliest {
			earliest = p.deadline
		}
		ms.ring[to] = p
		to = ms.next(to)
		kept++
	}
	ms.n, ms.earliest = kept, earliest
	sink := t.resolutionSink
	t.mu.Unlock()
	if sink != nil {
		for _, p := range logged {
			sink(machine, p.predictor, p.tr, !p.failed)
		}
	}
}

// SetResolutionSink installs the persistence hook for resolved predictions.
// Call before samples start flowing.
func (t *Tracker) SetResolutionSink(fn func(machine, predictor string, tr float64, survived bool)) {
	t.mu.Lock()
	t.resolutionSink = fn
	t.mu.Unlock()
}

// RestoreResolution replays one logged resolution into the statistics, the
// exact fold resolve performed live (key plus "_all" aggregate), without
// firing the sink. Replaying the WAL's resolution records in order rebuilds
// every sum bit-for-bit because the TR values are persisted as exact
// float64 bits.
func (t *Tracker) RestoreResolution(machine, predictor string, tr float64, survived bool) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.resolve(machine, predictor, tr, survived)
}

// resolve folds one outcome into the (machine, predictor) stats and the
// all-machines aggregate. Callers hold t.mu.
func (t *Tracker) resolve(machine, predictor string, tr float64, survived bool) {
	t.resolved++
	for _, key := range [2]trackerKey{{Machine: machine, Predictor: predictor}, {Machine: "_all", Predictor: predictor}} {
		st, ok := t.stats[key]
		if !ok {
			st = &accStats{}
			t.stats[key] = st
			// Sorted insert: at fleet scale re-sorting the whole key list
			// on every new (machine, predictor) is quadratic; a binary
			// search plus shift keeps registration linear.
			i := sort.Search(len(t.keys), func(i int) bool { return !keyLess(t.keys[i], key) })
			t.keys = append(t.keys, trackerKey{})
			copy(t.keys[i+1:], t.keys[i:])
			t.keys[i] = key
			// Every machine with stats participates in retention, even
			// when its stats arrived via RestoreResolution and no live
			// sample has touched it yet (lastActive stays zero until one
			// does, making it the first idle-eviction candidate).
			if key.Machine != "_all" {
				if _, ok := t.machines[key.Machine]; !ok {
					t.machines[key.Machine] = &machineState{}
				}
			}
		}
		st.add(tr, survived)
	}
}

func (st *accStats) add(tr float64, survived bool) {
	outcome := 0.0
	if survived {
		outcome = 1
		st.survived++
	}
	st.resolved++
	st.sumTR += tr
	d := tr - outcome
	st.brierSum += d * d
	if (tr >= 0.5) == survived {
		st.correct++
	}
	b := int(tr * CalibrationBuckets)
	if b >= CalibrationBuckets {
		b = CalibrationBuckets - 1
	}
	st.calibCount[b]++
	st.calibSumTR[b] += tr
	if survived {
		st.calibSurvived[b]++
	}
	if len(st.ring) < rollingWindow {
		st.ring = append(st.ring, ringEntry{tr: tr, survived: survived})
	} else {
		st.ring[st.ringNext] = ringEntry{tr: tr, survived: survived}
		st.ringNext = (st.ringNext + 1) % rollingWindow
	}
}

// EvictIdle enforces the retention policy: machines whose last activity is
// at least IdleTTL old are evicted. Eviction removes the machine's pending
// window and its per-machine stats; the "_all" aggregates keep every
// resolution ever folded. Pending predictions discarded by eviction count as
// dropped. Returns the number of machines evicted.
func (t *Tracker) EvictIdle(now time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	ttl := t.retention.IdleTTL
	if ttl <= 0 {
		return 0
	}
	evict := make(map[string]bool)
	for name, ms := range t.machines {
		if now.Sub(ms.lastActive) >= ttl {
			evict[name] = true
		}
	}
	if len(evict) == 0 {
		return 0
	}
	for name := range evict {
		t.dropped += uint64(t.machines[name].n)
		delete(t.machines, name)
	}
	kept := t.keys[:0]
	for _, k := range t.keys {
		if evict[k.Machine] {
			delete(t.stats, k)
			continue
		}
		kept = append(kept, k)
	}
	t.keys = kept
	return len(evict)
}

// Machines reports the number of machines with tracked state (pending
// predictions or per-machine stats; the "_all" aggregate is not a machine).
func (t *Tracker) Machines() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.machines)
}

// CalibrationBucket is one row of the calibration table: of the predictions
// whose TR fell in [Lo, Hi), MeanTR is their average claim and Empirical the
// observed survival rate.
type CalibrationBucket struct {
	Lo        float64 `json:"lo"`
	Hi        float64 `json:"hi"`
	Count     uint64  `json:"count"`
	MeanTR    float64 `json:"mean_tr"`
	Empirical float64 `json:"empirical"`
}

// AccuracyStats is the resolved-outcome summary for one (machine,
// predictor) pair. Machine "_all" aggregates every machine.
type AccuracyStats struct {
	Machine   string `json:"machine"`
	Predictor string `json:"predictor"`
	// Resolved counts predictions whose window outcome has been observed;
	// Survived how many of those windows passed with no failure.
	Resolved uint64 `json:"resolved"`
	Survived uint64 `json:"survived"`
	// MeanTR is the average predicted TR; Empirical the observed survival
	// rate Survived/Resolved — the two quantities the paper compares.
	MeanTR    float64 `json:"mean_tr"`
	Empirical float64 `json:"empirical"`
	// Brier is the mean squared error of the probabilistic prediction
	// (lower is better; 0.25 is the score of a coin flip).
	Brier float64 `json:"brier"`
	// Accuracy is the fraction of predictions whose 0.5-thresholded claim
	// matched the outcome.
	Accuracy float64 `json:"accuracy"`
	// RollingBrier and RollingAccuracy cover only the most recent 128
	// resolved predictions.
	RollingBrier    float64 `json:"rolling_brier"`
	RollingAccuracy float64 `json:"rolling_accuracy"`
	// Calibration is the 10-bucket reliability table.
	Calibration []CalibrationBucket `json:"calibration,omitempty"`
}

// summary is the reportable view of one key: the figures accSums.stats
// derives from the sums, plus the rolling ones only this node's ring holds.
func (st *accStats) summary(key trackerKey) AccuracyStats {
	out := st.sums(key).stats()
	if len(st.ring) > 0 {
		var correct int
		for _, e := range st.ring {
			if (e.tr >= 0.5) == e.survived {
				correct++
			}
		}
		out.RollingBrier, _ = st.rollingBrier()
		out.RollingAccuracy = float64(correct) / float64(len(st.ring))
	}
	return out
}

// rollingBrier computes the Brier score over the ring and the number of
// entries backing it. Callers hold t.mu.
func (st *accStats) rollingBrier() (float64, int) {
	if len(st.ring) == 0 {
		return 0, 0
	}
	var sum float64
	for i := 0; i < len(st.ring); i++ {
		e := st.ring[i]
		outcome := 0.0
		if e.survived {
			outcome = 1
		}
		d := e.tr - outcome
		sum += d * d
	}
	return sum / float64(len(st.ring)), len(st.ring)
}

// All returns every (machine, predictor) summary in sorted order.
func (t *Tracker) All() []AccuracyStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]AccuracyStats, 0, len(t.keys))
	for _, key := range t.keys {
		out = append(out, t.stats[key].summary(key))
	}
	return out
}

// Pending reports the number of unresolved predictions across machines.
func (t *Tracker) Pending() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := 0
	for _, ms := range t.machines {
		n += ms.n
	}
	return n
}

// Resolved reports the total number of resolved predictions (each counted
// once, not per aggregate).
func (t *Tracker) Resolved() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.resolved
}

// DroppedPredictions reports predictions evicted unresolved by the
// per-machine pending cap.
func (t *Tracker) DroppedPredictions() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}
