package obs

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

var t0 = time.Date(2026, 3, 2, 9, 0, 0, 0, time.UTC)

// statsOf is the summary row of one (machine, predictor), zero-valued when
// nothing resolved yet. Machine "_all" aggregates across machines.
func statsOf(tr *Tracker, machine, predictor string) AccuracyStats {
	for _, s := range tr.All() {
		if s.Machine == machine && s.Predictor == predictor {
			return s
		}
	}
	return AccuracyStats{Machine: machine, Predictor: predictor}
}

func TestTrackerResolvesSurvivalAndFailure(t *testing.T) {
	tr := NewTracker()
	// Window 1 survives; window 2 sees a failure mid-window.
	tr.RecordPrediction("m1", "SMP", 0.9, t0, time.Hour)
	tr.RecordPrediction("m1", "SMP", 0.8, t0.Add(2*time.Hour), time.Hour)
	if tr.Pending() != 2 {
		t.Fatalf("pending = %d, want 2", tr.Pending())
	}
	// Samples inside window 1: all up.
	tr.Observe("m1", t0.Add(30*time.Minute), true)
	// Deadline of window 1 passes.
	tr.Observe("m1", t0.Add(61*time.Minute), true)
	// Failure inside window 2, then its deadline.
	tr.Observe("m1", t0.Add(2*time.Hour+10*time.Minute), false)
	tr.Observe("m1", t0.Add(3*time.Hour+time.Minute), true)

	s := statsOf(tr, "m1", "SMP")
	if s.Resolved != 2 || s.Survived != 1 {
		t.Fatalf("resolved/survived = %d/%d, want 2/1", s.Resolved, s.Survived)
	}
	if s.Empirical != 0.5 {
		t.Fatalf("empirical = %g, want 0.5", s.Empirical)
	}
	wantMean := (0.9 + 0.8) / 2
	if math.Abs(s.MeanTR-wantMean) > 1e-12 {
		t.Fatalf("mean TR = %g, want %g", s.MeanTR, wantMean)
	}
	wantBrier := ((0.9-1)*(0.9-1) + (0.8-0)*(0.8-0)) / 2
	if math.Abs(s.Brier-wantBrier) > 1e-12 {
		t.Fatalf("brier = %g, want %g", s.Brier, wantBrier)
	}
	if s.Accuracy != 0.5 { // 0.9 matched survival, 0.8 missed the failure
		t.Fatalf("accuracy = %g, want 0.5", s.Accuracy)
	}
	// The aggregate mirrors the single machine.
	if agg := statsOf(tr, "_all", "SMP"); agg.Resolved != 2 || agg.Survived != 1 {
		t.Fatalf("aggregate = %+v", agg)
	}
	if tr.Pending() != 0 {
		t.Fatalf("pending after resolution = %d, want 0", tr.Pending())
	}
}

func TestTrackerFailureBeforeWindowDoesNotCount(t *testing.T) {
	tr := NewTracker()
	tr.RecordPrediction("m1", "SMP", 1, t0, time.Hour)
	// A failure before the window opens must not condemn the prediction.
	tr.Observe("m1", t0.Add(-time.Minute), false)
	tr.Observe("m1", t0.Add(time.Hour), true)
	s := statsOf(tr, "m1", "SMP")
	if s.Resolved != 1 || s.Survived != 1 {
		t.Fatalf("resolved/survived = %d/%d, want 1/1", s.Resolved, s.Survived)
	}
}

func TestTrackerPerPredictorSeparation(t *testing.T) {
	tr := NewTracker()
	tr.RecordPrediction("m1", "SMP", 0.9, t0, time.Hour)
	tr.RecordPrediction("m1", "LAST", 0.1, t0, time.Hour)
	tr.Observe("m1", t0.Add(time.Hour), true)
	if s := statsOf(tr, "m1", "SMP"); s.Brier >= 0.02 {
		t.Fatalf("SMP brier = %g, want small", s.Brier)
	}
	if s := statsOf(tr, "m1", "LAST"); s.Brier <= 0.5 {
		t.Fatalf("LAST brier = %g, want large", s.Brier)
	}
	all := tr.All()
	if len(all) != 4 { // (m1, _all) x (SMP, LAST)
		t.Fatalf("All() returned %d summaries, want 4", len(all))
	}
}

func TestTrackerCalibration(t *testing.T) {
	tr := NewTracker()
	// 10 predictions at 0.85, 8 of which survive: bucket 8 should show
	// mean TR 0.85 against empirical 0.8.
	for i := 0; i < 10; i++ {
		start := t0.Add(time.Duration(i) * 2 * time.Hour)
		tr.RecordPrediction("m1", "SMP", 0.85, start, time.Hour)
		if i < 2 {
			tr.Observe("m1", start.Add(30*time.Minute), false)
		}
		tr.Observe("m1", start.Add(time.Hour), true)
	}
	s := statsOf(tr, "m1", "SMP")
	b := s.Calibration[8]
	if b.Count != 10 {
		t.Fatalf("bucket count = %d, want 10 (%+v)", b.Count, s.Calibration)
	}
	if math.Abs(b.MeanTR-0.85) > 1e-12 || math.Abs(b.Empirical-0.8) > 1e-12 {
		t.Fatalf("bucket mean/empirical = %g/%g, want 0.85/0.8", b.MeanTR, b.Empirical)
	}
}

func TestTrackerRollingWindow(t *testing.T) {
	tr := NewTracker()
	n := rollingWindow + 40
	// First 40 predictions are confidently wrong, the rest confidently
	// right: the rolling Brier forgets the bad start, the cumulative one
	// remembers it.
	for i := 0; i < n; i++ {
		start := t0.Add(time.Duration(i) * 2 * time.Hour)
		tr.RecordPrediction("m1", "SMP", 1, start, time.Hour)
		if i < 40 {
			tr.Observe("m1", start.Add(30*time.Minute), false)
		}
		tr.Observe("m1", start.Add(time.Hour+time.Second), true)
	}
	s := statsOf(tr, "m1", "SMP")
	if s.RollingBrier != 0 {
		t.Fatalf("rolling brier = %g, want 0", s.RollingBrier)
	}
	if s.Brier == 0 {
		t.Fatal("cumulative brier forgot the early misses")
	}
	if s.RollingAccuracy != 1 {
		t.Fatalf("rolling accuracy = %g, want 1", s.RollingAccuracy)
	}
}

func TestTrackerPendingCap(t *testing.T) {
	tr := NewTracker()
	tr.maxPending = 8
	for i := 0; i < 20; i++ {
		tr.RecordPrediction("m1", "SMP", 0.5, t0.Add(time.Duration(i)*time.Minute), time.Hour)
	}
	if tr.Pending() != 8 {
		t.Fatalf("pending = %d, want capped at 8", tr.Pending())
	}
	if tr.DroppedPredictions() != 12 {
		t.Fatalf("dropped = %d, want 12", tr.DroppedPredictions())
	}
}

// TestTrackerCapDropsOldest pins which predictions a full queue loses: the
// oldest ones, at the production cap, counted once each.
func TestTrackerCapDropsOldest(t *testing.T) {
	tr := NewTracker()
	const extra = 100
	// Prediction i claims TR 0 when it is among the first `extra` (the ones
	// the cap must drop) and 1 otherwise.
	for i := 0; i < defaultMaxPending+extra; i++ {
		claim := 1.0
		if i < extra {
			claim = 0
		}
		tr.RecordPrediction("m1", "SMP", claim, t0.Add(time.Duration(i)*time.Second), time.Hour)
	}
	if tr.Pending() != defaultMaxPending || tr.DroppedPredictions() != extra {
		t.Fatalf("pending/dropped = %d/%d, want %d/%d", tr.Pending(), tr.DroppedPredictions(), defaultMaxPending, extra)
	}
	tr.Observe("m1", t0.Add(3*time.Hour), true)
	s := statsOf(tr, "m1", "SMP")
	if s.Resolved != defaultMaxPending || s.MeanTR != 1 {
		t.Fatalf("resolved %d with mean TR %g: a prediction newer than the dropped ones is missing", s.Resolved, s.MeanTR)
	}
}

// TestTrackerResolvesInIssueOrderOnce: a prediction resolves at the first
// Observe at or after its deadline — not before, not again — and the
// predictions one sample resolves reach the sink in the order they were
// issued, whatever the order of their deadlines.
func TestTrackerResolvesInIssueOrderOnce(t *testing.T) {
	tr := NewTracker()
	var got []string
	tr.SetResolutionSink(func(machine, predictor string, _ float64, survived bool) {
		got = append(got, fmt.Sprintf("%s/%s/%v", machine, predictor, survived))
	})
	tr.RecordPrediction("m1", "long", 0.5, t0, 2*time.Hour)
	tr.RecordPrediction("m1", "short", 0.5, t0, time.Hour)
	tr.RecordPrediction("m1", "mid", 0.5, t0, 90*time.Minute)
	tr.Observe("m1", t0.Add(time.Hour-time.Nanosecond), true)
	if len(got) != 0 {
		t.Fatalf("resolved %v one nanosecond before the first deadline", got)
	}
	tr.Observe("m1", t0.Add(time.Hour), true) // exactly at the deadline
	if want := []string{"m1/short/true"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("at the first deadline: sink saw %v, want %v", got, want)
	}
	tr.Observe("m1", t0.Add(3*time.Hour), true)
	tr.Observe("m1", t0.Add(4*time.Hour), true)
	if want := []string{"m1/short/true", "m1/long/true", "m1/mid/true"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("sink saw %v, want %v", got, want)
	}
	if tr.Resolved() != 3 || tr.Pending() != 0 {
		t.Fatalf("resolved/pending = %d/%d, want 3/0", tr.Resolved(), tr.Pending())
	}
}

// TestTrackerFailureHeldToDeadline: a failure sample inside [start,
// deadline) decides the outcome but the entry stays pending until its
// deadline; a failure at the deadline itself is outside the window.
func TestTrackerFailureHeldToDeadline(t *testing.T) {
	tr := NewTracker()
	tr.RecordPrediction("m1", "A", 0.9, t0, time.Hour)
	tr.RecordPrediction("m1", "B", 0.9, t0.Add(30*time.Minute), 30*time.Minute)
	tr.Observe("m1", t0, false) // inside A's window (start inclusive), before B's
	tr.Observe("m1", t0.Add(10*time.Minute), false)
	if tr.Pending() != 2 || tr.Resolved() != 0 {
		t.Fatalf("pending/resolved = %d/%d after in-window failures, want 2/0", tr.Pending(), tr.Resolved())
	}
	tr.Observe("m1", t0.Add(time.Hour), false) // both deadlines: outside both windows
	if a, b := statsOf(tr, "m1", "A"), statsOf(tr, "m1", "B"); a.Resolved != 1 || a.Survived != 0 || b.Resolved != 1 || b.Survived != 1 {
		t.Fatalf("A resolved/survived %d/%d (want 1/0), B %d/%d (want 1/1)", a.Resolved, a.Survived, b.Resolved, b.Survived)
	}
}

// TestTrackerStaleEarliestCostsOneScan: when the cap overwrites the entry
// that set the earliest deadline, the remembered bound goes stale-low. The
// next sample past it must walk the queue once, resolve nothing, and leave
// the bound exact — and the predictions that are due later still resolve at
// their own deadlines.
func TestTrackerStaleEarliestCostsOneScan(t *testing.T) {
	tr := NewTracker()
	tr.maxPending = 4
	tr.RecordPrediction("m1", "early", 0.5, t0, time.Minute)
	for i := 0; i < 4; i++ {
		tr.RecordPrediction("m1", "late", 0.5, t0, time.Duration(i+2)*time.Hour)
	}
	ms := tr.machines["m1"]
	if tr.DroppedPredictions() != 1 || ms.earliest != t0.Add(time.Minute).UnixNano() {
		t.Fatalf("dropped %d, earliest %d: the early prediction should be gone and its deadline remembered", tr.DroppedPredictions(), ms.earliest)
	}
	tr.Observe("m1", t0.Add(time.Hour), true) // past the stale bound, before any live deadline
	if tr.Resolved() != 0 || tr.Pending() != 4 || ms.earliest != t0.Add(2*time.Hour).UnixNano() {
		t.Fatalf("resolved/pending %d/%d, earliest %d after the correcting scan", tr.Resolved(), tr.Pending(), ms.earliest)
	}
	tr.Observe("m1", t0.Add(2*time.Hour), true)
	tr.Observe("m1", t0.Add(3*time.Hour), true)
	if tr.Resolved() != 2 || tr.Pending() != 2 || ms.earliest != t0.Add(4*time.Hour).UnixNano() {
		t.Fatalf("resolved/pending %d/%d, earliest %d: a due prediction was missed", tr.Resolved(), tr.Pending(), ms.earliest)
	}
}

func TestTrackerNilRecordsNothing(t *testing.T) {
	var tr *Tracker
	tr.RecordPrediction("m1", "SMP", 0.5, t0, time.Hour)
	tr.Observe("m1", t0.Add(2*time.Hour), true)
	tr.RestoreResolution("m1", "SMP", 0.5, true)
	if n := tr.EvictIdle(t0); n != 0 {
		t.Fatalf("nil tracker evicted %d machines", n)
	}
}

func TestTrackerObserveNoPendingAllocs(t *testing.T) {
	tr := NewTracker()
	tr.RecordPrediction("m1", "SMP", 0.5, t0, time.Hour)
	tr.Observe("m1", t0.Add(2*time.Hour), true) // drain
	when := t0.Add(3 * time.Hour)
	if n := testing.AllocsPerRun(1000, func() { tr.Observe("m1", when, true) }); n != 0 {
		t.Fatalf("Observe with no due predictions allocates %v/op", n)
	}
}

// totalAlloc runs fn and returns the bytes it allocated. A per-call average
// (testing.AllocsPerRun) rounds a large copy every thousandth call down to
// zero; the byte count over the whole loop does not.
func totalAlloc(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// saturatedTracker returns a tracker whose m1 queue is at the production
// cap with nothing due before t0+24h.
func saturatedTracker() *Tracker {
	tr := NewTracker()
	for i := 0; i < defaultMaxPending; i++ {
		tr.RecordPrediction("m1", "SMP", 0.5, t0.Add(24*time.Hour), time.Hour)
	}
	return tr
}

// TestTrackerSaturatedQueueAllocatesNothing is the tripwire for the two
// costs every query and every monitor sample pay once a machine's queue is
// at the cap: recording into it and observing an up sample with nothing due.
func TestTrackerSaturatedQueueAllocatesNothing(t *testing.T) {
	tr := saturatedTracker()
	start := t0.Add(24 * time.Hour)
	// 256 bytes of slack absorbs the runtime's own bookkeeping; one copy of
	// the queue, which reslicing forward paid every ~1 000 calls, is 196 KB.
	if got := totalAlloc(func() {
		for i := 0; i < 3*defaultMaxPending; i++ {
			tr.RecordPrediction("m1", "SMP", 0.5, start, time.Hour)
		}
	}); got > 256 {
		t.Errorf("%d RecordPrediction calls on a saturated queue allocated %d bytes", 3*defaultMaxPending, got)
	}
	if tr.Pending() != defaultMaxPending || tr.DroppedPredictions() != 3*defaultMaxPending {
		t.Fatalf("pending/dropped = %d/%d", tr.Pending(), tr.DroppedPredictions())
	}
	when := t0.Add(time.Hour)
	if n := testing.AllocsPerRun(1000, func() { tr.Observe("m1", when, true) }); n != 0 {
		t.Errorf("Observe with nothing due on a saturated queue allocates %v/op", n)
	}
	if n := testing.AllocsPerRun(100, func() { tr.Observe("m1", when, false) }); n != 0 {
		t.Errorf("Observe of a failure before every window allocates %v/op", n)
	}
}

// BenchmarkTrackerSaturated measures the same two costs: RecordPrediction
// into a queue at the cap, and Observe of an up sample with nothing due.
func BenchmarkTrackerSaturated(b *testing.B) {
	b.Run("RecordPrediction", func(b *testing.B) {
		tr := saturatedTracker()
		start := t0.Add(24 * time.Hour)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			tr.RecordPrediction("m1", "SMP", 0.5, start, time.Hour)
		}
	})
	b.Run("ObserveNoDue", func(b *testing.B) {
		tr := saturatedTracker()
		when := t0.Add(time.Hour)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			tr.Observe("m1", when, true)
		}
	})
}

// BenchmarkTrackerObserveNoDue measures the monitor-tick cost of feeding a
// sample through a tracker with pending-but-not-due predictions — the
// steady state between a query and its window's deadline.
func BenchmarkTrackerObserveNoDue(b *testing.B) {
	tr := NewTracker()
	for i := 0; i < 8; i++ {
		tr.RecordPrediction("m1", "SMP", 0.5, t0.Add(24*time.Hour), time.Hour)
	}
	when := t0.Add(time.Hour)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr.Observe("m1", when, true)
	}
}

func TestTrackerWriteText(t *testing.T) {
	tr := NewTracker()
	tr.RecordPrediction("m1", "SMP", 0.75, t0, time.Hour)
	tr.Observe("m1", t0.Add(time.Hour), true)
	var sb strings.Builder
	if err := NodeSeries(nil, tr).WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# TYPE fgcs_accuracy_pending_predictions gauge\nfgcs_accuracy_pending_predictions 0\n",
		"# TYPE fgcs_accuracy_resolved_total counter\nfgcs_accuracy_resolved_total 1\n",
		`fgcs_accuracy_rolling_brier{machine="m1",predictor="SMP"} 0.0625`,
		`fgcs_accuracy_mean_tr{machine="m1",predictor="SMP"} 0.75`,
		`fgcs_accuracy_empirical_tr{machine="m1",predictor="SMP"} 1`,
		`fgcs_accuracy_brier{machine="_all",predictor="SMP"} 0.0625`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("tracker exposition missing %q:\n%s", want, out)
		}
	}
}

// TestTrackerConcurrentSnapshotWhileRecord exercises record/observe/stat
// paths concurrently; under -race this is the tracker's data-race gate.
func TestTrackerConcurrentSnapshotWhileRecord(t *testing.T) {
	tr := NewTracker()
	const writers = 4
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			machine := string(rune('a' + w))
			for i := 0; i < 2000; i++ {
				start := t0.Add(time.Duration(i) * time.Minute)
				tr.RecordPrediction(machine, "SMP", 0.5, start, 30*time.Second)
				tr.Observe(machine, start.Add(time.Minute), i%3 != 0)
			}
		}(w)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 300; i++ {
			_ = tr.All()
			_ = tr.Pending()
			_ = NodeSeries(nil, tr)
		}
	}()
	wg.Wait()
	<-done
	var total uint64
	for _, s := range tr.All() {
		if s.Machine == "_all" {
			total += s.Resolved
		}
	}
	// Each iteration's observation lands past its own prediction's
	// deadline, so every prediction resolves.
	want := uint64(writers * 2000)
	if total != want {
		t.Fatalf("aggregate resolved = %d, want %d", total, want)
	}
}

// referenceTracker is the pending queue as it was before the ring: one
// slice per machine holding the machine name and two time.Time per entry,
// resliced forward at the cap and copied in full by every Observe. It folds
// resolutions through a Tracker of its own whose rings stay empty, so the
// two implementations differ in the queue and nothing else.
type referenceTracker struct {
	*Tracker
	preds   map[string][]referencePred
	dropped uint64
}

type referencePred struct {
	key             trackerKey
	tr              float64
	start, deadline time.Time
	failed          bool
}

func newReferenceTracker(maxPending int) *referenceTracker {
	r := &referenceTracker{Tracker: NewTracker(), preds: make(map[string][]referencePred)}
	r.maxPending = maxPending
	return r
}

func (r *referenceTracker) RecordPrediction(machine, predictor string, tr float64, start time.Time, length time.Duration) {
	if length <= 0 {
		return
	}
	if tr < 0 {
		tr = 0
	} else if tr > 1 {
		tr = 1
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	ms, ok := r.machines[machine]
	if !ok {
		ms = &machineState{}
		r.machines[machine] = ms
	}
	if ms.lastActive.Before(start) {
		ms.lastActive = start
	}
	preds := r.preds[machine]
	if len(preds) >= r.maxPending {
		preds = preds[1:]
		r.dropped++
	}
	r.preds[machine] = append(preds, referencePred{
		key:      trackerKey{Machine: machine, Predictor: predictor},
		tr:       tr,
		start:    start,
		deadline: start.Add(length),
	})
}

func (r *referenceTracker) Observe(machine string, now time.Time, up bool) {
	r.mu.Lock()
	var logged []referencePred
	ms, ok := r.machines[machine]
	if !ok {
		r.mu.Unlock()
		return
	}
	if ms.lastActive.Before(now) {
		ms.lastActive = now
	}
	preds := r.preds[machine]
	kept := preds[:0]
	for i := range preds {
		p := preds[i]
		if !now.Before(p.deadline) {
			r.resolve(p.key.Machine, p.key.Predictor, p.tr, !p.failed)
			if r.resolutionSink != nil {
				logged = append(logged, p)
			}
			continue
		}
		if !up && !now.Before(p.start) {
			p.failed = true
		}
		kept = append(kept, p)
	}
	r.preds[machine] = kept
	sink := r.resolutionSink
	r.mu.Unlock()
	if sink != nil {
		for _, p := range logged {
			sink(p.key.Machine, p.key.Predictor, p.tr, !p.failed)
		}
	}
}

// EvictIdle lets the embedded tracker pick the machines (activity and stats
// live there) and then drops, and counts, the evicted machines' queues.
func (r *referenceTracker) EvictIdle(now time.Time) int {
	n := r.Tracker.EvictIdle(now)
	r.mu.Lock()
	defer r.mu.Unlock()
	for name, preds := range r.preds {
		if _, live := r.machines[name]; !live {
			r.dropped += uint64(len(preds))
			delete(r.preds, name)
		}
	}
	return n
}

func (r *referenceTracker) Pending() int {
	n := 0
	for _, preds := range r.preds {
		n += len(preds)
	}
	return n
}

func (r *referenceTracker) DroppedPredictions() uint64 { return r.dropped }

// trackerOpBytes is the size of one encoded operation of driveTrackers.
const trackerOpBytes = 3

// driveTrackers decodes ops — three bytes an operation: kind, a, b — into a
// schedule of RecordPrediction (single, or bursts that fill a queue; window
// lengths from 6 s to 10 h, so deadlines are not in arrival order), Observe
// (up and down, after clock steps from nothing to six hours) and EvictIdle,
// and applies it to a ring tracker and the reference at the given cap. After
// every operation the counters and the resolution sinks' call sequences must
// agree; every 256 operations and at the end so must every statistic, the
// float sums bit for bit.
func driveTrackers(t *testing.T, maxPending int, ops []byte) {
	t.Helper()
	machines := [3]string{"m1", "m2", "m3"}
	predictors := [4]string{"SMP", "LAST", "FFT", "AR(8)"}
	lengths := [8]time.Duration{6 * time.Second, time.Minute, 10 * time.Minute, time.Hour,
		time.Hour, 5 * time.Hour, 10 * time.Hour, 90 * time.Second}
	steps := [8]time.Duration{0, 6 * time.Second, 6 * time.Second, 30 * time.Second,
		time.Minute, 10 * time.Minute, time.Hour, 6 * time.Hour}

	ring, ref := NewTracker(), newReferenceTracker(maxPending)
	ring.maxPending = maxPending
	policy := RetentionPolicy{IdleTTL: 3 * time.Hour}
	ring.SetRetention(policy)
	ref.SetRetention(policy)
	var ringLog, refLog []string
	logTo := func(log *[]string) func(string, string, float64, bool) {
		return func(machine, predictor string, tr float64, survived bool) {
			*log = append(*log, fmt.Sprintf("%s %s %x %v", machine, predictor, math.Float64bits(tr), survived))
		}
	}
	ring.SetResolutionSink(logTo(&ringLog))
	ref.SetResolutionSink(logTo(&refLog))

	compareStats := func(op int) {
		if !reflect.DeepEqual(ring.All(), ref.All()) {
			t.Fatalf("op %d: All() differs:\nring %+v\nref  %+v", op, ring.All(), ref.All())
		}
		for key, want := range ref.stats {
			got := ring.stats[key]
			if math.Float64bits(got.sumTR) != math.Float64bits(want.sumTR) ||
				math.Float64bits(got.brierSum) != math.Float64bits(want.brierSum) ||
				got.calibSumTR != want.calibSumTR {
				t.Fatalf("op %d: %v sums differ: ring %+v, reference %+v", op, key, got, want)
			}
		}
	}

	// A burst is sized to the cap so that a few of them wrap the ring.
	burst := maxPending / 16
	if burst < 16 {
		burst = 16
	}
	now, checked := t0, 0
	for op := 0; (op+1)*trackerOpBytes <= len(ops); op++ {
		kind, a, b := ops[op*trackerOpBytes], ops[op*trackerOpBytes+1], ops[op*trackerOpBytes+2]
		record := func(machine string, i int) {
			claim := float64(b)/200 - 0.1 // some claims outside [0, 1]: clamped
			start := now.Add(time.Duration(i%3-1) * 6 * time.Second)
			ring.RecordPrediction(machine, predictors[i%4], claim, start, lengths[(int(b)+i)%8])
			ref.RecordPrediction(machine, predictors[i%4], claim, start, lengths[(int(b)+i)%8])
		}
		switch kind % 8 {
		case 0, 1, 2:
			record(machines[a%3], int(a>>2))
		case 3:
			for i := 0; i < burst*(1+int(a%16)); i++ {
				record(machines[b%3], i)
			}
		case 4, 5, 6:
			now = now.Add(steps[b%8])
			ring.Observe(machines[a%3], now, kind%8 != 6)
			ref.Observe(machines[a%3], now, kind%8 != 6)
		case 7:
			if a%4 != 0 { // an up sample with the clock standing still
				ring.Observe(machines[b%3], now, true)
				ref.Observe(machines[b%3], now, true)
			} else if got, want := ring.EvictIdle(now), ref.EvictIdle(now); got != want {
				t.Fatalf("op %d: EvictIdle evicted %d machines, reference %d", op, got, want)
			}
		}
		if ring.Pending() != ref.Pending() || ring.Resolved() != ref.Resolved() ||
			ring.DroppedPredictions() != ref.DroppedPredictions() || ring.Machines() != ref.Machines() {
			t.Fatalf("op %d (kind %d): pending/resolved/dropped/machines %d/%d/%d/%d, reference %d/%d/%d/%d", op, kind%8,
				ring.Pending(), ring.Resolved(), ring.DroppedPredictions(), ring.Machines(),
				ref.Pending(), ref.Resolved(), ref.DroppedPredictions(), ref.Machines())
		}
		if len(ringLog) != len(refLog) {
			t.Fatalf("op %d: sink saw %d resolutions, reference %d", op, len(ringLog), len(refLog))
		}
		for ; checked < len(refLog); checked++ {
			if ringLog[checked] != refLog[checked] {
				t.Fatalf("op %d: sink call %d = %q, reference %q", op, checked, ringLog[checked], refLog[checked])
			}
		}
		if op%256 == 255 {
			compareStats(op)
		}
	}
	compareStats(len(ops) / trackerOpBytes)
}

// TestTrackerMatchesReference drives the ring and the slice-based reference
// with seeded schedules at caps small enough to wrap constantly and at the
// production cap, long enough for several wrap-arounds of each.
func TestTrackerMatchesReference(t *testing.T) {
	for _, maxPending := range []int{1, 3, 16, defaultMaxPending} {
		for seed := int64(1); seed <= 2; seed++ {
			t.Run(fmt.Sprintf("cap%d/seed%d", maxPending, seed), func(t *testing.T) {
				// One operation in eight is a burst of, on average, half
				// the cap: the queues spend the run full and wrapping.
				ops := make([]byte, trackerOpBytes*1200)
				rand.New(rand.NewSource(seed)).Read(ops)
				driveTrackers(t, maxPending, ops)
			})
		}
	}
}
