package obs

import (
	"fmt"
	"runtime"
	"testing"
	"time"
)

// TestTrackerChurnBounded drives 100k distinct machines through the tracker
// in waves — each wave registers predictions, observes their outcomes, then
// leaves the fleet — and checks that retention holds both the machine count
// and the heap flat. Without eviction, per-machine state accretes forever
// (the regression this test pins: ~100k machines x 6 predictors of rolling
// state used to survive the machines' departure).
func TestTrackerChurnBounded(t *testing.T) {
	const (
		totalMachines = 100_000
		waveSize      = 10_000
		idleTTL       = time.Hour
	)
	tr := NewTracker()
	tr.SetRetention(RetentionPolicy{IdleTTL: idleTTL})

	now := time.Date(2026, 3, 2, 0, 0, 0, 0, time.UTC)
	heapAt := func() uint64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}

	var heapAfterFirstWaves uint64
	evicted := 0
	for wave := 0; wave < totalMachines/waveSize; wave++ {
		for i := 0; i < waveSize; i++ {
			name := fmt.Sprintf("m%05d-%02d", i, wave)
			for _, pred := range [3]string{"SMP", "LAST", "MA"} {
				tr.RecordPrediction(name, pred, 0.75, now, 10*time.Minute)
			}
			// One mid-window sample, then one past the deadline: resolves
			// all three predictions as survived.
			tr.Observe(name, now.Add(5*time.Minute), true)
			tr.Observe(name, now.Add(11*time.Minute), true)
		}
		// The whole wave departs: time moves past the idle TTL and the
		// owner runs its periodic eviction sweep.
		now = now.Add(2 * idleTTL)
		evicted += tr.EvictIdle(now)
		// Idle-TTL eviction alone bounds the tracked machines by one wave.
		if got := tr.Machines(); got > waveSize {
			t.Fatalf("wave %d: %d machines tracked, at most one wave (%d) may be", wave, got, waveSize)
		}
		if wave == 1 {
			heapAfterFirstWaves = heapAt()
		}
	}

	heapEnd := heapAt()
	if heapAfterFirstWaves > 0 && heapEnd > heapAfterFirstWaves+8<<20 {
		t.Fatalf("heap grew across churn: %d -> %d bytes (limit +8MiB)", heapAfterFirstWaves, heapEnd)
	}
	if evicted == 0 {
		t.Fatal("no machines evicted over a 100k churn run")
	}
	// The fleet-wide aggregates survive eviction: every resolution ever
	// folded is still counted.
	all := statsOf(tr, "_all", "SMP")
	if all.Resolved != totalMachines {
		t.Fatalf("_all SMP resolved = %d, want %d", all.Resolved, totalMachines)
	}
	if tr.Resolved() != 3*totalMachines {
		t.Fatalf("resolved = %d, want %d", tr.Resolved(), 3*totalMachines)
	}
}
