package fleetsim

import (
	"context"
	"math"
	"testing"
	"time"

	"fgcs/internal/avail"
	"fgcs/internal/durable"
	"fgcs/internal/ishare"
	"fgcs/internal/simclock"
)

// TestDayRolloverUnderWAL crosses a simulated day boundary mid-traffic on a
// WAL-backed node and checks the completed-day handoff: once queries run
// from the new day, yesterday's log is part of the prediction history (not
// stale), straggler samples into the sealed day are dropped rather than
// mutating state under the predictor, and a crash-recovery from the WAL
// reproduces the post-rollover answers bit for bit.
func TestDayRolloverUnderWAL(t *testing.T) {
	const (
		period      = 5 * time.Minute
		preloadDays = 2
		seed        = 99
	)
	ctx := context.Background()
	// A Wednesday: the two preloaded days (Mon, Tue) share its day type, so
	// they all count as history under weekday/weekend pooling. The state
	// manager pools every day (no -history bound), so the completed day
	// joining the history shows as one more window.
	day0 := time.Date(2026, 6, 3, 0, 0, 0, 0, time.UTC)
	start := day0.Add(23*time.Hour + 30*time.Minute)
	clock := simclock.NewVirtual(start)
	prof := genProfiles(seed, 1, period, preloadDays, day0)[0]
	availCfg := avail.DefaultConfig()
	fs := durable.NewMemFS()

	boot := func(rec *durable.Recovery, st *durable.Store) (*ishare.StateManager, *ishare.Persister) {
		sm, err := ishare.NewStateManager("m0", period, availCfg, clock, prof.machine, 0)
		if err != nil {
			t.Fatal(err)
		}
		gw, err := ishare.NewGateway("m0", availCfg, period, clock, sm)
		if err != nil {
			t.Fatal(err)
		}
		p, err := ishare.NewPersister(st, rec, sm, gw, nil)
		if err != nil {
			t.Fatal(err)
		}
		return sm, p
	}

	st, rec, err := durable.Open(durable.Config{FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	if rec.Snapshot != "" || len(rec.Records) != 0 {
		t.Fatal("fresh store not empty")
	}
	sm, p := boot(nil, st)

	query := func(sm *ishare.StateManager) ishare.QueryTRResp {
		resp, err := sm.QueryTR(ctx, ishare.QueryTRReq{LengthSeconds: 1800, GuestMemMB: 100})
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}

	// Feed across midnight, querying after every sample. Before the
	// rollover the prediction fits over the preloaded days only; the first
	// query of the new day must see yesterday as completed history.
	sawRollover := false
	for i := 0; i < 18; i++ { // 23:35 .. 01:00
		clock.Advance(period)
		now := clock.Now()
		p.Record(now, prof.sampleAt(now))
		resp := query(sm)
		if now.Before(day0.Add(24 * time.Hour)) {
			if resp.HistoryWindows != preloadDays {
				t.Fatalf("%s: history windows = %d, want %d", now.Format("15:04"), resp.HistoryWindows, preloadDays)
			}
		} else {
			sawRollover = true
			if resp.HistoryWindows != preloadDays+1 {
				t.Fatalf("%s: history windows = %d after rollover, want %d (completed day missing: stale history)",
					now.Format("15:04"), resp.HistoryWindows, preloadDays+1)
			}
		}
	}
	if !sawRollover {
		t.Fatal("traffic never crossed midnight")
	}

	// A straggler sample aimed into the sealed day must not change the
	// answer: completed days are immutable once handed to the predictor.
	before := query(sm)
	p.Record(day0.Add(23*time.Hour+55*time.Minute), prof.sampleAt(day0.Add(23*time.Hour+55*time.Minute)))
	after := query(sm)
	if math.Float64bits(before.TR) != math.Float64bits(after.TR) || before.HistoryWindows != after.HistoryWindows {
		t.Fatalf("sealed-day straggler changed the prediction: TR %v -> %v, windows %d -> %d",
			before.TR, after.TR, before.HistoryWindows, after.HistoryWindows)
	}

	// Crash (no clean shutdown) and recover from the WAL: the restarted
	// node must answer exactly as the pre-crash node, including the
	// completed day.
	preCrash := query(sm)
	st2, rec2, err := durable.Open(durable.Config{FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	if len(rec2.Records) == 0 {
		t.Fatal("recovery replayed no WAL records")
	}
	sm2, _ := boot(rec2, st2)
	recovered := query(sm2)
	if math.Float64bits(recovered.TR) != math.Float64bits(preCrash.TR) {
		t.Fatalf("recovered TR %v != pre-crash TR %v", recovered.TR, preCrash.TR)
	}
	if recovered.HistoryWindows != preCrash.HistoryWindows {
		t.Fatalf("recovered history windows %d != pre-crash %d (stale completed-day state after recovery)",
			recovered.HistoryWindows, preCrash.HistoryWindows)
	}
	if recovered.CurrentState != preCrash.CurrentState {
		t.Fatalf("recovered state %s != pre-crash %s", recovered.CurrentState, preCrash.CurrentState)
	}
}
