package ishare

import (
	"context"
	"math"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"fgcs/internal/avail"
	"fgcs/internal/obs"
	"fgcs/internal/predict"
	"fgcs/internal/simclock"
	"fgcs/internal/trace"
)

// TestObservabilityEndToEnd drives a host node through twelve simulated days
// on a virtual clock, querying TR for the same four-hour window every
// morning, with the machine deterministically failing inside that window on
// every third day. It then checks that the online accuracy tracker's
// empirical survival rate matches the offline predict.EmpiricalTR over the
// exact same recorded days — the Section 5 ground truth — and that the
// QueryStats RPC and the /metrics endpoint expose the same numbers.
func TestObservabilityEndToEnd(t *testing.T) {
	const (
		days    = 12
		machine = "lab-01"
	)
	period := time.Minute
	clock := simclock.NewVirtual(monday)
	node, err := NewHostNode(NodeConfig{
		MachineID: machine,
		Cfg:       avail.DefaultConfig(),
		Period:    period,
		Clock:     clock,
	}, staticSource{})
	if err != nil {
		t.Fatal(err)
	}
	g := node.Gateway

	queryAt := 8 * time.Hour
	job := QueryTRReq{LengthSeconds: (4 * time.Hour).Seconds(), GuestMemMB: 100}
	failStart, failEnd := 10*time.Hour, 11*time.Hour // inside the queried window

	queries := 0
	for d := 0; d < days; d++ {
		date := monday.AddDate(0, 0, d)
		failing := d%3 == 2
		for off := time.Duration(0); off < 24*time.Hour; off += period {
			now := date.Add(off)
			clock.AdvanceTo(now)
			if off == queryAt {
				// Two identical queries: the second must be served
				// from the engine's kernel cache.
				for i := 0; i < 2; i++ {
					if _, err := g.QueryTR(context.Background(), job); err != nil {
						t.Fatalf("day %d query %d: %v", d, i, err)
					}
					queries++
				}
			}
			// A gentle deterministic load ripple that keeps the machine
			// idle (below Th1).
			cpu := 10 + 8*math.Sin(2*math.Pi*float64(off)/float64(3*time.Hour))
			s := sample(cpu, 400)
			if failing && off >= failStart && off < failEnd {
				s = trace.Sample{Up: false}
			}
			g.Record(now, s)
		}
	}

	tracker := node.Obs().Tracker
	if p := tracker.Pending(); p != 0 {
		t.Fatalf("pending = %d after all windows closed", p)
	}
	rows := map[string]obs.AccuracyStats{}
	for _, row := range tracker.All() {
		if row.Machine == machine {
			rows[row.Predictor] = row
		}
	}
	smp := rows["SMP"]
	if smp.Resolved != uint64(queries) {
		t.Fatalf("SMP resolved = %d, want %d", smp.Resolved, queries)
	}

	// Offline ground truth: the same window scored over the same recorded
	// days with the offline evaluator the paper's Section 5 figures use.
	cfg := avail.DefaultConfig()
	cfg.GuestMemMB = job.GuestMemMB
	w := predict.Window{Start: queryAt, Length: 4 * time.Hour}
	hist := node.SM.history()
	if len(hist) != days {
		t.Fatalf("recorded %d days, want %d", len(hist), days)
	}
	offline, n := predict.EmpiricalTR(hist, w, cfg)
	if n != days {
		t.Fatalf("offline EmpiricalTR used %d days, want %d", n, days)
	}
	if diff := smp.Empirical - offline; diff < -1e-12 || diff > 1e-12 {
		t.Fatalf("online empirical %.6f != offline %.6f", smp.Empirical, offline)
	}
	// The SMP's mean prediction converges toward the observed rate (it
	// starts optimistic with no history, so allow slack), and its Brier
	// score must at least beat the always-wrong extreme.
	if smp.MeanTR <= 0 || smp.MeanTR > 1 {
		t.Fatalf("SMP mean TR = %v out of range", smp.MeanTR)
	}
	if diff := smp.MeanTR - smp.Empirical; diff < -0.3 || diff > 0.3 {
		t.Fatalf("SMP mean TR %.4f far from empirical %.4f", smp.MeanTR, smp.Empirical)
	}
	if smp.Brier >= 0.5 {
		t.Fatalf("SMP Brier = %.4f, want < 0.5", smp.Brier)
	}
	// The tracker scores exactly the served predictor and its two shadows.
	// A shadow has no score for a query made before its day type had
	// history (the first Monday and the first Saturday here).
	if len(rows) != 3 {
		t.Errorf("tracker rows %v, want exactly SMP, FFT and PCT", rows)
	}
	for _, name := range []string{"FFT", "PCT"} {
		if got := rows[name].Resolved; got == 0 || got >= smp.Resolved {
			t.Errorf("%s resolved = %d, want between 1 and SMP's %d", name, got, smp.Resolved)
		}
	}

	// The engine cache served the repeated morning query.
	st := node.SM.EngineStats()
	if st.Hits == 0 || st.Misses == 0 {
		t.Fatalf("engine cache hits=%d misses=%d, want both > 0", st.Hits, st.Misses)
	}

	// QueryStats over the real wire: server, client retry layer, and the
	// capped decoders all participate.
	srv, err := g.ServeConfig("127.0.0.1:0", ServerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	rg := RemoteGateway{Addr: srv.Addr(), Timeout: 5 * time.Second}
	if _, err := rg.QueryStats(context.Background(), QueryStatsReq{}); err != nil {
		t.Fatal(err)
	}
	resp, err := rg.QueryStats(context.Background(), QueryStatsReq{Calibration: true})
	if err != nil {
		t.Fatal(err)
	}
	if resp.MachineID != machine {
		t.Fatalf("machine id = %q", resp.MachineID)
	}
	if resp.Engine.Hits != st.Hits || resp.Engine.Misses != st.Misses {
		t.Fatalf("RPC engine stats %+v != local %+v", resp.Engine, st)
	}
	if resp.Requests[msgQueryStats] < 1 {
		t.Fatalf("query-stats request count = %d, want >= 1", resp.Requests[msgQueryStats])
	}
	var gotSMP *obs.AccuracyStats
	for i := range resp.Accuracy {
		if resp.Accuracy[i].Machine == machine && resp.Accuracy[i].Predictor == "SMP" {
			gotSMP = &resp.Accuracy[i]
		}
	}
	if gotSMP == nil {
		t.Fatal("no SMP accuracy row in QueryStats response")
	}
	if gotSMP.Resolved != smp.Resolved || gotSMP.Empirical != smp.Empirical {
		t.Fatalf("RPC accuracy %+v != local %+v", *gotSMP, smp)
	}
	if len(gotSMP.Calibration) == 0 {
		t.Fatal("calibration requested but missing")
	}

	// The /metrics endpoint exposes the registry and the accuracy series.
	rec := httptest.NewRecorder()
	obs.FleetHandler(node.Obs().Registry, tracker, nil).ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	body := rec.Body.String()
	for _, want := range []string{
		"fgcs_engine_cache_hits_total",
		"fgcs_engine_fit_seconds_bucket",
		"fgcs_monitor_samples_total",
		"fgcs_gateway_requests_total{type=\"query-stats\"}",
		"fgcs_accuracy_brier{machine=\"lab-01\",predictor=\"SMP\"}",
		"fgcs_accuracy_empirical_tr{machine=\"_all\",predictor=\"PCT\"}",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}
