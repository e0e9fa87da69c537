package fleetsim

import (
	"bytes"
	"math"
	"testing"

	"fgcs/internal/obs"
)

// obsTestConfig is the base scenario for the observability-plane tests:
// small enough to run three times in short mode, long enough (3 simulated
// hours) that predictions issued after the mid-run perturbation point still
// resolve before the end. λ is raised above the default because with only
// 8 behavior profiles a single profile's daily down-window resolves a
// correlated burst of failed predictions — a genuine transient Brier spike
// of ~0.3 in one batch — which a persistent-regression alarm must ride out;
// empirically the spike stays under λ for a wide band (0.35..0.65) around
// the chosen 0.5 while the armed perturbation accumulates well past it.
func obsTestConfig() Config {
	return Config{
		Machines:    800,
		Gateways:    4,
		Profiles:    8,
		Ticks:       36,
		Workers:     4,
		Seed:        5,
		DriftLambda: 0.5,
	}
}

// TestFleetObsDeterministic is the fleet-observability acceptance test from
// the issue, in three legs:
//
//  1. Two identically seeded runs produce a byte-identical Sim section
//     including the fleet_obs block (merged counters, alerts, SLO verdicts).
//  2. A run with a seeded mid-run failure perturbation fires the
//     accuracy-drift detector; the unperturbed twin stays silent.
//  3. The aggregation sweep taken during the peer outage merges the dead
//     peer's warmed export as stale, and the merged fed-query-tr counter
//     equals the direct per-registry sum exactly.
func TestFleetObsDeterministic(t *testing.T) {
	cfg := obsTestConfig()
	r1, err := Run(cfg)
	if err != nil {
		t.Fatalf("base run 1: %v", err)
	}
	r2, err := Run(cfg)
	if err != nil {
		t.Fatalf("base run 2: %v", err)
	}

	// Leg 1: byte determinism of the Sim section, fleet_obs included.
	b1, b2 := r1.DeterministicBytes(), r2.DeterministicBytes()
	if !bytes.Equal(b1, b2) {
		t.Fatalf("same-seed runs diverged:\n--- run 1 ---\n%s\n--- run 2 ---\n%s", b1, b2)
	}
	fo := &r1.Sim.FleetObs
	if fo.PeersOK != cfg.Gateways || fo.PeersStale != 0 || fo.PeersUnreachable != 0 {
		t.Errorf("post-heal sweep = %d/%d/%d ok/stale/unreachable, want %d/0/0",
			fo.PeersOK, fo.PeersStale, fo.PeersUnreachable, cfg.Gateways)
	}
	if len(fo.GatewayRequests) == 0 {
		t.Error("merged snapshot carries no gateway request counters")
	}
	if len(fo.SLO) != 1 {
		t.Fatalf("slo statuses = %d, want 1", len(fo.SLO))
	}
	if st := fo.SLO[0]; !st.OK {
		t.Errorf("healthy run violates its SLO: %s", st.Reason)
	}
	if n := fo.AlertsByKind[obs.AlertAccuracyDrift]; n != 0 {
		t.Errorf("unperturbed run fired %d accuracy-drift alerts, want 0", n)
	}

	// Leg 3 (on the base run): outage-time aggregation.
	if fo.OutagePeersStale != 1 || fo.OutagePeersUnreachable != 0 {
		t.Errorf("outage sweep = %d/%d/%d ok/stale/unreachable, want %d/1/0",
			fo.OutagePeersOK, fo.OutagePeersStale, fo.OutagePeersUnreachable, cfg.Gateways-1)
	}
	if fo.OutageMergedFedQueryTR == 0 {
		t.Error("outage sweep merged zero fed-query-tr requests")
	}
	if fo.OutageMergedFedQueryTR != fo.OutageDirectFedQueryTR {
		t.Errorf("stale-merged fed-query-tr = %d, direct registry sum = %d (must be exactly equal)",
			fo.OutageMergedFedQueryTR, fo.OutageDirectFedQueryTR)
	}

	// Leg 2: the perturbed twin must fire the drift detector.
	pcfg := cfg
	pcfg.PerturbFailRate = 0.6
	pcfg.PerturbProfile = 0
	pcfg.PerturbTick = 18
	rp, err := Run(pcfg)
	if err != nil {
		t.Fatalf("perturbed run: %v", err)
	}
	pf := &rp.Sim.FleetObs
	if pf.AlertsTotal == 0 {
		t.Fatal("perturbed run fired no alerts at all")
	}
	if n := pf.AlertsByKind[obs.AlertAccuracyDrift]; n == 0 {
		t.Errorf("perturbed run fired no accuracy-drift alert (alerts by kind: %v)", pf.AlertsByKind)
	}
	if rp.Sim.PerturbFailRate != pcfg.PerturbFailRate || rp.Sim.PerturbTick != pcfg.PerturbTick {
		t.Errorf("perturbation echo = profile %d tick %d rate %v, want profile %d tick %d rate %v",
			rp.Sim.PerturbProfile, rp.Sim.PerturbTick, rp.Sim.PerturbFailRate,
			pcfg.PerturbProfile, pcfg.PerturbTick, pcfg.PerturbFailRate)
	}
}

// TestObsPlaneFlatInFleetSize holds the peer export to what a production
// peer has: registry series and alerts, a fixed set whatever the fleet size,
// so the aggregation's bytes per peer at 3 000 machines come within 10 % of
// those at 600. Both runs' traffic steps must also add up: feed, query,
// heartbeat, storm, eviction and obs time within 5 % of TrafficSeconds.
func TestObsPlaneFlatInFleetSize(t *testing.T) {
	var perPeer []float64
	for _, machines := range []int{600, 3000} {
		rep, err := Run(Config{Machines: machines, HistoryDays: 6, Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		p := &rep.Perf
		perPeer = append(perPeer, p.ObsBytesPerPeer)
		if steps := p.trafficStepSeconds(); math.Abs(steps-p.TrafficSeconds) > 0.05*p.TrafficSeconds {
			t.Errorf("%d machines: traffic steps sum to %.3fs of a %.3fs traffic phase", machines, steps, p.TrafficSeconds)
		}
	}
	if small, large := perPeer[0], perPeer[1]; small <= 0 || math.Abs(large-small) > 0.10*small {
		t.Errorf("obs bytes per peer %.0f at 600 machines, %.0f at 3000: the export grows with the fleet", small, large)
	}
}
