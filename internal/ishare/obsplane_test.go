package ishare

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"fgcs/internal/obs"
	"fgcs/internal/simclock"
)

func TestStepObsShedRateAlert(t *testing.T) {
	o := NewNodeObs()
	now := time.Date(2026, 6, 4, 0, 0, 0, 0, time.UTC)

	// First step establishes the cursors over a clean baseline.
	o.requests[MsgQueryTR].Add(30)
	if fired := o.StepObs(now); len(fired) != 0 {
		t.Fatalf("baseline step fired %+v", fired)
	}

	// 15 sheds against 85 served requests: 15% > the 10% threshold.
	for i := 0; i < 15; i++ {
		o.Server.cShedInfl.Inc()
	}
	o.requests[MsgQueryTR].Add(85)
	fired := o.StepObs(now.Add(15 * time.Second))
	if len(fired) != 1 || fired[0].Kind != obs.AlertShedRate {
		t.Fatalf("want one shed-rate alert, got %+v", fired)
	}
	if fired[0].Value <= fired[0].Threshold {
		t.Errorf("shed rate %.3f not above threshold %.3f", fired[0].Value, fired[0].Threshold)
	}
	if got := o.Alerts.Alerts(0); len(got) != 1 || got[0].Seq != fired[0].Seq {
		t.Errorf("alert not appended to the node ring: %+v", got)
	}

	// A quiet step (under the minimum event count) must not divide by noise.
	o.Server.cShedInfl.Inc()
	if fired := o.StepObs(now.Add(30 * time.Second)); len(fired) != 0 {
		t.Fatalf("sub-minimum step fired %+v", fired)
	}
}

func TestStepObsBreakerFlapAlert(t *testing.T) {
	o := NewNodeObs()
	bs := NewBreakerSet(BreakerConfig{}, nil)
	o.instrumentBreakers(bs)
	opens := func(n int) {
		for i := 0; i < n; i++ {
			bs.onTransition("m1", breakerClosed, breakerOpen)
		}
	}
	now := time.Date(2026, 6, 4, 0, 0, 0, 0, time.UTC)
	o.StepObs(now)

	opens(2) // two opens in a step: below the flap threshold
	if fired := o.StepObs(now.Add(15 * time.Second)); len(fired) != 0 {
		t.Fatalf("two opens fired %+v", fired)
	}
	opens(3)
	fired := o.StepObs(now.Add(30 * time.Second))
	if len(fired) != 1 || fired[0].Kind != obs.AlertBreakerFlap {
		t.Fatalf("want one breaker-flap alert, got %+v", fired)
	}
	if fired[0].Value != 3 {
		t.Errorf("flap alert value %.0f, want 3 (the per-step delta)", fired[0].Value)
	}
}

func TestFedQueryObsLocalAndFleet(t *testing.T) {
	// Peers need a NodeObs wired for served RPCs to count; buildFederation
	// leaves it off (most tests do not want metric overhead).
	nodes := buildFederationWith(t, 3, 1, nil, nil, nil, func(i int, cfg *FedConfig) {
		cfg.Obs = NewNodeObs()
	})
	ctx := context.Background()
	caller := &Caller{}

	// The local form answers with this peer's binary export.
	var resp QueryObsResp
	if err := caller.Call(ctx, nodes[1].srv.Addr(), msgQueryObs, QueryObsReq{Local: true}, &resp, 2*time.Second); err != nil {
		t.Fatal(err)
	}
	if resp.Fleet != nil {
		t.Error("local form answered with a fleet view")
	}
	po, err := obs.DecodeObsSnapshot(resp.Snapshot)
	if err != nil {
		t.Fatalf("local export does not decode: %v", err)
	}
	if po.Peer != "fed1" {
		t.Errorf("local export names peer %q, want fed1", po.Peer)
	}

	// The federated form fans out and merges: every peer ok, and the peers'
	// serving counters (they each just served our RPCs) are in the merge.
	resp = QueryObsResp{}
	if err := caller.Call(ctx, nodes[0].srv.Addr(), msgQueryObs, QueryObsReq{}, &resp, 2*time.Second); err != nil {
		t.Fatal(err)
	}
	if resp.Fleet == nil {
		t.Fatal("federated form returned no fleet view")
	}
	if len(resp.Fleet.Peers) != 3 {
		t.Fatalf("%d peer rows, want 3", len(resp.Fleet.Peers))
	}
	for _, p := range resp.Fleet.Peers {
		if p.Status != obs.PeerOK {
			t.Errorf("peer %s status %q, want ok", p.Peer, p.Status)
		}
	}
	var served uint64
	for id, v := range resp.Fleet.Counters {
		if strings.HasPrefix(id, "fgcs_gateway_requests_total") {
			served += v
		}
	}
	if served == 0 {
		t.Error("merged fleet view carries no serving counters")
	}
}

func TestFedFleetObsStaleAndUnreachable(t *testing.T) {
	nodes := buildFederation(t, 3, 1, nil)
	ctx := context.Background()

	// Warm pass: every peer answers, and fed1's export lands in the cache.
	fs := nodes[0].gw.FleetObs(ctx)
	for _, p := range fs.Peers {
		if p.Status != obs.PeerOK {
			t.Fatalf("warm pass: peer %s status %q", p.Peer, p.Status)
		}
	}

	// fed1 goes down: its cached export merges marked stale, with the fetch
	// error on the row; the fleet totals still include its counters.
	nodes[1].srv.Close()
	fs = nodes[0].gw.FleetObs(ctx)
	statuses := map[string]obs.PeerStatus{}
	for _, p := range fs.Peers {
		statuses[p.Peer] = p
	}
	if st := statuses["fed1"]; st.Status != obs.PeerStale || st.Err == "" {
		t.Errorf("down peer with warm cache: %+v, want stale with an error", st)
	}
	if st := statuses["fed2"]; st.Status != obs.PeerOK {
		t.Errorf("healthy peer marked %q", st.Status)
	}

	// A peer that was never reached has nothing to serve stale: a fresh
	// aggregator marks it unreachable.
	fresh := buildFederation(t, 3, 1, nil)
	fresh[2].srv.Close()
	fs = fresh[0].gw.FleetObs(ctx)
	statuses = map[string]obs.PeerStatus{}
	for _, p := range fs.Peers {
		statuses[p.Peer] = p
	}
	if st := statuses["fed2"]; st.Status != obs.PeerUnreachable || st.Err == "" {
		t.Errorf("never-seen down peer: %+v, want unreachable with an error", st)
	}
}

// TestFedFleetObsLyingPeer answers query-obs from one peer with exports no
// registry could produce. At FGOS v1 the first was merged and printed as a
// forged sample line on the aggregator's fleet page and the second panicked
// the page's renderer; now the decoder turns both away, the liar shows as
// unreachable — or stale, once an honest export of it is cached — with the
// decode error on its row, and the page still renders with the honest peers
// merged.
func TestFedFleetObsLyingPeer(t *testing.T) {
	forged := (&obs.PeerObs{Peer: "fed1", Metrics: obs.Snapshot{{Name: "fgcs_x 1\nfgcs_gateway_requests_total",
		Labels: []obs.Label{{Key: "type", Value: "query-tr"}}, Count: 999999}}}).EncodeBinary()
	broken := (&obs.PeerObs{Peer: "fed1", Metrics: obs.Snapshot{{Name: "fgcs_h{", Kind: obs.KindHistogram,
		Hist: obs.HistogramSnapshot{Bounds: []float64{1}, Counts: []uint64{1, 0}, Sum: 1, Count: 1}}}}).EncodeBinary()

	nodes := buildFederationWith(t, 3, 1, nil, nil, nil, func(i int, cfg *FedConfig) {
		cfg.Obs = NewNodeObs()
	})
	agg, liar := nodes[0].gw, nodes[1]
	honest := liar.gw.Handler()
	fleetPage := func() string {
		rec := httptest.NewRecorder()
		obs.FleetHandler(nil, nil, func(r *http.Request) (*obs.FleetSnapshot, error) {
			return agg.FleetObs(r.Context()), nil
		}).ServeHTTP(rec, httptest.NewRequest("GET", "/metrics?scope=fleet", nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("fleet page answered %d: %s", rec.Code, rec.Body)
		}
		return rec.Body.String()
	}
	for i, lie := range [][]byte{forged, broken} {
		liar.cell.set(func(req Request) (interface{}, error) {
			if req.Type == msgQueryObs {
				return QueryObsResp{Peer: "fed1", Snapshot: lie}, nil
			}
			return honest(req)
		})
		want := obs.PeerUnreachable
		if i > 0 {
			want = obs.PeerStale // the honest pass below cached an export
		}
		page := fleetPage()
		for _, line := range []string{
			`fgcs_fleet_peer_status{peer="fed1",status="` + want + `"} 1`,
			`fgcs_fleet_peer_status{peer="fed2",status="ok"} 1`,
			"# TYPE fgcs_gateway_requests_total counter",
			`fgcs_gateway_requests_total{type="query-obs"}`,
		} {
			if !strings.Contains(page, line) {
				t.Errorf("lie %d: fleet page lacks %q", i, line)
			}
		}
		if strings.Contains(page, " 999999\n") || strings.Contains(page, "fgcs_h{") || strings.Contains(page, "fgcs_h_") {
			t.Errorf("lie %d: the liar's series reached the fleet page:\n%s", i, page)
		}
		for _, p := range agg.FleetObs(context.Background()).Peers {
			if p.Peer == "fed1" && (p.Status != want || !strings.Contains(p.Err, "malformed")) {
				t.Errorf("lie %d: liar's status row %+v, want %s with the decode error", i, p, want)
			}
		}
		liar.cell.set(honest)
		if page := fleetPage(); !strings.Contains(page, `fgcs_fleet_peer_status{peer="fed1",status="ok"} 1`) {
			t.Errorf("lie %d: the peer did not recover once it told the truth", i)
		}
	}
}

func TestFedReadyTransitions(t *testing.T) {
	// A shared frozen clock makes convergence deterministic: a re-pushed
	// entry recomputes an identical expiry, so fresher-wins rejects it and
	// the accepted-count delta reaches zero. Under wall clocks the recomputed
	// expiry shifts by delivery-latency jitter and rounds can keep accepting.
	clock := simclock.NewVirtual(time.Date(2026, 6, 4, 0, 0, 0, 0, time.UTC))
	nodes := buildFederation(t, 3, 2, clock)
	gw := nodes[0].gw
	ctx := context.Background()

	if err := gw.Ready(); err == nil || !strings.Contains(err.Error(), "sync pending") {
		t.Fatalf("fresh gateway ready: %v", err)
	}
	gw.SyncOnce(ctx)
	if err := gw.Ready(); err != nil {
		t.Fatalf("empty-registry gateway not ready after a sync round: %v", err)
	}

	// Hand fed0 an entry its peers have not seen (a replica push, as if the
	// others restarted): the next round delivers it, peers newly accept, and
	// readiness holds back until a round changes nothing.
	caller := &Caller{}
	push := fedSyncReq{From: "fed9", Entries: []fedEntry{{MachineID: "m-ready", Addr: "127.0.0.1:9", TTLSeconds: 300}}}
	if err := caller.Call(ctx, nodes[0].srv.Addr(), msgFedSync, push, nil, 2*time.Second); err != nil {
		t.Fatal(err)
	}
	gw.SyncOnce(ctx)
	if err := gw.Ready(); err == nil || !strings.Contains(err.Error(), "converging") {
		t.Fatalf("gateway ready while peers were still accepting entries: %v", err)
	}
	gw.SyncOnce(ctx)
	if err := gw.Ready(); err != nil {
		t.Fatalf("gateway not ready after convergence: %v", err)
	}
}

// TestFedReadyRingOfOne: a peer with no other ring member has nothing to
// converge with, so it is ready at once; a second member brings the sync
// conditions back.
func TestFedReadyRingOfOne(t *testing.T) {
	solo := ringOfOne(t, FedConfig{})
	if err := solo.Ready(); err != nil {
		t.Fatalf("ring of one not ready without a sync round: %v", err)
	}

	pair := buildFederation(t, 2, 1, nil)[0].gw
	if err := pair.Ready(); err == nil || !strings.Contains(err.Error(), "sync pending") {
		t.Fatalf("ring of two ready before any round: %v", err)
	}
	pair.SyncOnce(context.Background())
	if err := pair.Ready(); err != nil {
		t.Fatalf("ring of two not ready after a clean round: %v", err)
	}
}
