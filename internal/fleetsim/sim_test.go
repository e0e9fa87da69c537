package fleetsim

import (
	"bytes"
	"flag"
	"net"
	"os"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"fgcs/internal/ishare"
)

// TestFleetSimDeterministic is the short-mode fleet smoke: two identically
// seeded ~1k-machine runs must produce byte-identical deterministic report
// sections, and the scenario itself must complete cleanly (no failed
// queries, a day rollover mid-traffic, churn reaped, restart converged).
func TestFleetSimDeterministic(t *testing.T) {
	cfg := Config{Machines: 1000, Workers: 4, Seed: 7}
	r1, err := Run(cfg)
	if err != nil {
		t.Fatalf("run 1: %v", err)
	}
	r2, err := Run(cfg)
	if err != nil {
		t.Fatalf("run 2: %v", err)
	}
	b1, b2 := r1.DeterministicBytes(), r2.DeterministicBytes()
	if !bytes.Equal(b1, b2) {
		t.Fatalf("same-seed runs diverged:\n--- run 1 ---\n%s\n--- run 2 ---\n%s", b1, b2)
	}

	s := &r1.Sim
	if s.QueryFailures != 0 {
		t.Errorf("query failures = %d, want 0", s.QueryFailures)
	}
	if s.DayRollovers < 1 {
		t.Errorf("day rollovers = %d, want >= 1 (traffic must cross midnight)", s.DayRollovers)
	}
	if s.OutageFailures != 0 {
		t.Errorf("outage failures = %d, want 0 (replicas must cover the dead peer)", s.OutageFailures)
	}
	if s.ConvergenceRounds < 1 || s.ConvergenceRounds > 4 {
		t.Errorf("convergence rounds = %d, want 1..4", s.ConvergenceRounds)
	}
	if s.RestartEntries == 0 {
		t.Error("restarted peer recovered no entries")
	}
	if s.EntriesAfterReap >= s.EntriesBeforeReap {
		t.Errorf("reap did not shrink the registry: %d -> %d", s.EntriesBeforeReap, s.EntriesAfterReap)
	}
	if s.LeaveMachines == 0 || s.JoinMachines == 0 {
		t.Errorf("churn storm empty: -%d/+%d", s.LeaveMachines, s.JoinMachines)
	}
	if s.TrackerResolved == 0 {
		t.Error("accuracy tracker resolved nothing")
	}
	if s.TrackerEvictedMachines == 0 {
		t.Error("no tracker state evicted despite the leave storm")
	}
	u := &s.Utilization
	if u.UpFraction <= 0.5 || u.UpFraction > 1 {
		t.Errorf("up fraction = %v, want (0.5, 1]", u.UpFraction)
	}
	if u.MeanPredictedTR <= 0 || u.MeanPredictedTR > 1 {
		t.Errorf("mean predicted TR = %v, want (0, 1]", u.MeanPredictedTR)
	}
	if u.HarvestableFraction <= 0 || u.HarvestableFraction >= 1 {
		t.Errorf("harvestable fraction = %v, want (0, 1)", u.HarvestableFraction)
	}
}

// TestFleetPeersAreProductionPeers holds the fleet's federation to the one
// ishared runs. Each peer keeps the zero config's breakers and differs from
// ishared's caller only by singleAttempt and rpcTimeout. Its clients pool
// as isharec and HostNode.Publish do: a registration storm opens at most
// one connection from each traffic worker to each peer, besides the peers'
// own pooled hops, where a dial per RPC would open one per registration.
// The breakers then quarantine a dead peer after three failed
// single-attempt pushes, and admit a probe once the cooldown passes.
func TestFleetPeersAreProductionPeers(t *testing.T) {
	cfg := Config{Machines: 120, Gateways: 3, Workers: 1, Seed: 3}.withDefaults()
	rep := &Report{}
	f, err := buildFleet(cfg, rep)
	if err != nil {
		t.Fatal(err)
	}
	defer f.close()
	for i := range f.feds {
		c := f.fedConfig(i)
		if c.Breakers != nil || c.Caller.Retry != singleAttempt || c.Timeout != rpcTimeout {
			t.Fatalf("peer %d: breakers %v, retry %+v, timeout %v; want the zero config's breakers, singleAttempt and rpcTimeout",
				i, c.Breakers, c.Caller.Retry, c.Timeout)
		}
	}
	var conns atomic.Int64
	for i, p := range f.peers {
		h := f.feds[i].Handler()
		f.net.Handle(p.Addr, func(c net.Conn) {
			conns.Add(1)
			ishare.ServeListener(nil, h, liftedCaps).ServeConn(c)
		})
	}
	f.registerStorm(rep)
	if n, limit := conns.Load(), int64(len(f.peers)*(cfg.Workers+len(f.peers)-1)); n > limit {
		t.Fatalf("registering %d machines opened %d connections to the peers, want at most %d (pooled clients and hops)",
			f.registered, n, limit)
	}

	dead, pusher := f.peers[0], f.feds[1]
	f.net.Partition(dead.Addr)
	breaker := func() string {
		for _, p := range pusher.RingStats().Peers {
			if p.ID == dead.ID {
				return p.Breaker
			}
		}
		return ""
	}
	attempts := func() uint64 {
		return f.peerObs[1].Registry.Snapshot().Find("fgcs_client_rpc_attempts_total").Count
	}
	for round := 1; round <= 3; round++ {
		before := attempts()
		pusher.SyncOnce(f.ctx)
		// One attempt per live peer pushed to, and one to the dead peer.
		if got, want := attempts()-before, uint64(len(f.peers)-1); got != want {
			t.Fatalf("round %d: %d attempts, want %d (single attempt per push)", round, got, want)
		}
	}
	if got := breaker(); got != "open" {
		t.Fatalf("dead peer's breaker %q after three failed pushes, want open", got)
	}
	before := attempts()
	pusher.SyncOnce(f.ctx)
	if got, want := attempts()-before, uint64(len(f.peers)-2); got != want {
		t.Fatalf("open breaker: %d attempts, want %d (the dead peer skipped)", got, want)
	}
	f.clock.Advance(syncEvery)
	if got := breaker(); got != "half-open" {
		t.Fatalf("breaker %q after the cooldown, want half-open", got)
	}
}

// TestFleetSimValidation pins the config guard rails.
func TestFleetSimValidation(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
		want string
	}{
		{"one gateway", Config{Gateways: 1}, "at least 2 gateways"},
		{"replicas ge gateways", Config{Gateways: 3, Replicas: 3}, "replicas 3"},
		// 8 heartbeat ticks of 12 min reach the 90 min registry TTL.
		{"heartbeat past ttl", Config{Period: 12 * time.Minute}, "heartbeat interval 1h36m0s"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := Run(tc.cfg); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want one naming %q", err, tc.want)
			}
		})
	}
}

var update = flag.Bool("update", false, "rewrite testdata/sim_3000x6.json")

// TestFleetSimGolden holds the sim block of `fleetsim -machines 3000
// -history-days 6 -workers 2` (seed 1) to testdata/sim_3000x6.json byte for
// byte; `make golden-update` rewrites it. A change that moves any
// deterministic figure of the fleet run shows as a diff of that file.
func TestFleetSimGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a 3000-machine fleet")
	}
	rep, err := Run(Config{Machines: 3000, HistoryDays: 6, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	got := rep.DeterministicBytes()
	const path = "testdata/sim_3000x6.json"
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("the sim block differs from %s (make golden-update rewrites it)\n--- generated ---\n%s", path, got)
	}
}
