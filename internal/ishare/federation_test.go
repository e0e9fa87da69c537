package ishare

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"fgcs/internal/simclock"
)

// stubMachine is a minimal host-gateway stand-in: deterministic TR,
// idempotency-keyed submits, canned job status. It lets federation tests
// exercise routing without spinning full prediction stacks.
type stubMachine struct {
	id  string
	tr  float64
	srv *Server

	mu      sync.Mutex
	submits map[string]string
	nextJob int
	lastKey string
	queries int
}

func newStubMachine(t *testing.T, id string, tr float64) *stubMachine {
	t.Helper()
	m := &stubMachine{id: id, tr: tr, submits: make(map[string]string)}
	srv, err := NewServerConfig("127.0.0.1:0", m.handler, ServerConfig{})
	if err != nil {
		t.Fatalf("stub machine %s: %v", id, err)
	}
	m.srv = srv
	t.Cleanup(func() { srv.Close() })
	return m
}

func (m *stubMachine) addr() string { return m.srv.Addr() }

func (m *stubMachine) handler(req Request) (interface{}, error) {
	switch req.Type {
	case MsgQueryTR:
		m.mu.Lock()
		m.queries++
		m.mu.Unlock()
		return QueryTRResp{TR: m.tr, HistoryWindows: 7, CurrentState: "S1"}, nil
	case MsgSubmit:
		var s SubmitReq
		if err := json.Unmarshal(req.Payload, &s); err != nil {
			return nil, fmt.Errorf("malformed submit")
		}
		m.mu.Lock()
		defer m.mu.Unlock()
		m.lastKey = s.IdempotencyKey
		if s.IdempotencyKey != "" {
			if id, ok := m.submits[s.IdempotencyKey]; ok {
				return SubmitResp{JobID: id}, nil
			}
		}
		m.nextJob++
		id := fmt.Sprintf("%s-job-%d", m.id, m.nextJob)
		if s.IdempotencyKey != "" {
			m.submits[s.IdempotencyKey] = id
		}
		return SubmitResp{JobID: id}, nil
	case msgJobStatus:
		var s JobStatusReq
		if err := json.Unmarshal(req.Payload, &s); err != nil {
			return nil, fmt.Errorf("malformed status")
		}
		return JobStatusResp{JobID: s.JobID, State: "running", WorkSeconds: 10}, nil
	case msgKillJob:
		var s JobStatusReq
		if err := json.Unmarshal(req.Payload, &s); err != nil {
			return nil, fmt.Errorf("malformed kill")
		}
		return JobStatusResp{JobID: s.JobID, State: "killed"}, nil
	default:
		return nil, fmt.Errorf("stub: unknown request type %q", req.Type)
	}
}

// handlerCell breaks the server/gateway construction cycle: servers must
// bind before peer addresses are known, so they start with an empty cell
// that is filled once every FedGateway exists.
type handlerCell struct {
	mu sync.RWMutex
	h  Handler
}

func (c *handlerCell) set(h Handler) {
	c.mu.Lock()
	c.h = h
	c.mu.Unlock()
}

func (c *handlerCell) handle(req Request) (interface{}, error) {
	c.mu.RLock()
	h := c.h
	c.mu.RUnlock()
	if h == nil {
		return nil, fmt.Errorf("fed peer not ready")
	}
	return h(req)
}

type fedNode struct {
	gw   *FedGateway
	srv  *Server // nil on an in-memory network
	addr string
	// cell holds the handler the peer serves; a test swaps it to make the peer lie.
	cell *handlerCell
}

// memServe adapts h to an in-memory network's registration: one
// listener-less Server serves the server end of every connection, as it
// would the connections a TCP endpoint accepts.
func memServe(h Handler) func(net.Conn) { return ServeListener(nil, h, ServerConfig{}).ServeConn }

// buildFederation starts n federation peers (fed0..fedN-1) on loopback
// with the given replica count and a shared clock, wired with tight retry
// backoff so dead-peer failover is fast in tests.
func buildFederation(t *testing.T, n, replicas int, clock simclock.Clock) []*fedNode {
	t.Helper()
	return buildFederationWith(t, n, replicas, clock, nil, nil, nil)
}

// buildFederationWith is buildFederation with a choice of network and a
// per-peer config hook (tracers, breakers, pools). With handle nil the peers
// listen on loopback TCP; otherwise handle registers peer i at the address
// fed<i> of an in-memory network, which the peers reach through d.
func buildFederationWith(t *testing.T, n, replicas int, clock simclock.Clock, d Dialer, handle func(addr string, serve func(net.Conn)), mutate func(i int, cfg *FedConfig)) []*fedNode {
	t.Helper()
	cells := make([]*handlerCell, n)
	servers := make([]*Server, n)
	peers := make([]Peer, n)
	for i := range peers {
		cells[i] = &handlerCell{}
		peers[i] = Peer{ID: fmt.Sprintf("fed%d", i), Addr: fmt.Sprintf("fed%d", i)}
		if handle != nil {
			handle(peers[i].Addr, memServe(cells[i].handle))
			t.Cleanup(func() { handle(peers[i].Addr, nil) })
			continue
		}
		srv, err := NewServerConfig("127.0.0.1:0", cells[i].handle, ServerConfig{})
		if err != nil {
			t.Fatalf("fed server %d: %v", i, err)
		}
		servers[i] = srv
		peers[i].Addr = srv.Addr()
		t.Cleanup(func() { srv.Close() })
	}
	nodes := make([]*fedNode, n)
	for i := range nodes {
		cfg := FedConfig{
			Self:     peers[i],
			Peers:    peers,
			Replicas: replicas,
			Caller: &Caller{
				Dialer:     d,
				Retry:      RetryPolicy{MaxAttempts: 3, BaseDelay: time.Millisecond, MaxDelay: 4 * time.Millisecond},
				JitterSeed: uint64(1000 + i),
			},
			Timeout: 2 * time.Second,
			Clock:   clock,
		}
		if mutate != nil {
			mutate(i, &cfg)
		}
		gw, err := NewFedGateway(cfg)
		if err != nil {
			t.Fatalf("fed gateway %d: %v", i, err)
		}
		cells[i].set(gw.Handler())
		nodes[i] = &fedNode{gw: gw, srv: servers[i], addr: peers[i].Addr, cell: cells[i]}
	}
	return nodes
}

// fedRegister registers a machine through the given peer over the wire,
// exactly as a host node's heartbeat would; d nil dials over TCP.
func fedRegister(t *testing.T, d Dialer, peerAddr, machine, machineAddr string, ttl time.Duration) {
	t.Helper()
	caller := &Caller{Dialer: d}
	reg := registerReq{MachineID: machine, Addr: machineAddr, TTLSeconds: ttl.Seconds()}
	if err := caller.Call(context.Background(), peerAddr, msgRegister, reg, nil, 2*time.Second); err != nil {
		t.Fatalf("register %s via %s: %v", machine, peerAddr, err)
	}
}

// pickPeer returns the index of a peer matching (or not matching) the
// candidate set of a machine.
func pickPeer(t *testing.T, nodes []*fedNode, machine string, inCandidates bool) int {
	t.Helper()
	cands := map[string]bool{}
	for _, p := range nodes[0].gw.Candidates(machine) {
		cands[p.ID] = true
	}
	for i, n := range nodes {
		if cands[n.gw.self.ID] == inCandidates {
			return i
		}
	}
	t.Fatalf("no peer with inCandidates=%v for %s", inCandidates, machine)
	return -1
}

func TestFedRegisterRoutesToOwnerAndReplicates(t *testing.T) {
	nodes := buildFederation(t, 4, 1, nil)
	machine := newStubMachine(t, "m-route", 0.9)

	entry := pickPeer(t, nodes, "m-route", false) // a non-candidate peer
	fedRegister(t, nil, nodes[entry].srv.Addr(), "m-route", machine.addr(), 0)

	cands := map[string]bool{}
	for _, p := range nodes[0].gw.Candidates("m-route") {
		cands[p.ID] = true
	}
	if len(cands) != 2 {
		t.Fatalf("candidate set size = %d, want 2 (owner + 1 replica)", len(cands))
	}
	for _, n := range nodes {
		_, ok := n.gw.lookup("m-route")
		if want := cands[n.gw.self.ID]; ok != want {
			t.Errorf("peer %s holds entry = %v, want %v", n.gw.self.ID, ok, want)
		}
	}

	// A query entering at a non-candidate peer is forwarded and answered.
	fc := FedClient{Addr: nodes[entry].srv.Addr(), Caller: &Caller{}}
	resp, err := fc.QueryTR(context.Background(), "m-route", QueryTRReq{LengthSeconds: 3600})
	if err != nil {
		t.Fatalf("federated QueryTR: %v", err)
	}
	if resp.TR != 0.9 || resp.CurrentState != "S1" {
		t.Errorf("QueryTR = %+v, want TR 0.9 in S1", resp)
	}
	if st := nodes[entry].gw.RingStats(); st.Forwarded == 0 {
		t.Errorf("entry peer forwarded counter = 0, want > 0")
	}
}

// TestFedReplicaFailoverUntilTTL is the ISSUE's replica-failover check: a
// registry entry survives the owner gateway's death — queries reroute to a
// replica — until its TTL expires.
func TestFedReplicaFailoverUntilTTL(t *testing.T) {
	clock := simclock.NewVirtual(time.Date(2005, 8, 22, 8, 0, 0, 0, time.UTC))
	nodes := buildFederation(t, 3, 1, clock)
	machine := newStubMachine(t, "m-failover", 0.75)

	cands := nodes[0].gw.Candidates("m-failover")
	if len(cands) != 2 {
		t.Fatalf("candidate set size = %d, want 2", len(cands))
	}
	var owner *fedNode
	for _, n := range nodes {
		if n.gw.self.ID == cands[0].ID {
			owner = n
		}
	}
	fedRegister(t, nil, owner.srv.Addr(), "m-failover", machine.addr(), 90*time.Second)

	// Kill the owner. The entry must survive on the replica.
	owner.srv.Close()

	entry := pickPeer(t, nodes, "m-failover", false)
	fc := FedClient{
		Addr: nodes[entry].srv.Addr(),
		Caller: &Caller{
			Retry:      RetryPolicy{MaxAttempts: 2, BaseDelay: time.Millisecond, MaxDelay: 2 * time.Millisecond},
			JitterSeed: 7,
		},
	}
	resp, err := fc.QueryTR(context.Background(), "m-failover", QueryTRReq{LengthSeconds: 1800})
	if err != nil {
		t.Fatalf("QueryTR after owner death: %v", err)
	}
	if resp.TR != 0.75 {
		t.Errorf("QueryTR after owner death TR = %v, want 0.75", resp.TR)
	}

	// Past the TTL the replica must stop serving the dead registration.
	clock.Advance(91 * time.Second)
	if _, err := fc.QueryTR(context.Background(), "m-failover", QueryTRReq{LengthSeconds: 1800}); err == nil {
		t.Fatal("QueryTR succeeded after TTL expiry; want failure")
	}
}

func TestFedSubmitIdempotencyKeyAttachedAtEntry(t *testing.T) {
	nodes := buildFederation(t, 3, 2, nil)
	machine := newStubMachine(t, "m-submit", 0.8)
	fedRegister(t, nil, nodes[0].srv.Addr(), "m-submit", machine.addr(), 0)

	// Enter via a non-owner peer (with K=2 on three peers everyone holds a
	// replica, so the interesting property is the key attachment itself).
	owner := nodes[0].gw.Candidates("m-submit")[0].ID
	entry := 0
	for i, n := range nodes {
		if n.gw.self.ID != owner {
			entry = i
			break
		}
	}
	fc := FedClient{Addr: nodes[entry].srv.Addr(), Caller: &Caller{}}
	resp, err := fc.Submit(context.Background(), "m-submit", SubmitReq{Name: "guest", WorkSeconds: 100})
	if err != nil {
		t.Fatalf("federated submit: %v", err)
	}
	if resp.JobID == "" {
		t.Fatal("federated submit returned empty job id")
	}
	machine.mu.Lock()
	key := machine.lastKey
	machine.mu.Unlock()
	if key == "" {
		t.Error("submit reached the machine without an idempotency key; the entry peer should attach one")
	}

	// Replaying the same key through a different peer must return the
	// original job, not launch a second guest.
	other := (entry + 1) % len(nodes)
	fc2 := FedClient{Addr: nodes[other].srv.Addr(), Caller: &Caller{}}
	again, err := fc2.Submit(context.Background(), "m-submit", SubmitReq{Name: "guest", WorkSeconds: 100, IdempotencyKey: key})
	if err != nil {
		t.Fatalf("replayed submit: %v", err)
	}
	if again.JobID != resp.JobID {
		t.Errorf("replayed submit job = %s, want original %s", again.JobID, resp.JobID)
	}
}

func TestFedRankMergesAllShards(t *testing.T) {
	nodes := buildFederation(t, 4, -1, nil) // replicas < 0: no replication, shards disjoint
	trs := map[string]float64{"rank-a": 0.95, "rank-b": 0.55, "rank-c": 0.75, "rank-d": 0.15}
	for id, tr := range trs {
		m := newStubMachine(t, id, tr)
		fedRegister(t, nil, nodes[0].srv.Addr(), id, m.addr(), 0)
	}
	// Shards must actually be disjoint for the test to mean anything.
	total := 0
	for _, n := range nodes {
		total += len(n.gw.localResources())
	}
	if total != len(trs) {
		t.Fatalf("entries across peers = %d, want %d (no replication)", total, len(trs))
	}

	fc := FedClient{Addr: nodes[3].srv.Addr(), Caller: &Caller{}}
	sched, err := fc.Scheduler(context.Background())
	if err != nil {
		t.Fatalf("federated scheduler: %v", err)
	}
	ranked, fails, err := sched.Rank(context.Background(), SubmitReq{WorkSeconds: 3600})
	if err != nil {
		t.Fatalf("federated rank: %v", err)
	}
	if len(fails) != 0 {
		t.Fatalf("rank failures: %v", fails)
	}
	want := []string{"rank-a", "rank-c", "rank-b", "rank-d"}
	if len(ranked) != len(want) {
		t.Fatalf("ranked %d machines, want %d", len(ranked), len(want))
	}
	for i, id := range want {
		if ranked[i].MachineID != id {
			t.Errorf("rank[%d] = %s (TR %v), want %s", i, ranked[i].MachineID, ranked[i].TR, id)
		}
	}

	// SubmitBest lands on the top-ranked machine.
	best, sub, err := sched.SubmitBest(context.Background(), SubmitReq{Name: "best", WorkSeconds: 60})
	if err != nil {
		t.Fatalf("SubmitBest: %v", err)
	}
	if best.MachineID != "rank-a" || !strings.HasPrefix(sub.JobID, "rank-a-job-") {
		t.Errorf("SubmitBest placed on %s (job %s), want rank-a", best.MachineID, sub.JobID)
	}
}

// TestFedLocalRequestIsNeverReforwarded pins the loop-prevention rule: a
// request already marked Local must be served from the receiving peer's
// shard or rejected — never forwarded again.
func TestFedLocalRequestIsNeverReforwarded(t *testing.T) {
	nodes := buildFederation(t, 2, -1, nil)
	machine := newStubMachine(t, "m-local", 0.5)
	fedRegister(t, nil, nodes[0].srv.Addr(), "m-local", machine.addr(), 0)

	var holder, other *fedNode
	for _, n := range nodes {
		if _, ok := n.gw.lookup("m-local"); ok {
			holder = n
		} else {
			other = n
		}
	}
	if holder == nil || other == nil {
		t.Fatal("expected exactly one peer to hold the entry")
	}

	caller := &Caller{}
	var resp QueryTRResp
	req := FedQueryTRReq{Machine: "m-local", Local: true, Query: QueryTRReq{LengthSeconds: 60}}
	err := caller.Call(context.Background(), other.srv.Addr(), msgFedQueryTR, req, &resp, 2*time.Second)
	if err == nil {
		t.Fatal("local-marked request for a foreign machine succeeded; it must not be re-forwarded")
	}
	if !isUnknownMachine(err) {
		t.Errorf("err = %v, want an unknown-machine rejection", err)
	}
	if st := other.gw.RingStats(); st.Forwarded != 0 {
		t.Errorf("peer forwarded a local-marked request (forwarded=%d)", st.Forwarded)
	}
}

func TestFedSyncOnceHealsRestartedPeer(t *testing.T) {
	nodes := buildFederation(t, 3, 2, nil)
	machine := newStubMachine(t, "m-heal", 0.6)
	fedRegister(t, nil, nodes[0].srv.Addr(), "m-heal", machine.addr(), 0)

	// Simulate an amnesiac restart: wipe one candidate's shard.
	victim := pickPeer(t, nodes, "m-heal", true)
	nodes[victim].gw.mu.Lock()
	nodes[victim].gw.entries = make(map[string]RegEntry)
	nodes[victim].gw.mu.Unlock()
	if _, ok := nodes[victim].gw.lookup("m-heal"); ok {
		t.Fatal("victim still holds the entry after wipe")
	}

	// One anti-entropy round from any other candidate repairs it.
	for i, n := range nodes {
		if i != victim {
			n.gw.SyncOnce(context.Background())
		}
	}
	if _, ok := nodes[victim].gw.lookup("m-heal"); !ok {
		t.Error("anti-entropy did not restore the wiped entry")
	}
	st := nodes[victim].gw.RingStats()
	if st.SyncAccepted == 0 {
		t.Errorf("victim sync_accepted = 0, want > 0")
	}
	found := false
	for _, row := range st.Peers {
		if !row.Self && row.LastSyncAgeSeconds >= 0 {
			found = true
		}
	}
	if !found {
		t.Error("ring stats report no peer with a recorded sync age")
	}
}

func TestFedQueryStatsCarriesRing(t *testing.T) {
	nodes := buildFederation(t, 3, 1, nil)
	machine := newStubMachine(t, "m-stats", 0.4)
	fedRegister(t, nil, nodes[0].srv.Addr(), "m-stats", machine.addr(), 0)

	rg := RemoteGateway{Addr: nodes[0].srv.Addr(), Caller: &Caller{}}
	st, err := rg.QueryStats(context.Background(), QueryStatsReq{})
	if err != nil {
		t.Fatalf("query-stats against fed peer: %v", err)
	}
	if st.Ring == nil {
		t.Fatal("query-stats from a federation peer lacks ring state")
	}
	if st.Ring.Self != "fed0" || st.Ring.Replicas != 1 || st.Ring.Vnodes != DefaultVnodes {
		t.Errorf("ring header = %+v, want self=fed0 replicas=1 vnodes=%d", st.Ring, DefaultVnodes)
	}
	if len(st.Ring.Peers) != 3 {
		t.Errorf("ring peers = %d, want 3", len(st.Ring.Peers))
	}
	ownedTotal := 0
	for _, row := range st.Ring.Peers {
		ownedTotal += row.OwnedEntries
	}
	if holderHas := st.Ring.Entries; holderHas > 0 && ownedTotal != holderHas {
		t.Errorf("owned-entries sum %d != entries %d", ownedTotal, holderHas)
	}
}

func TestFedGatewayConfigValidation(t *testing.T) {
	peers := []Peer{{ID: "a", Addr: "a:1"}, {ID: "b", Addr: "b:1"}}
	cases := []struct {
		name string
		cfg  FedConfig
	}{
		{"missing self", FedConfig{Peers: peers}},
		{"self not listed", FedConfig{Self: Peer{ID: "c", Addr: "c:1"}, Peers: peers}},
		{"no peers", FedConfig{Self: peers[0]}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := NewFedGateway(tc.cfg); err == nil {
				t.Error("want error, got nil")
			}
		})
	}
	// Replica count is capped at the peer count.
	gw, err := NewFedGateway(FedConfig{Self: peers[0], Peers: peers, Replicas: 5})
	if err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	if got := len(gw.Candidates("anything")); got != 2 {
		t.Errorf("candidates = %d, want 2 (replicas capped at peers-1)", got)
	}
}

// failingDialer fails the test on any dial.
type failingDialer struct{ t *testing.T }

func (d failingDialer) DialTimeout(network, addr string, timeout time.Duration) (net.Conn, error) {
	d.t.Errorf("ring of one dialed %s", addr)
	return nil, errors.New("dial refused by test")
}

// TestRingOfOneNeverDials drives every registry-side operation of a
// one-member ring: each key's candidate set is the peer itself, so nothing
// may leave the process. (Proxying a query to a registered machine is the
// one operation that dials, and it dials the machine, not a peer.)
func TestRingOfOneNeverDials(t *testing.T) {
	ctx := context.Background()
	gw := ringOfOne(t, FedConfig{Caller: &Caller{Dialer: failingDialer{t}}})
	if resp, err := gw.discover(ctx, discoverReq{}); err != nil || len(resp.Resources) != 0 {
		t.Errorf("discover on an empty shard: %+v, %v", resp, err)
	}
	regTTL(t, gw, "m-1", "10.0.0.1:7", time.Minute)
	regTTL(t, gw, "m-2", "10.0.0.2:7", 0)
	if err := gw.register(ctx, registerReq{MachineID: "m-3", Addr: "10.0.0.3:7", Forwarded: true}); err != nil {
		t.Fatal(err)
	}
	h := gw.Handler()
	for _, payload := range []string{`{}`, `{"local":true}`} {
		resp, err := h(Request{Type: msgDiscover, Payload: json.RawMessage(payload)})
		if err != nil || len(resp.(discoverResp).Resources) != 3 {
			t.Errorf("discover %s = %+v, %v", payload, resp, err)
		}
	}
	if sent := gw.SyncOnce(ctx); sent != 0 {
		t.Errorf("SyncOnce pushed %d entries to nobody", sent)
	}
	if _, err := gw.FedQueryTR(ctx, FedQueryTRReq{Machine: "m-unknown"}); !isUnknownMachine(err) {
		t.Errorf("fed-query-tr for an unknown machine: %v", err)
	}
	if st := gw.RingStats(); st.Entries != 3 || st.Owned != 3 || st.Forwarded != 0 || st.SyncPushed != 0 {
		t.Errorf("ring stats = %+v", st)
	}
}

// TestFedPeerHopsDialOncePerPeer counts every dial each peer of a 3-peer
// ring makes through forwarded queries, forwarded registrations with their
// replication, and an anti-entropy round: peer hops share one pooled
// connection per peer, so no peer dials another more than once, and a
// machine is dialed three times at most: its first two hops dial per RPC,
// and the hops after them ride one pooled connection.
func TestFedPeerHopsDialOncePerPeer(t *testing.T) {
	dialers := make([]*countingDialer, 3)
	nodes := buildFederationWith(t, 3, 1, nil, nil, nil, func(i int, cfg *FedConfig) {
		dialers[i] = &countingDialer{}
		cfg.Caller.Dialer = dialers[i]
	})
	ctx := context.Background()
	const machines, rounds = 6, 5
	for i := 0; i < machines; i++ {
		id := fmt.Sprintf("m%d", i)
		m := newStubMachine(t, id, 0.5)
		fedRegister(t, nil, nodes[pickPeer(t, nodes, id, false)].srv.Addr(), id, m.addr(), 0)
	}
	for r := 0; r < rounds; r++ {
		for i := 0; i < machines; i++ {
			id := fmt.Sprintf("m%d", i)
			fc := FedClient{Addr: nodes[pickPeer(t, nodes, id, false)].srv.Addr(), Timeout: 2 * time.Second, Caller: &Caller{}}
			if _, err := fc.QueryTR(ctx, id, QueryTRReq{LengthSeconds: 3600}); err != nil {
				t.Fatalf("forwarded query for %s: %v", id, err)
			}
		}
	}
	for _, n := range nodes {
		n.gw.SyncOnce(ctx)
	}
	forwarded, allMachineDials := uint64(0), 0
	for i, n := range nodes {
		forwarded += n.gw.RingStats().Forwarded
		peerDials, machineDials := 0, dialers[i].count()
		for _, p := range nodes {
			peerDials += dialers[i].countTo(p.srv.Addr())
		}
		machineDials -= peerDials
		allMachineDials += machineDials
		if peerDials > len(nodes)-1 {
			t.Errorf("peer %d dialed its peers %d times, want at most %d", i, peerDials, len(nodes)-1)
		}
		t.Logf("peer %d: %d peer dials, %d machine dials", i, peerDials, machineDials)
	}
	if allMachineDials > warmHops*machines {
		t.Errorf("the ring dialed %d machines %d times, want at most %d", machines, allMachineDials, warmHops*machines)
	}
	if forwarded < machines*(rounds+1) {
		t.Fatalf("ring forwarded %d requests, want at least %d", forwarded, machines*(rounds+1))
	}
}

// TestFedMachineHopPoolsOnlyWhenWarm steps a one-peer ring's virtual clock
// between hops to one machine: the first two hops of a run, each within
// poolIdleMax of the one before, dial per RPC; from the third on the hops
// ride the machine pool, which dials once and reuses its connection. A
// longer gap starts a new run, whose first hop closes the pool's
// connection, idle as long; the run's third hop redials it.
func TestFedMachineHopPoolsOnlyWhenWarm(t *testing.T) {
	clk := simclock.NewVirtual(time.Date(2005, 9, 2, 8, 30, 0, 0, time.UTC))
	d := &countingDialer{}
	gw := ringOfOne(t, FedConfig{Caller: &Caller{Dialer: d}, Clock: clk})
	m := newStubMachine(t, "m", 0.5)
	regTTL(t, gw, "m", m.addr(), 0)
	for i, step := range []struct {
		gap    time.Duration
		dials  int
		pooled bool // the machine pool holds a connection after the hop
	}{
		{0, 1, false},                         // a run's first hop dials per RPC
		{time.Second, 2, false},               // and its second
		{time.Second, 3, true},                // the third rides the pool, which dials
		{time.Second, 3, true},                // its connection is reused
		{poolIdleMax, 3, true},                // poolIdleMax later is the same run
		{poolIdleMax + time.Second, 4, false}, // a new run dials per RPC and closes the idle pooled connection
		{time.Second, 5, false},
		{time.Second, 6, true}, // the pool redials
		{time.Second, 6, true},
	} {
		clk.Advance(step.gap)
		if resp, err := gw.FedQueryTR(context.Background(), FedQueryTRReq{Machine: "m"}); err != nil || resp.TR != 0.5 {
			t.Fatalf("hop %d: %+v, %v", i, resp, err)
		}
		if got := d.count(); got != step.dials {
			t.Fatalf("after hop %d: %d dials, want %d", i, got, step.dials)
		}
		if got := pooledConn(gw.machines.Pool, m.addr()) != nil; got != step.pooled {
			t.Fatalf("after hop %d: machine pool holds a connection = %v, want %v", i, got, step.pooled)
		}
	}
}
