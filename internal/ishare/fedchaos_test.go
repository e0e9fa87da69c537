package ishare

import (
	"context"
	"fmt"
	"net"
	"reflect"
	"strings"
	"testing"
	"time"

	"fgcs/internal/avail"
	"fgcs/internal/durable"
	"fgcs/internal/faultnet"
	"fgcs/internal/otrace"
	"fgcs/internal/simclock"
)

// fedChaosResult is everything a federated chaos run must reproduce
// byte-for-byte under the same seed.
type fedChaosResult struct {
	transcript []string
	errs       []string
	netTrace   []string
	dialFails  int
	forwarded  uint64
	killedPeer string
}

// runFedChaosOnce brings up a three-peer federation on an in-memory
// network fronting five real prediction gateways, registers every machine
// with replication (K=1 on three peers: each entry lives on two of the
// three, so every peer both serves locally and forwards — with K=2 every
// peer would hold everything and forwarding would never fire), then drives
// a scripted client workload through a seeded fault network on the
// client→peer hop:
//
//	phase 1: QueryTR for every machine through every peer, a federation-wide
//	         ranking, a submit and a status probe — the healthy baseline.
//	kill:    the peer owning m1's entry is shut down, no drain, no warning.
//	phase 2: the full query matrix again through the survivors, another
//	         ranking (it must still see all five machines), a second submit,
//	         and status + kill for the phase-1 job.
//
// Peer-to-peer and peer-to-machine hops run on a clean network that serves
// the same handlers: the chaos under test is the dead peer plus the
// client-hop faults, and keeping the inner hops clean makes every transcript
// value a pure function of the seed.
//
// With binary set, both the faulted client hop and the clean peer-to-peer
// forwarding hop ride pooled multiplexed binary connections; killing a peer
// must then sever the survivors' pooled connections to it, not just refuse
// fresh dials.
func runFedChaosOnce(t *testing.T, seed uint64, binary bool) fedChaosResult {
	t.Helper()
	start := time.Date(2005, 9, 2, 8, 30, 0, 0, time.UTC)
	clock := &stepClock{now: start}
	// No corruption faults here: a flipped byte can still decode as valid
	// JSON with zeroed fields, which would poison the value transcript. The
	// remaining faults (refused dials, resets, truncated writes) always
	// surface as transport errors, so every transcript value is authentic.
	fn := faultnet.New(seed, faultnet.Config{
		DialFailProb:     0.25,
		ResetProb:        0.10,
		PartialWriteProb: 0.05,
	})
	clean := faultnet.New(seed, faultnet.Config{})
	// Peers are reachable on both networks, machines on the clean one only.
	handle := func(addr string, serve func(net.Conn)) {
		fn.Handle(addr, serve)
		clean.Handle(addr, serve)
	}
	clientCaller := &Caller{
		Dialer:     fn,
		Retry:      RetryPolicy{MaxAttempts: 6, BaseDelay: time.Millisecond, MaxDelay: 4 * time.Millisecond},
		JitterSeed: seed + 1,
	}
	if binary {
		pool := &Pool{Dialer: fn}
		defer pool.Close()
		clientCaller.Pool = pool
	}

	nodes := buildFederationWith(t, 3, 1, clock, clean, handle, func(i int, cfg *FedConfig) {
		cfg.Caller.JitterSeed = seed + uint64(i+1)*100
		if binary {
			pool := &Pool{Dialer: clean}
			t.Cleanup(func() { pool.Close() })
			cfg.Caller.Pool = pool
		}
		// Threshold 1 + a static clock: the first refused dial to the dead
		// peer opens its breaker and keeps it open, so routing decisions
		// after the kill are identical on every run.
		cfg.Breakers = NewBreakerSet(BreakerConfig{Threshold: 1, Cooldown: time.Hour}, clock)
	})
	// Five real machines. Two carry a daily 09:00 failure in their history,
	// so the ranking has a real TR gradient to order.
	const machines = 5
	for i := 0; i < machines; i++ {
		id := fmt.Sprintf("m%d", i+1)
		failHour := -1
		if i == 1 || i == 3 {
			failHour = 9
		}
		sm, err := NewStateManager(id, period, avail.DefaultConfig(), clock, historyMachine(id, 11, failHour), 0)
		if err != nil {
			t.Fatal(err)
		}
		gw, err := NewGateway(id, avail.DefaultConfig(), period, clock, sm)
		if err != nil {
			t.Fatal(err)
		}
		gw.Record(start, sample(5, 400))
		clean.Handle(id, memServe(gw.Handler()))
		// Registration goes over a clean hop, as a host heartbeat would.
		fedRegister(t, clean, nodes[i%len(nodes)].addr, id, id, 0)
	}

	res := fedChaosResult{}
	clients := make([]FedClient, len(nodes))
	for i, n := range nodes {
		clients[i] = FedClient{Addr: n.addr, Timeout: 2 * time.Second, Caller: clientCaller}
	}
	add := func(format string, args ...interface{}) {
		res.transcript = append(res.transcript, fmt.Sprintf(format, args...))
	}
	fail := func(op string, err error) {
		res.errs = append(res.errs, fmt.Sprintf("%s: %v", op, err))
	}
	queryAll := func(entries []int) {
		for _, e := range entries {
			for m := 1; m <= machines; m++ {
				id := fmt.Sprintf("m%d", m)
				resp, err := clients[e].QueryTR(context.Background(), id, QueryTRReq{LengthSeconds: 3600, GuestMemMB: 100})
				if err != nil {
					fail(fmt.Sprintf("query fed%d %s", e, id), err)
					continue
				}
				// Cache counters are excluded: retried RPCs can re-execute
				// server-side, so they are not seed-deterministic. TR, state
				// and history depth are.
				add("query fed%d %s tr=%.4f state=%s hist=%d", e, id, resp.TR, resp.CurrentState, resp.HistoryWindows)
			}
		}
	}
	rank := func(entry int) (ranked []Ranked, fails []RankFailure) {
		sched, err := clients[entry].Scheduler(context.Background())
		if err == nil {
			ranked, fails, err = sched.Rank(context.Background(), SubmitReq{WorkSeconds: 3600, MemMB: 100})
		}
		if err != nil {
			fail(fmt.Sprintf("rank fed%d", entry), err)
			return nil, nil
		}
		ids := make([]string, 0, len(ranked))
		for _, r := range ranked {
			ids = append(ids, r.MachineID)
		}
		add("rank fed%d n=%d failures=%d order=%s", entry, len(ranked), len(fails), strings.Join(ids, ">"))
		return ranked, fails
	}

	// Phase 1: healthy baseline through every entry peer.
	queryAll([]int{0, 1, 2})
	rank(1)
	job1, err := clients[2].Submit(context.Background(), "m2", SubmitReq{Name: "fed-chaos-1", WorkSeconds: 300, MemMB: 50})
	if err != nil {
		fail("submit m2", err)
	} else {
		add("submit fed2 m2 job=%s", job1.JobID)
	}
	if st, err := clients[0].JobStatus(context.Background(), "m2", JobStatusReq{JobID: job1.JobID}); err != nil {
		fail("status m2", err)
	} else {
		add("status fed0 m2 %s state=%s", st.JobID, st.State)
	}

	// Kill the peer owning m1's entry, mid-run.
	killed := -1
	owner := nodes[0].gw.Candidates("m1")[0].ID
	for i, n := range nodes {
		if n.gw.self.ID == owner {
			killed = i
		}
	}
	if killed < 0 {
		t.Fatalf("no peer matches m1's owner %s", owner)
	}
	res.killedPeer = owner
	if st := nodes[killed].gw.RingStats(); st.Owned == 0 {
		t.Fatalf("peer %s owns no entries; the kill would prove nothing", owner)
	}
	handle(nodes[killed].addr, nil)
	add("kill-peer %s", owner)

	// Phase 2: every machine must still answer through the survivors.
	survivors := []int{}
	for i := range nodes {
		if i != killed {
			survivors = append(survivors, i)
		}
	}
	queryAll(survivors)
	if ranked, fails := rank(survivors[0]); ranked != nil && len(ranked) != machines {
		fail("rank after kill", fmt.Errorf("ranked %d machines, want %d (failures: %v)", len(ranked), machines, fails))
	}
	if job2, err := clients[survivors[1]].Submit(context.Background(), "m4", SubmitReq{Name: "fed-chaos-2", WorkSeconds: 120, MemMB: 40}); err != nil {
		fail("submit m4", err)
	} else {
		add("submit fed%d m4 job=%s", survivors[1], job2.JobID)
	}
	if st, err := clients[survivors[0]].JobStatus(context.Background(), "m2", JobStatusReq{JobID: job1.JobID}); err != nil {
		fail("status m2 after kill", err)
	} else {
		add("status fed%d m2 %s state=%s", survivors[0], st.JobID, st.State)
	}
	if st, err := clients[survivors[0]].Kill(context.Background(), "m2", JobStatusReq{JobID: job1.JobID}); err != nil {
		fail("kill-job m2", err)
	} else {
		add("kill-job fed%d m2 %s state=%s", survivors[0], st.JobID, st.State)
	}

	for _, i := range survivors {
		res.forwarded += nodes[i].gw.RingStats().Forwarded
	}
	res.netTrace = fn.Trace()
	res.dialFails = fn.DialFailures()
	return res
}

// TestChaosFederatedGatewayLoss is the acceptance test for the federated
// control plane: with one of three gateways killed mid-run, every QueryTR,
// Submit, Rank, JobStatus and Kill for every machine still succeeds via
// forwarding and replicas — under sustained client-hop dial failures and
// stream faults — and the whole run is byte-deterministic under a fixed
// seed.
func TestChaosFederatedGatewayLoss(t *testing.T) {
	const seed = 4
	a := runFedChaosOnce(t, seed, false)
	if len(a.errs) != 0 {
		t.Fatalf("federated ops failed after gateway loss:\n%s\ntranscript:\n%s",
			strings.Join(a.errs, "\n"), strings.Join(a.transcript, "\n"))
	}
	// 15 healthy queries + rank + submit + status, the kill marker, then 10
	// survivor queries + rank + submit + status + kill-job.
	if len(a.transcript) != 33 {
		t.Fatalf("transcript has %d entries, want 33:\n%s", len(a.transcript), strings.Join(a.transcript, "\n"))
	}
	joined := strings.Join(a.transcript, "\n")
	// The ranking gradient is real: clean machines outrank the two with a
	// 09:00 failure in their history, in both rankings.
	if !strings.Contains(joined, "n=5 failures=0") {
		t.Fatalf("rankings did not cover all five machines cleanly:\n%s", joined)
	}
	for _, r := range a.transcript {
		if !strings.HasPrefix(r, "rank ") {
			continue
		}
		order := r[strings.Index(r, "order=")+len("order="):]
		if strings.Index(order, "m2") < strings.Index(order, "m1") || strings.Index(order, "m4") < strings.Index(order, "m5") {
			t.Fatalf("failure-prone m2/m4 outranked clean machines: %s", r)
		}
	}
	// Partial replication forced real forwarding among the survivors.
	if a.forwarded == 0 {
		t.Fatal("no surviving peer ever forwarded; the ring routing went unexercised")
	}
	// The fault layer actually fired on the client hop.
	if a.dialFails < 5 {
		t.Fatalf("only %d injected dial failures; the fault layer barely fired", a.dialFails)
	}

	// Determinism: an identical seed reproduces the identical run — the
	// transcript (every TR, every ranking order, every job id) and the full
	// fault-network schedule.
	b := runFedChaosOnce(t, seed, false)
	if len(b.errs) != 0 {
		t.Fatalf("second run failed: %s", strings.Join(b.errs, "\n"))
	}
	if !reflect.DeepEqual(a.transcript, b.transcript) {
		t.Fatalf("transcripts differ between identical seeds:\n--- run A ---\n%s\n--- run B ---\n%s",
			joined, strings.Join(b.transcript, "\n"))
	}
	if !reflect.DeepEqual(a.netTrace, b.netTrace) {
		t.Fatalf("fault traces differ between identical seeds:\n--- run A ---\n%s\n--- run B ---\n%s",
			strings.Join(a.netTrace, "\n"), strings.Join(b.netTrace, "\n"))
	}
	if a.dialFails != b.dialFails || a.killedPeer != b.killedPeer {
		t.Fatalf("fault counts differ: dials %d/%d, killed %s/%s", a.dialFails, b.dialFails, a.killedPeer, b.killedPeer)
	}
	// A different seed draws a different fault schedule.
	c := runFedChaosOnce(t, seed+1, false)
	if reflect.DeepEqual(a.netTrace, c.netTrace) {
		t.Fatal("different seeds produced identical fault traces")
	}
}

// TestChaosFederatedGatewayLossBinary reruns the federated gateway-loss
// scenario with every client→peer and peer→peer hop on pooled multiplexed
// binary connections. Closing the killed peer's server must sever the
// survivors' pooled connections into it (a pool would otherwise keep writing
// into a dead mux forever), forwarding must re-route, and the run must stay
// byte-deterministic under a fixed seed.
func TestChaosFederatedGatewayLossBinary(t *testing.T) {
	const seed = 4
	a := runFedChaosOnce(t, seed, true)
	if len(a.errs) != 0 {
		t.Fatalf("federated ops failed after gateway loss over binary transport:\n%s\ntranscript:\n%s",
			strings.Join(a.errs, "\n"), strings.Join(a.transcript, "\n"))
	}
	if len(a.transcript) != 33 {
		t.Fatalf("transcript has %d entries, want 33:\n%s", len(a.transcript), strings.Join(a.transcript, "\n"))
	}
	joined := strings.Join(a.transcript, "\n")
	if !strings.Contains(joined, "n=5 failures=0") {
		t.Fatalf("rankings did not cover all five machines cleanly:\n%s", joined)
	}
	if a.forwarded == 0 {
		t.Fatal("no surviving peer ever forwarded; the ring routing went unexercised")
	}

	// Determinism over the pooled transport.
	b := runFedChaosOnce(t, seed, true)
	if len(b.errs) != 0 {
		t.Fatalf("second run failed: %s", strings.Join(b.errs, "\n"))
	}
	if !reflect.DeepEqual(a.transcript, b.transcript) {
		t.Fatalf("transcripts differ between identical seeds:\n--- run A ---\n%s\n--- run B ---\n%s",
			joined, strings.Join(b.transcript, "\n"))
	}
	if !reflect.DeepEqual(a.netTrace, b.netTrace) {
		t.Fatalf("fault traces differ between identical seeds:\n--- run A ---\n%s\n--- run B ---\n%s",
			strings.Join(a.netTrace, "\n"), strings.Join(b.netTrace, "\n"))
	}
	if a.dialFails != b.dialFails || a.killedPeer != b.killedPeer {
		t.Fatalf("fault counts differ: dials %d/%d, killed %s/%s", a.dialFails, b.dialFails, a.killedPeer, b.killedPeer)
	}

	// The transcript values are transport-independent: the same seed over
	// the JSON compat path yields the same TRs, rankings and job IDs (the
	// fault schedules differ — pooled transports dial far less — but the
	// application-level results must not).
	j := runFedChaosOnce(t, seed, false)
	if len(j.errs) == 0 && !reflect.DeepEqual(a.transcript, j.transcript) {
		t.Fatalf("binary and JSON transcripts diverge for the same seed:\n--- binary ---\n%s\n--- json ---\n%s",
			joined, strings.Join(j.transcript, "\n"))
	}
}

// TestChaosFedDurableRestart kills a federation peer AND a durable host
// node mid-run, then restarts both from their data directories (dirty
// shutdown: WAL replay, no final snapshot) on the same addresses. The
// restarted peer must rejoin the ring with its registry shard intact before
// any anti-entropy runs, forwarded QueryTR answers must be identical to the
// pre-crash ones, and a replayed submit with the pre-crash idempotency key
// must dedup to the exact pre-crash job ID.
func TestChaosFedDurableRestart(t *testing.T) {
	start := time.Date(2005, 9, 2, 8, 30, 0, 0, time.UTC)
	clock := simclock.NewVirtual(start)
	ctx := context.Background()

	mem := faultnet.New(0, faultnet.Config{})
	// Replicas -1: every entry lives on exactly one peer, so a restarted
	// peer's entries can only have come from its own WAL.
	nodes := buildFederationWith(t, 3, -1, clock, mem, mem.Handle, nil)
	stores := make([]*durable.MemFS, len(nodes))
	persisters := make([]*RegPersister, len(nodes))
	for i, n := range nodes {
		stores[i] = durable.NewMemFS()
		st, rec, err := durable.Open(persistStoreCfg(stores[i]))
		if err != nil {
			t.Fatal(err)
		}
		if persisters[i], err = NewRegPersister(st, rec, n.gw, nil); err != nil {
			t.Fatal(err)
		}
	}

	// One real durable host node plus four stubs spread over the ring.
	hostFS := durable.NewMemFS()
	hst, hrec, err := durable.Open(persistStoreCfg(hostFS))
	if err != nil {
		t.Fatal(err)
	}
	pre := historyMachine("m-dur", 11, 9)
	host, err := NewHostNode(NodeConfig{
		MachineID: "m-dur", Cfg: avail.DefaultConfig(), Period: period,
		Clock: clock, Preloaded: pre, Durable: hst, DurableRecovery: hrec,
	}, staticSource{})
	if err != nil {
		t.Fatal(err)
	}
	host.Persist.Record(start, sample(5, 400))
	const hostAddr = "m-dur"
	mem.Handle(hostAddr, memServe(host.Gateway.Handler()))
	fedRegister(t, mem, nodes[0].addr, "m-dur", hostAddr, 0)
	for i := 1; i <= 4; i++ {
		m := &stubMachine{id: fmt.Sprintf("m%d", i), tr: 0.5 + float64(i)/10, submits: make(map[string]string)}
		mem.Handle(m.id, memServe(m.handler))
		fedRegister(t, mem, nodes[i%len(nodes)].addr, m.id, m.id, 0)
	}

	owner := pickPeer(t, nodes, "m-dur", true)
	entry := pickPeer(t, nodes, "m-dur", false) // a survivor that must forward
	fc := FedClient{Addr: nodes[entry].addr, Timeout: 2 * time.Second, Caller: &Caller{Dialer: mem}}

	before, err := fc.QueryTR(ctx, "m-dur", QueryTRReq{LengthSeconds: 3600, GuestMemMB: 100})
	if err != nil {
		t.Fatalf("pre-crash QueryTR: %v", err)
	}
	job1, err := fc.Submit(ctx, "m-dur", SubmitReq{Name: "dur", WorkSeconds: 3600, MemMB: 50, IdempotencyKey: "fed-retry-1"})
	if err != nil {
		t.Fatalf("pre-crash submit: %v", err)
	}
	wantShard := nodes[owner].gw.Export()
	if len(wantShard) == 0 {
		t.Fatal("owner peer holds no entries; the kill would prove nothing")
	}
	ownerAddr := nodes[owner].addr

	// Kill peer and host with no warning: dirty close, no final snapshot.
	mem.Handle(ownerAddr, nil)
	if err := persisters[owner].Close(); err != nil {
		t.Fatal(err)
	}
	mem.Handle(hostAddr, nil)
	if err := host.Persist.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart the peer from its WAL on the same ring address.
	st2, rec2, err := durable.Open(persistStoreCfg(stores[owner]))
	if err != nil {
		t.Fatalf("peer recovery: %v", err)
	}
	if len(rec2.Records) == 0 {
		t.Fatal("dirty peer shutdown left no WAL records; replay is untested")
	}
	var ringPeers []Peer
	for _, n := range nodes {
		ringPeers = append(ringPeers, n.gw.self)
	}
	gw2, err := NewFedGateway(FedConfig{
		Self: nodes[owner].gw.self, Peers: ringPeers, Replicas: -1,
		Caller:  &Caller{Dialer: mem, Retry: RetryPolicy{MaxAttempts: 3, BaseDelay: time.Millisecond, MaxDelay: 4 * time.Millisecond}},
		Timeout: 2 * time.Second, Clock: clock,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewRegPersister(st2, rec2, gw2, nil); err != nil {
		t.Fatal(err)
	}
	// The shard is intact purely from replay — no anti-entropy has run.
	if got := gw2.Export(); !reflect.DeepEqual(got, wantShard) {
		t.Fatalf("restarted shard = %+v, want %+v", got, wantShard)
	}
	mem.Handle(ownerAddr, memServe(gw2.Handler()))

	// Restart the host node from its WAL on the registered address.
	hst2, hrec2, err := durable.Open(persistStoreCfg(hostFS))
	if err != nil {
		t.Fatalf("host recovery: %v", err)
	}
	if len(hrec2.Records) == 0 {
		t.Fatal("dirty host shutdown left no WAL records; replay is untested")
	}
	host2, err := NewHostNode(NodeConfig{
		MachineID: "m-dur", Cfg: avail.DefaultConfig(), Period: period,
		Clock: clock, Preloaded: pre, Durable: hst2, DurableRecovery: hrec2,
	}, staticSource{})
	if err != nil {
		t.Fatal(err)
	}
	mem.Handle(hostAddr, memServe(host2.Gateway.Handler()))

	// Forwarded requery through the surviving entry peer: identical answer.
	after, err := fc.QueryTR(ctx, "m-dur", QueryTRReq{LengthSeconds: 3600, GuestMemMB: 100})
	if err != nil {
		t.Fatalf("post-restart QueryTR: %v", err)
	}
	if after.TR != before.TR || after.HistoryWindows != before.HistoryWindows || after.CurrentState != before.CurrentState {
		t.Fatalf("QueryTR diverged across restart: before tr=%v hist=%d state=%s, after tr=%v hist=%d state=%s",
			before.TR, before.HistoryWindows, before.CurrentState, after.TR, after.HistoryWindows, after.CurrentState)
	}
	// Exact dedup of the replayed submit: same key, same job ID, even
	// though the job object died with the process.
	job2, err := fc.Submit(ctx, "m-dur", SubmitReq{Name: "dur", WorkSeconds: 3600, MemMB: 50, IdempotencyKey: "fed-retry-1"})
	if err != nil {
		t.Fatalf("replayed submit: %v", err)
	}
	if job2.JobID != job1.JobID {
		t.Fatalf("replayed submit job = %s, want the pre-crash %s", job2.JobID, job1.JobID)
	}
	// A fresh key gets a fresh ID: the job counter was replayed too.
	job3, err := fc.Submit(ctx, "m-dur", SubmitReq{Name: "dur2", WorkSeconds: 60, IdempotencyKey: "fed-retry-2"})
	if err != nil {
		t.Fatalf("fresh submit: %v", err)
	}
	if job3.JobID == job1.JobID {
		t.Fatalf("fresh submit reused job ID %s", job1.JobID)
	}
}

// TestFedForwardedTraceStitched pins the tentpole tracing property: a
// request that enters at a non-owning peer and is forwarded renders as ONE
// span tree — client root → rpc attempts → entry peer's fed.dispatch →
// owner peer's fed.dispatch → machine gateway's gateway.dispatch → the
// state manager's query — once the per-process flight recorders are merged
// on trace ID, exactly as `isharec traces` does.
func TestFedForwardedTraceStitched(t *testing.T) { runStitchedTrace(t, false) }

// TestFedForwardedTraceStitchedBinary pins the same stitched-trace property
// with every hop on pooled binary connections: the trace header travels in
// the frame itself, so the forwarded request must still render as one tree.
func TestFedForwardedTraceStitchedBinary(t *testing.T) { runStitchedTrace(t, true) }

func runStitchedTrace(t *testing.T, binary bool) {
	start := time.Date(2005, 9, 2, 8, 30, 0, 0, time.UTC)
	const seed = 21
	recs := make([]*otrace.Recorder, 3)
	// Distinct seeds per process: no two participants may mint colliding
	// span IDs into the same distributed trace.
	mem := faultnet.New(seed, faultnet.Config{})
	nodes := buildFederationWith(t, 3, -1, nil, mem, mem.Handle, func(i int, cfg *FedConfig) {
		recs[i] = otrace.NewRecorder(32)
		cfg.Obs = NewNodeObs()
		cfg.Obs.SetTracing(otrace.New(otrace.Config{
			SampleRate: 1, Seed: seed + uint64(i+1)*1000,
			Recorder: recs[i], Clock: &tickClock{t: start},
		}))
		if binary {
			pool := &Pool{Dialer: mem}
			t.Cleanup(func() { pool.Close() })
			cfg.Caller.Pool = pool
		}
	})

	clock := &stepClock{now: start}
	sm, err := NewStateManager("m-traced", period, avail.DefaultConfig(), clock, historyMachine("m-traced", 11, -1), 0)
	if err != nil {
		t.Fatal(err)
	}
	gw, err := NewGateway("m-traced", avail.DefaultConfig(), period, clock, sm)
	if err != nil {
		t.Fatal(err)
	}
	gw.Record(start, sample(5, 400))
	machineRec := otrace.NewRecorder(32)
	sm.obsv.SetTracing(otrace.New(otrace.Config{
		SampleRate: 1, Seed: seed + 9000,
		Recorder: machineRec, Clock: &tickClock{t: start},
	}))
	mem.Handle("m-traced", memServe(gw.Handler()))
	fedRegister(t, mem, nodes[0].addr, "m-traced", "m-traced", 0)

	// No replication: exactly one peer holds the entry, so entering anywhere
	// else guarantees a forward.
	entry := pickPeer(t, nodes, "m-traced", false)
	clientRec := otrace.NewRecorder(32)
	clientTracer := otrace.New(otrace.Config{
		SampleRate: 1, Seed: seed, Recorder: clientRec, Clock: &tickClock{t: start},
	})
	clientCaller := &Caller{Dialer: mem}
	if binary {
		pool := &Pool{Dialer: mem}
		defer pool.Close()
		clientCaller.Pool = pool
	}
	fc := FedClient{Addr: nodes[entry].addr, Caller: clientCaller}
	ctx, root := clientTracer.Start(context.Background(), "client.query-tr")
	resp, err := fc.QueryTR(ctx, "m-traced", QueryTRReq{LengthSeconds: 3600, GuestMemMB: 100})
	root.End()
	if err != nil {
		t.Fatalf("forwarded QueryTR: %v", err)
	}
	if resp.TR <= 0 {
		t.Fatalf("forwarded QueryTR returned TR %v", resp.TR)
	}

	// Merge every process's flight-recorder shard of the client's trace and
	// render them as one tree.
	clientTraces := clientRec.Snapshot(time.Time{}).TracesLimit(10)
	if len(clientTraces) != 1 {
		t.Fatalf("client recorded %d traces, want 1", len(clientTraces))
	}
	id := clientTraces[0].TraceID
	merged := clientTraces
	for _, rec := range append(recs, machineRec) {
		if shard, ok := rec.Snapshot(time.Time{}).Trace(id); ok {
			merged = append(merged, shard...)
		}
	}
	rendered := otrace.RenderTraceString(merged, otrace.RenderOptions{})

	// One stitched tree: a single root line (the client span at depth 0),
	// with both peers' dispatch spans and the machine's dispatch underneath.
	var roots []string
	for _, line := range strings.Split(rendered, "\n") {
		if strings.HasPrefix(line, "  ") && !strings.HasPrefix(line, "   ") {
			roots = append(roots, strings.TrimSpace(line))
		}
	}
	if len(roots) != 1 || !strings.HasPrefix(roots[0], "client.query-tr") {
		t.Fatalf("merged trace has roots %v, want exactly [client.query-tr]:\n%s", roots, rendered)
	}
	if n := strings.Count(rendered, "fed.dispatch"); n != 2 {
		t.Fatalf("stitched trace has %d fed.dispatch spans, want 2 (entry + owner):\n%s", n, rendered)
	}
	for _, want := range []string{
		"fed.dispatch", "rpc=" + msgFedQueryTR, "rpc=" + MsgQueryTR,
		"gateway.dispatch", "machine=m-traced", "state.query-tr", "rpc.attempt",
	} {
		if !strings.Contains(rendered, want) {
			t.Fatalf("stitched trace missing %q:\n%s", want, rendered)
		}
	}
	// The entry peer's dispatch parents the owner peer's dispatch: the
	// second fed.dispatch line is indented deeper than the first.
	lines := strings.Split(rendered, "\n")
	var depths []int
	for _, line := range lines {
		if strings.Contains(line, "fed.dispatch") {
			depths = append(depths, len(line)-len(strings.TrimLeft(line, " ")))
		}
	}
	if len(depths) != 2 || depths[1] <= depths[0] {
		t.Fatalf("fed.dispatch spans not nested entry→owner (indents %v):\n%s", depths, rendered)
	}
}
