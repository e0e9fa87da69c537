package main

import (
	"context"
	"fmt"
	"sync"
	"time"

	"fgcs/internal/ishare"
	"fgcs/internal/rng"
	"fgcs/internal/trace"
)

const (
	fedPeers     = 6
	fedMachines  = 48
	fedHistories = 4
	fedDays      = 21
	// fedCycle slots of a client's schedule are 15 queries then 1 heartbeat:
	// federation writes (owner routing plus replication) beside federation
	// reads.
	fedCycle = 16
	fedTTL   = 10 * time.Minute
	// trackerPending is obs.Tracker's per-machine cap on pending
	// predictions.
	trackerPending = 4096
)

// fedOp is one schedule slot: a query (or heartbeat) for a machine, entering
// the federation at a peer.
type fedOp struct {
	peer, machine uint8
	heartbeat     bool
}

// fedLive is the fed-live fixture: six FedGateway peers (Replicas: 1) and 48
// machine gateways sharing four seeded histories, each behind the real
// Server, all on the bench-owned in-memory network. Peers reach each other
// and the machines the way the daemons do — a JSON connection dialled per
// RPC — while the two clients hold pooled connections to the peers.
type fedLive struct {
	seed  uint64
	net   *countingDialer // the in-memory network, metered
	peers []*ishare.FedGateway
	nodes []*node
	ids   []string // machine IDs, which are also their addresses
	srvs  []*ishare.Server
	want  []ishare.QueryTRResp // per machine: Gateway.QueryTR in process

	pool      *ishare.Pool
	clients   []ishare.FedClient // per peer, over the pool
	heartbeat *ishare.Caller     // host nodes heartbeat without a pool

	owner []int // per machine: index of the peer owning its registry entry
	sched [netClients][]fedOp
	lat   []int64
	// What the schedule implies: a query or heartbeat is forwarded exactly
	// when it enters at a peer that does not own the machine.
	wantFwd, fwdQueries uint64
	rep                 fedRep
	// Deltas over the last repetition.
	dials, netBytes uint64
}

// fedRep is the state of the repetition in progress: per-client failure
// counts and answer digests, and the counters at its start.
type fedRep struct {
	failed            [netClients]int
	answers           [netClients]*digest
	served, forwarded uint64
	dials, bytes      int64
}

func peerAddr(i int) string { return fmt.Sprintf("peer-%d", i) }

func setupFedLive(seed uint64, traced bool) (fixture, error) {
	ds, today, err := histories(seed, fedHistories, fedDays)
	if err != nil {
		return nil, err
	}
	now := today.Add(9 * time.Hour)
	clock := newBenchClock(now)
	mem := newMemNet()
	f := &fedLive{seed: seed, net: &countingDialer{inner: mem}}
	ok := false
	defer func() {
		if !ok {
			f.close()
		}
	}()

	names := predictorNames()
	for i := 0; i < fedMachines; i++ {
		id := fmt.Sprintf("m-%02d", i)
		nd, err := newNode(id, clock, ds.Machines[i%fedHistories])
		if err != nil {
			return nil, err
		}
		feedToday(nd.gw.Record, today, now.Add(trace.DefaultPeriod), rng.New(seed).SplitN("fed-today", i))
		want, err := nd.gw.QueryTR(context.Background(), hotQuery)
		if err != nil {
			return nil, fmt.Errorf("prime %s: %w", id, err)
		}
		// Every query leaves one pending prediction per predictor in the
		// machine's accuracy tracker, up to a cap. Filling the queue to the
		// cap here puts every repetition, the first included, in the
		// saturated state a long-running gateway is in.
		for k := len(names); k < trackerPending; k++ {
			nd.obs.Tracker.RecordPrediction(id, names[k%len(names)], want.TR, now, time.Hour)
		}
		ln, err := mem.Listen(id)
		if err != nil {
			return nil, err
		}
		f.srvs = append(f.srvs, ishare.ServeListener(ln, nd.gw.Handler(), ishare.ServerConfig{Metrics: nd.obs.Server}))
		f.nodes, f.ids, f.want = append(f.nodes, nd), append(f.ids, id), append(f.want, want)
	}

	ring := make([]ishare.Peer, fedPeers)
	for i := range ring {
		ring[i] = ishare.Peer{ID: peerAddr(i), Addr: peerAddr(i)}
	}
	for i := range ring {
		obs := ishare.NewNodeObs()
		fg, err := ishare.NewFedGateway(ishare.FedConfig{
			Self:     ring[i],
			Peers:    ring,
			Replicas: 1,
			Caller:   &ishare.Caller{Dialer: f.net, Retry: ishare.RetryPolicy{MaxAttempts: 3}, Metrics: obs.Caller},
			Breakers: ishare.NewBreakerSet(ishare.BreakerConfig{}, clock),
			Timeout:  rpcTimeout,
			Clock:    clock,
			Obs:      obs,
		})
		if err != nil {
			return nil, fmt.Errorf("peer %d: %w", i, err)
		}
		ln, err := mem.Listen(ring[i].Addr)
		if err != nil {
			return nil, err
		}
		f.srvs = append(f.srvs, ishare.ServeListener(ln, fg.Handler(), ishare.ServerConfig{Metrics: obs.Server}))
		f.peers = append(f.peers, fg)
	}

	for _, id := range f.ids {
		owner := f.peers[0].Candidates(id)[0].ID
		for i := range ring {
			if ring[i].ID == owner {
				f.owner = append(f.owner, i)
			}
		}
	}

	f.pool = &ishare.Pool{Dialer: f.net, MaxPerHost: 1}
	pooled := &ishare.Caller{Pool: f.pool}
	for i := range ring {
		f.clients = append(f.clients, ishare.FedClient{Addr: ring[i].Addr, Timeout: rpcTimeout, Caller: pooled})
	}
	f.heartbeat = &ishare.Caller{Dialer: f.net, Retry: ishare.RetryPolicy{MaxAttempts: 3}}
	for i, id := range f.ids {
		if err := f.register(i%fedPeers, i); err != nil {
			return nil, fmt.Errorf("register %s: %w", id, err)
		}
	}
	// One query through every peer dials the pooled connections.
	for p := range f.clients {
		if resp, err := f.clients[p].QueryTR(context.Background(), f.ids[p], hotQuery); err != nil || !sameAnswer(resp, f.want[p]) {
			return nil, fmt.Errorf("first query via %s: %v (answer %+v)", ring[p].ID, err, resp)
		}
	}
	ok = true
	return f, nil
}

func (f *fedLive) register(peer, machine int) error {
	return ishare.RegisterWithTTL(context.Background(), f.heartbeat, peerAddr(peer), f.ids[machine], f.ids[machine], fedTTL, rpcTimeout)
}

// schedule draws the n slots of a repetition, half for each client, and
// what they imply for the ring's forward counter.
func (f *fedLive) schedule(n int) {
	f.wantFwd, f.fwdQueries = 0, 0
	for c := range f.sched {
		r := rng.New(f.seed).SplitN("fed-sched", c)
		f.sched[c] = make([]fedOp, n/netClients)
		for j := range f.sched[c] {
			op := fedOp{peer: uint8(r.Intn(fedPeers)), machine: uint8(r.Intn(fedMachines)), heartbeat: j%fedCycle == fedCycle-1}
			f.sched[c][j] = op
			if int(op.peer) != f.owner[op.machine] {
				f.wantFwd++
				if !op.heartbeat {
					f.fwdQueries++
				}
			}
		}
	}
	f.lat = make([]int64, n/fedCycle*(fedCycle-1))
}

func (f *fedLive) prepare(n int) error {
	if len(f.sched[0]) != n/netClients {
		f.schedule(n)
	}
	f.rep = fedRep{dials: f.net.dials.Load(), bytes: f.net.bytes.Load()}
	f.rep.served, f.rep.forwarded = f.ringCounts()
	for c := range f.rep.answers {
		f.rep.answers[c] = newDigest()
	}
	return nil
}

// ringCounts sums served and forwarded over the peers.
func (f *fedLive) ringCounts() (served, forwarded uint64) {
	for _, p := range f.peers {
		st := p.RingStats()
		served, forwarded = served+st.Served, forwarded+st.Forwarded
	}
	return served, forwarded
}

// run executes the repetition: each client its half, in its own schedule.
// Heartbeats are not measured, so the latencies are the 15 queries of every
// 16 slots, client 0's first.
func (f *fedLive) run(tr *tracer) ([]int64, error) {
	perClient := len(f.lat) / netClients
	var wg sync.WaitGroup
	for c := 0; c < netClients; c++ {
		wg.Add(1)
		go func(c int, sb *spanBuf) {
			defer wg.Done()
			ctx := context.Background()
			lat := f.lat[c*perClient : (c+1)*perClient]
			q := 0
			for j, op := range f.sched[c] {
				if op.heartbeat {
					sp := sb.begin("ishare.fed.register_us", -1, j)
					err := f.register(int(op.peer), int(op.machine))
					sb.end(sp)
					if err != nil {
						f.rep.failed[c]++
					}
					continue
				}
				t0 := time.Now()
				sp := sb.begin("ishare.fedclient.query_us", -1, j)
				resp, err := f.clients[op.peer].QueryTR(ctx, f.ids[op.machine], hotQuery)
				sb.end(sp)
				lat[q] = int64(time.Since(t0))
				q++
				if err != nil || !sameAnswer(resp, f.want[op.machine]) {
					f.rep.failed[c]++
				}
				f.rep.answers[c].f64(resp.TR)
			}
		}(c, tr.buf(wFedLive, c))
	}
	wg.Wait()
	return f.lat, nil
}

func (f *fedLive) finish() repOutcome {
	out := repOutcome{attempted: len(f.sched[0]) * netClients}
	d := newDigest()
	for c := range f.rep.answers {
		out.failed += f.rep.failed[c]
		d.u64(f.rep.answers[c].sum())
	}
	out.answers = d.sum()
	// Every query is served by exactly one peer.
	served, forwarded := f.ringCounts()
	if served-f.rep.served != uint64(len(f.lat)) || forwarded-f.rep.forwarded != f.wantFwd {
		out.notes = append(out.notes, fmt.Sprintf("ring counted %d served and %d forwarded, the schedule has %d queries and %d forwards",
			served-f.rep.served, forwarded-f.rep.forwarded, len(f.lat), f.wantFwd))
	}
	f.dials, f.netBytes = uint64(f.net.dials.Load()-f.rep.dials), uint64(f.net.bytes.Load()-f.rep.bytes)
	return out
}

// fedLookupBatch ring lookups share one span: a lookup costs about as much
// as reading the clock twice.
const fedLookupBatch = 16

func (f *fedLive) ladder(tr *tracer, ls *layerSet, ops int) error {
	ctx := context.Background()
	sb := tr.buf(wFedLive, -1)
	ring := ishare.NewRing(0)
	for i := range f.peers {
		if err := ring.Add(ishare.Peer{ID: peerAddr(i), Addr: peerAddr(i)}); err != nil {
			return err
		}
	}
	r := rng.New(f.seed).Split("fed-ladder")
	for i := 0; i < ops; i++ {
		m := r.Intn(fedMachines)
		own := f.owner[m]
		other := (own + 1 + r.Intn(fedPeers-1)) % fedPeers
		req := ishare.FedQueryTRReq{Machine: f.ids[m], Query: hotQuery}

		fw := sb.begin("ishare.fed.forwarded_us", -1, i)
		resp, err := f.peers[other].FedQueryTR(ctx, req)
		sb.end(fw)
		if err != nil || !sameAnswer(resp, f.want[m]) {
			return fmt.Errorf("ladder forwarded query: %v (answer %+v)", err, resp)
		}

		sv := sb.begin("ishare.fed.served_us", fw, i)
		resp, err = f.peers[own].FedQueryTR(ctx, req)
		sb.end(sv)
		if err != nil || !sameAnswer(resp, f.want[m]) {
			return fmt.Errorf("ladder served query: %v (answer %+v)", err, resp)
		}

		rpc := sb.begin("ishare.caller.dial_rpc_us", sv, i)
		err = f.heartbeat.CallRetry(ctx, f.ids[m], ishare.MsgQueryTR, hotQuery, &resp, rpcTimeout)
		sb.end(rpc)
		if err != nil || !sameAnswer(resp, f.want[m]) {
			return fmt.Errorf("ladder machine rpc: %v (answer %+v)", err, resp)
		}

		lk := sb.begin("ishare.ring.lookup_batch", sv, i)
		for k := 0; k < fedLookupBatch; k++ {
			id := f.ids[(m+k)%fedMachines]
			if _, ok := ring.Owner(id); !ok || len(ring.Successors(id, 2)) != 2 {
				return fmt.Errorf("ladder ring lookup of %s failed", id)
			}
		}
		sb.end(lk)
	}

	mean, _ := tr.layerMeans(wFedLive)
	ls.fromSpans(wFedLive, mean)
	top := mean["ishare.fedclient.query_us"] / 1e3
	ls.self("ishare.fed.hop_us", (mean["ishare.fed.forwarded_us"]-mean["ishare.fed.served_us"])/1e3, top)
	ls.set("ishare.ring.lookup_ns", mean["ishare.ring.lookup_batch"]/fedLookupBatch)
	queries := float64(len(f.lat))
	ls.set("ishare.fed.forward_ratio", float64(f.fwdQueries)/queries)
	ls.set("ishare.fed.dials_per_op", float64(f.dials)/queries)
	ls.set("ishare.fed.bytes_per_op", float64(f.netBytes)/queries)
	return nil
}

func (f *fedLive) close() {
	if f.pool != nil {
		f.pool.Close()
	}
	for _, s := range f.srvs {
		s.Close()
	}
}
