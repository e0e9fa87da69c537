// Federation: the multi-gateway control plane. N gateway processes form a
// static peer ring; registry entries (machine -> host-gateway address) are
// sharded across peers by consistent hashing on the machine name and
// replicated to each machine's successor peers, and any peer transparently
// forwards machine-scoped RPCs it cannot serve from its own shard. Peer
// hops ride the same Caller retry/breaker/trace stack as every other RPC,
// so a forwarded request renders as one stitched span tree, over one pooled
// binary connection per peer. A machine hop rides a second pool from the
// third hop of a run, each within poolIdleMax of the one before, and dials
// per RPC before it. A standalone
// registry is the same type with a one-member ring: every key's candidate
// set is the peer itself, so it serves from its shard and never dials.
package ishare

import (
	"context"
	"fmt"
	"log/slog"
	"sort"
	"strings"
	"sync"
	"time"

	"fgcs/internal/otrace"
	"fgcs/internal/simclock"
)

// Federation request types.
const (
	msgFedQueryTR   = "fed-query-tr"   // client -> any peer (machine-scoped QueryTR)
	msgFedSubmit    = "fed-submit"     // client -> any peer (machine-scoped Submit)
	msgFedJobStatus = "fed-job-status" // client -> any peer (machine-scoped JobStatus)
	msgFedKill      = "fed-kill"       // client -> any peer (machine-scoped Kill)
	msgFedSync      = "fed-sync"       // peer -> peer (replication / anti-entropy push)
)

// FedQueryTRReq routes a QueryTR to the named machine through the
// federation.
type FedQueryTRReq struct {
	// Machine names the target host node (the sharding key).
	Machine string `json:"machine"`
	// Local marks a request already forwarded once: the receiving peer
	// must serve it from its own shard or fail, never re-forward. This is
	// what bounds a request to at most one peer hop even if two peers
	// momentarily disagree about ownership.
	Local bool `json:"local,omitempty"`
	// Query is the request proxied to the machine's gateway.
	Query QueryTRReq `json:"query"`
}

// fedSubmitReq routes a Submit to the named machine through the federation.
// The entry peer attaches an idempotency key before any hop, so peer
// forwarding and machine retries are replay-safe end to end.
type fedSubmitReq struct {
	Machine string    `json:"machine"`
	Local   bool      `json:"local,omitempty"`
	Job     SubmitReq `json:"job"`
}

// fedJobReq routes a JobStatus or Kill to the named machine through the
// federation (the verb is the message type).
type fedJobReq struct {
	Machine string       `json:"machine"`
	Local   bool         `json:"local,omitempty"`
	Job     JobStatusReq `json:"job"`
}

// fedEntry is one registry entry on the replication wire, carrying its
// remaining TTL (0 = never expires) so receivers rebuild an absolute
// expiry against their own clock.
type fedEntry struct {
	MachineID  string  `json:"machine_id"`
	Addr       string  `json:"addr"`
	TTLSeconds float64 `json:"ttl_seconds,omitempty"`
}

// fedSyncReq pushes registry entries to a peer: single entries during
// synchronous replication on register, batches during anti-entropy rounds.
type fedSyncReq struct {
	// From identifies the pushing peer (empty for non-peer tooling).
	From    string     `json:"from,omitempty"`
	Entries []fedEntry `json:"entries"`
}

// fedSyncResp reports how many pushed entries the receiver actually
// applied (already-fresh entries are counted as accepted no-ops).
type fedSyncResp struct {
	Accepted int `json:"accepted"`
}

// RingPeerStats is one ring member's row in a peer's query-stats snapshot.
type RingPeerStats struct {
	ID   string `json:"id"`
	Addr string `json:"addr"`
	// Self marks the peer serving the snapshot.
	Self bool `json:"self,omitempty"`
	// Breaker is this peer's circuit state as seen from the serving peer
	// (closed / open / half-open); absent for self.
	Breaker string `json:"breaker,omitempty"`
	// LastSyncAgeSeconds is how long ago the serving peer last received an
	// anti-entropy push from this peer (-1 = never; absent for self).
	LastSyncAgeSeconds float64 `json:"last_sync_age_seconds,omitempty"`
	// OwnedEntries counts the live entries in the serving peer's shard
	// that this ring member owns.
	OwnedEntries int `json:"owned_entries"`
}

// RingStats is a federation peer's view of the ring, served inside
// query-stats so `isharec stats` can show shard placement and peer health.
type RingStats struct {
	Self     string `json:"self"`
	Vnodes   int    `json:"vnodes"`
	Replicas int    `json:"replicas"`
	// Entries / Owned / Replicated break down the live entries in this
	// peer's shard: total, owned by this peer, held as a replica.
	Entries    int `json:"entries"`
	Owned      int `json:"owned"`
	Replicated int `json:"replicated"`
	// Served counts machine RPCs answered from the local shard; Forwarded
	// counts those handed to another peer.
	Served    uint64 `json:"served"`
	Forwarded uint64 `json:"forwarded"`
	// SyncPushed / SyncAccepted count replication entries sent to and
	// applied from peers.
	SyncPushed   uint64          `json:"sync_pushed"`
	SyncAccepted uint64          `json:"sync_accepted"`
	Peers        []RingPeerStats `json:"peers"`
}

// fedUnknownMachine prefixes the application error a peer returns when a
// machine-scoped request names a machine absent from its shard. Routing
// treats it as "try the next replica", unlike any other application error.
const fedUnknownMachine = "fed: machine not registered"

// isUnknownMachine reports whether err is a peer's fedUnknownMachine
// rejection (it crosses the wire as a remoteError).
func isUnknownMachine(err error) bool {
	if err == nil {
		return false
	}
	return strings.Contains(err.Error(), fedUnknownMachine)
}

// FedConfig assembles one federation peer.
type FedConfig struct {
	// Self is this peer's identity; it must also appear in Peers.
	Self Peer
	// Peers is the full static ring membership, including Self.
	Peers []Peer
	// Vnodes is the virtual-node count per peer (<= 0 = DefaultVnodes).
	Vnodes int
	// Replicas is how many successor peers mirror each entry beyond its
	// owner (< 0 = none, 0 = DefaultReplicas, capped at len(Peers)-1).
	Replicas int
	// Caller performs peer and machine RPCs (nil = 3 attempts over the
	// real network, backing off on the wall clock, counted into
	// Obs.Caller). When it has a Pool, every hop rides that Pool.
	// Otherwise the peer builds two over its Dialer: one for peer hops,
	// and one, timed on Clock, for the hops to a machine from the third of
	// a run, each within poolIdleMax of the one before; the hops before it
	// dial per RPC.
	Caller *Caller
	// Breakers quarantines unreachable peers so routing skips them without
	// burning a dial timeout per request (nil = the default BreakerConfig
	// on Clock, its transitions counted on Obs).
	Breakers *BreakerSet
	// Timeout bounds each RPC hop (0 = 5 s).
	Timeout time.Duration
	// Clock drives entry expiry and sync timing (nil = wall clock).
	Clock simclock.Clock
	// Logger receives WARN records for replication and routing degradation
	// (nil = silent).
	Logger *slog.Logger
	// Obs, when set, counts served RPCs in the node metric families
	// (fgcs_gateway_requests_total etc.), and its Tracer mints spans for
	// them (nil = untraced).
	Obs *NodeObs
}

// FedGateway is one peer of the federated control plane. It stores the
// shard of the machine registry it owns or replicates, serves machine
// RPCs for machines in that shard by proxying to the machine's host
// gateway, forwards everything else to the machine's owner (or the owner's
// successors while the owner is down), and pushes its entries to their
// replica peers both synchronously on register and periodically via
// anti-entropy.
type FedGateway struct {
	self     Peer
	ring     *Ring
	replicas int
	caller   *Caller // cold machine hops, as configured
	peers    *Caller // peer hops: caller's settings over a Pool
	machines *Caller // a machine's hops from warmHops on: the same over a second Pool
	breakers *BreakerSet
	timeout  time.Duration
	clock    simclock.Clock
	logger   *slog.Logger
	obs      *NodeObs

	mu                                          sync.Mutex
	entries                                     map[string]RegEntry
	lastSync                                    map[string]time.Time
	served, forwarded, syncPushed, syncAccepted uint64

	// Readiness state (guarded by mu): SyncOnce records each round's
	// outcome and Ready (obsplane.go) derives convergence from it.
	syncRounds        uint64
	lastRoundAccepted int
	lastRoundOK       bool

	// obsCache holds each peer's last good query-obs export so a fleet
	// snapshot during an outage merges stale-marked data instead of
	// dropping the peer (obsplane.go).
	obsCacheMu sync.Mutex
	obsCache   map[string]cachedPeerObs

	// hops holds each machine address's run of hops, each within
	// poolIdleMax of the one before; runs that ended go once hopSweep
	// passes (see machine).
	hopsMu   sync.Mutex
	hops     map[string]hopRun
	hopSweep time.Time

	// sink, when set, is told about every shard upsert (register and
	// accepted sync alike) so the persistence layer can log it. Collected
	// under f.mu, invoked after release: a record logged before a
	// concurrent snapshot's captured WAL position is already in that
	// snapshot's Export, and one logged after it is replayed on recovery
	// as an idempotent upsert.
	sink func(e RegEntry)
}

// NewFedGateway validates the membership and builds the peer. The ring is
// immutable afterwards: federation membership is fixed per process (every
// peer must agree on it), and a dead peer is routed around rather than
// removed.
func NewFedGateway(cfg FedConfig) (*FedGateway, error) {
	if cfg.Self.ID == "" || cfg.Self.Addr == "" {
		return nil, fmt.Errorf("ishare: federation peer needs id and address")
	}
	if len(cfg.Peers) == 0 {
		return nil, fmt.Errorf("ishare: federation needs at least one peer")
	}
	ring := NewRing(cfg.Vnodes)
	selfListed := false
	for _, p := range cfg.Peers {
		if err := ring.Add(p); err != nil {
			return nil, err
		}
		if p.ID == cfg.Self.ID {
			selfListed = true
		}
	}
	if !selfListed {
		return nil, fmt.Errorf("ishare: federation peer %q not in peer list", cfg.Self.ID)
	}
	replicas := cfg.Replicas
	if replicas == 0 {
		replicas = DefaultReplicas
	}
	if replicas < 0 {
		replicas = 0
	}
	if replicas > len(cfg.Peers)-1 {
		replicas = len(cfg.Peers) - 1
	}
	clock := cfg.Clock
	if clock == nil {
		clock = simclock.Real{}
	}
	caller := cfg.Caller
	if caller == nil {
		caller = &Caller{Retry: RetryPolicy{MaxAttempts: productionAttempts}}
		if cfg.Obs != nil {
			caller.Metrics = cfg.Obs.Caller
		}
	}
	breakers := cfg.Breakers
	if breakers == nil {
		breakers = NewBreakerSet(BreakerConfig{}, clock)
		if cfg.Obs != nil {
			cfg.Obs.instrumentBreakers(breakers)
		}
	}
	timeout := cfg.Timeout
	if timeout <= 0 {
		timeout = 5 * time.Second
	}
	return &FedGateway{
		self:     cfg.Self,
		ring:     ring,
		replicas: replicas,
		caller:   caller,
		peers:    pooled(caller, nil),
		machines: pooled(caller, clock),
		breakers: breakers,
		timeout:  timeout,
		clock:    clock,
		logger:   cfg.Logger,
		obs:      cfg.Obs,
		entries:  make(map[string]RegEntry),
		lastSync: make(map[string]time.Time),
		hops:     make(map[string]hopRun),
	}, nil
}

// pooled is c when it has a Pool, otherwise c's retry policy, clock,
// jitter seed and metrics over a Pool of their own on c's Dialer, whose
// idle connections close on clock (nil = the wall clock). Peer connections
// idle on the wall clock, like the server's IdleDeadline they must beat:
// peers are few and fixed, so nothing else needs bounding. Machine
// connections idle on the gateway's clock, so a simulated fleet's virtual
// time bounds them; on it, the peer pool would redial every peer each
// time the clock jumps a fleet tick.
func pooled(c *Caller, clock simclock.Clock) *Caller {
	if c.Pool != nil {
		return c
	}
	return &Caller{
		Pool:       &Pool{Dialer: c.Dialer, clock: clock},
		Retry:      c.Retry,
		Clock:      c.Clock,
		JitterSeed: c.JitterSeed,
		Metrics:    c.Metrics,
	}
}

// hopRun is a run of hops to one machine, each within poolIdleMax of the
// one before.
type hopRun struct {
	last time.Time // the latest hop
	n    int       // hops in the run
}

// warmHops is the hop of a run from which a machine's hops ride the
// machine pool. A pooled connection pays for itself only over the hops
// after the one that opens it, and a second hop is a poor sign of a third:
// in a 100k-machine fleetsim run (seed 1), 539 of 48 500 machine hops were
// a run's second and 6 a later one.
const warmHops = 3

// machine returns the Caller of one hop to the machine at addr: the
// machine pool from the warmHops-th hop of a run on, the configured Caller,
// which dials per RPC, before it. A machine reached once or twice per fleet
// tick thus costs a short connection per hop, not a pooled one with a
// reader and a flusher at each end that the pool closes unused.
func (f *FedGateway) machine(addr string) *Caller {
	if f.machines == f.caller {
		return f.caller
	}
	now := f.clock.Now()
	f.hopsMu.Lock()
	if now.After(f.hopSweep) {
		for a, run := range f.hops {
			if now.Sub(run.last) > poolIdleMax {
				delete(f.hops, a)
			}
		}
		f.hopSweep = now.Add(poolIdleMax)
	}
	run := f.hops[addr]
	if now.Sub(run.last) > poolIdleMax {
		run.n = 0
	}
	run.last, run.n = now, run.n+1
	f.hops[addr] = run
	f.hopsMu.Unlock()
	if run.n >= warmHops {
		return f.machines
	}
	// A cold hop sweeps the machine pool too, so the connections a burst
	// left behind close once they idle past poolIdleMax.
	f.machines.Pool.reap()
	return f.caller
}

// fanout is the size of each key's candidate set: the owner plus its
// replicas.
func (f *FedGateway) fanout() int { return 1 + f.replicas }

// Candidates returns the replica set (owner first) for a machine name, in
// routing order.
func (f *FedGateway) Candidates(machine string) []Peer {
	return f.ring.Successors(machine, f.fanout())
}

// store upserts a registry entry with an absolute expiry built from ttl
// (<= 0 = never expires).
func (f *FedGateway) store(machine, addr string, ttl time.Duration) {
	e := newRegEntry(machine, addr, ttl, f.clock.Now())
	f.mu.Lock()
	f.entries[machine] = e
	sink := f.sink
	f.mu.Unlock()
	if sink != nil {
		sink(e)
	}
}

// SetSink installs the persistence hook for shard changes. Call before the
// peer starts serving. Lazy expiry reaps are not reported — the persisted
// absolute deadlines re-expire on their own after a restart.
func (f *FedGateway) SetSink(fn func(e RegEntry)) {
	f.mu.Lock()
	f.sink = fn
	f.mu.Unlock()
}

// Export snapshots this peer's shard (including entries awaiting lazy
// expiry) in sorted order for durable storage.
func (f *FedGateway) Export() []RegEntry {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]RegEntry, 0, len(f.entries))
	for _, e := range f.entries {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Machine < out[j].Machine })
	return out
}

// Restore upserts recovered shard entries without firing the sink or
// counting them as sync traffic. Already-expired entries are installed and
// left to the lazy eviction, keeping restore trivial and deterministic.
func (f *FedGateway) Restore(entries []RegEntry) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, e := range entries {
		if e.Machine == "" {
			continue
		}
		f.entries[e.Machine] = e
	}
}

// RestoreRemove replays a logged removal without firing the sink; only WALs
// written by older binaries hold such records.
func (f *FedGateway) RestoreRemove(machine string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	delete(f.entries, machine)
}

// lookup returns the live entry for a machine, treating expired entries as
// absent (they are reaped lazily here and in SyncOnce).
func (f *FedGateway) lookup(machine string) (RegEntry, bool) {
	now := f.clock.Now()
	f.mu.Lock()
	defer f.mu.Unlock()
	ent, ok := f.entries[machine]
	if ok && ent.expired(now) {
		delete(f.entries, machine)
		ok = false
	}
	return ent, ok
}

// localResources lists the live entries in this peer's shard, sorted by
// machine ID.
func (f *FedGateway) localResources() []resource {
	now := f.clock.Now()
	f.mu.Lock()
	out := make([]resource, 0, len(f.entries))
	for id, ent := range f.entries {
		if ent.expired(now) {
			delete(f.entries, id)
			continue
		}
		out = append(out, resource{MachineID: id, Addr: ent.Addr})
	}
	f.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].MachineID < out[j].MachineID })
	return out
}

// tracer is the observability bundle's tracer, nil without one.
func (f *FedGateway) tracer() *otrace.Tracer {
	if f.obs == nil {
		return nil
	}
	return f.obs.Tracer
}

// warn logs at WARN level when a logger is installed.
func (f *FedGateway) warn(msg string, args ...interface{}) {
	if f.logger != nil {
		f.logger.Warn(msg, args...)
	}
}

// callPeer performs one peer RPC with retries, routed through the peer's
// circuit breaker. A quarantined peer fails fast with a transport-class
// error so routing falls through to the next replica; the outcome feeds the
// breaker (BreakerSet.observe).
func (f *FedGateway) callPeer(ctx context.Context, p Peer, typ string, payload, out interface{}, retry bool) error {
	if !f.breakers.allow(p.ID) {
		return &transportError{err: fmt.Errorf("ishare: peer %s: %w", p.ID, errCircuitOpen)}
	}
	var err error
	if retry {
		err = f.peers.CallRetry(ctx, p.Addr, typ, payload, out, f.timeout)
	} else {
		err = f.peers.Call(ctx, p.Addr, typ, payload, out, f.timeout)
	}
	f.breakers.observe(p.ID, err)
	return err
}

// register routes a machine registration to its owner peer and replicates
// it. A registration entering at a non-candidate peer is forwarded to the
// first live member of the machine's replica set; the receiving candidate
// stores it and pushes it to the other candidates synchronously, so an
// entry is fault tolerant the moment the register ACKs. If every candidate
// is unreachable the entry peer stores the entry itself as a stray —
// queries entering here still work, and anti-entropy repairs placement
// once candidates return.
func (f *FedGateway) register(ctx context.Context, reg registerReq) error {
	if reg.MachineID == "" || reg.Addr == "" {
		return fmt.Errorf("fed: registration needs machine id and address")
	}
	ttl, err := ttlDuration(reg.TTLSeconds)
	if err != nil {
		return err
	}
	cands := f.Candidates(reg.MachineID)
	for _, p := range cands {
		// A forwarded registration is stored where it lands.
		if reg.Forwarded || p.ID == f.self.ID {
			f.store(reg.MachineID, reg.Addr, ttl)
			f.replicateEntry(ctx, cands, reg.MachineID, reg.Addr, ttl)
			return nil
		}
		fwd := reg
		fwd.Forwarded = true
		err := f.callPeer(ctx, p, msgRegister, fwd, nil, true)
		if err == nil {
			f.addForwarded()
			return nil
		}
		if !isTransport(err) {
			return err
		}
		f.warn("fed register forward failed", "machine", reg.MachineID, "peer", p.ID, "err", err)
	}
	f.warn("fed register stored off-placement: no candidate reachable", "machine", reg.MachineID)
	f.store(reg.MachineID, reg.Addr, ttl)
	return nil
}

// replicateEntry pushes one entry to the other members of its replica set
// cands, best effort: a dead replica is only logged (anti-entropy retries).
func (f *FedGateway) replicateEntry(ctx context.Context, cands []Peer, machine, addr string, ttl time.Duration) {
	ent := fedEntry{MachineID: machine, Addr: addr, TTLSeconds: ttl.Seconds()}
	if ttl <= 0 {
		ent.TTLSeconds = 0
	}
	for _, p := range cands {
		if p.ID == f.self.ID {
			continue
		}
		req := fedSyncReq{From: f.self.ID, Entries: []fedEntry{ent}}
		if err := f.callPeer(ctx, p, msgFedSync, req, nil, true); err != nil {
			f.warn("fed replicate failed", "machine", machine, "peer", p.ID, "err", err)
			continue
		}
		f.addSyncPushed(1)
	}
}

// fedSync applies a replication push: each entry is upserted when it is
// new here, fresher (later expiry) than what is stored, or replaces an
// expired entry. Older pushes lose, so a stale anti-entropy round cannot
// roll back a heartbeat refresh.
func (f *FedGateway) fedSync(req fedSyncReq) fedSyncResp {
	now := f.clock.Now()
	f.mu.Lock()
	if req.From != "" {
		f.lastSync[req.From] = now
	}
	var applied []RegEntry
	accepted := 0
	for _, e := range req.Entries {
		ttl, err := ttlDuration(e.TTLSeconds)
		if e.MachineID == "" || e.Addr == "" || err != nil {
			continue
		}
		ent := newRegEntry(e.MachineID, e.Addr, ttl, now)
		cur, ok := f.entries[e.MachineID]
		if ok && !fresher(cur, ent.Expires, now) {
			continue
		}
		f.entries[e.MachineID] = ent
		accepted++
		if f.sink != nil {
			applied = append(applied, ent)
		}
	}
	f.syncAccepted += uint64(accepted)
	sink := f.sink
	f.mu.Unlock()
	if sink != nil {
		for _, e := range applied {
			sink(e)
		}
	}
	return fedSyncResp{Accepted: accepted}
}

// fedFreshSlack is the minimum expiry gain before a re-pushed entry counts
// as fresher. Anti-entropy ships remaining TTLs, and the receiver re-anchors
// them at its own clock, so every round trip shifts the recomputed expiry by
// the delivery latency — without slack those jitter-sized "gains" are
// accepted forever and the ring never reports converged under wall clocks
// (a heartbeat refresh extends the expiry by whole seconds and still wins).
const fedFreshSlack = 500 * time.Millisecond

// fresher reports whether an incoming entry expiring at `expires` should
// replace cur.
func fresher(cur RegEntry, expires time.Time, now time.Time) bool {
	if cur.expired(now) {
		return true
	}
	if cur.Expires.IsZero() {
		return false // current entry never expires
	}
	return expires.IsZero() || expires.After(cur.Expires.Add(fedFreshSlack))
}

// SyncOnce runs one anti-entropy round: every live local entry is pushed,
// with its remaining TTL, to the other members of its replica set. Peers
// are contacted in sorted order and each gets one batched push. Returns
// the number of entries sent (counting each peer delivery). The round's
// outcome — every push delivered, how many entries peers newly accepted —
// feeds Ready's convergence check.
func (f *FedGateway) SyncOnce(ctx context.Context) int {
	now := f.clock.Now()
	batches := make(map[string][]fedEntry)
	addrs := make(map[string]Peer)
	f.mu.Lock()
	for id, ent := range f.entries {
		if ent.expired(now) {
			delete(f.entries, id)
			continue
		}
		we := fedEntry{MachineID: id, Addr: ent.Addr}
		if !ent.Expires.IsZero() {
			we.TTLSeconds = ent.Expires.Sub(now).Seconds()
		}
		for _, p := range f.Candidates(id) {
			if p.ID == f.self.ID {
				continue
			}
			batches[p.ID] = append(batches[p.ID], we)
			addrs[p.ID] = p
		}
	}
	f.mu.Unlock()
	peerIDs := make([]string, 0, len(batches))
	for id := range batches {
		peerIDs = append(peerIDs, id)
	}
	sort.Strings(peerIDs)
	sent := 0
	accepted := 0
	allOK := true
	for _, id := range peerIDs {
		batch := batches[id]
		sort.Slice(batch, func(i, j int) bool { return batch[i].MachineID < batch[j].MachineID })
		req := fedSyncReq{From: f.self.ID, Entries: batch}
		var sr fedSyncResp
		if err := f.callPeer(ctx, addrs[id], msgFedSync, req, &sr, true); err != nil {
			f.warn("fed anti-entropy push failed", "peer", id, "entries", len(batch), "err", err)
			allOK = false
			continue
		}
		sent += len(batch)
		accepted += sr.Accepted
		f.addSyncPushed(uint64(len(batch)))
	}
	f.mu.Lock()
	f.syncRounds++
	f.lastRoundAccepted = accepted
	f.lastRoundOK = allOK
	f.mu.Unlock()
	return sent
}

// StartSync runs anti-entropy rounds every interval until the returned
// stop function is called. This is the heartbeat that heals replicas after
// a peer restart and keeps remaining-TTL views converged.
func (f *FedGateway) StartSync(every time.Duration) (stop func()) {
	if every <= 0 {
		every = 30 * time.Second
	}
	return StartLoop(f.clock, every, func() { f.SyncOnce(context.Background()) })
}

// route serves one machine-scoped request: from the local shard when this
// peer holds the machine's entry (serve), otherwise by forwarding the
// fed request to the machine's candidate peers in ring order. Transport
// failures and unknown-machine rejections fall through to the next
// candidate; any other application error is authoritative. A request
// marked local is never re-forwarded.
func (f *FedGateway) route(ctx context.Context, machine string, local bool, fedType string, fedReq, out interface{}, retry bool, serve func(addr string) error) error {
	if machine == "" {
		return fmt.Errorf("fed: request needs a machine")
	}
	if local {
		ent, ok := f.lookup(machine)
		if !ok {
			return fmt.Errorf("%s: %q", fedUnknownMachine, machine)
		}
		f.addServed()
		return serve(ent.Addr)
	}
	var lastErr error
	var cands [4]Peer // the fanout of any replica count up to 3
	for _, p := range f.ring.appendSuccessors(cands[:0], machine, f.fanout()) {
		if p.ID == f.self.ID {
			ent, ok := f.lookup(machine)
			if !ok {
				continue
			}
			f.addServed()
			return serve(ent.Addr)
		}
		err := f.callPeer(ctx, p, fedType, fedReq, out, retry)
		if err == nil {
			f.addForwarded()
			return nil
		}
		if isTransport(err) || isOverloaded(err) || isUnknownMachine(err) {
			lastErr = err
			continue
		}
		return err
	}
	// Off-placement stray (every candidate was down at register time)?
	if ent, ok := f.lookup(machine); ok {
		f.addServed()
		return serve(ent.Addr)
	}
	if lastErr != nil {
		return fmt.Errorf("fed: machine %q unreachable on every replica: %w", machine, lastErr)
	}
	return fmt.Errorf("%s: %q", fedUnknownMachine, machine)
}

// fedQueryTRHop is what one FedQueryTR hands its hops as interface values.
// They come from one pooled struct, so boxing them allocates nothing. Every
// transport decodes in the calling goroutine (Pool.call, exchange), so
// nothing writes a hop's scratch after its call returns.
type fedQueryTRHop struct {
	fwd   FedQueryTRReq
	query QueryTRReq
	resp  QueryTRResp
}

var fedQueryTRHops = sync.Pool{New: func() interface{} { return new(fedQueryTRHop) }}

// FedQueryTR serves or forwards a federated QueryTR.
func (f *FedGateway) FedQueryTR(ctx context.Context, req FedQueryTRReq) (QueryTRResp, error) {
	h := fedQueryTRHops.Get().(*fedQueryTRHop)
	h.fwd, h.query = req, req.Query
	h.fwd.Local = true
	err := f.route(ctx, req.Machine, req.Local, msgFedQueryTR, &h.fwd, &h.resp, true, func(addr string) error {
		return f.machine(addr).CallRetry(ctx, addr, MsgQueryTR, &h.query, &h.resp, f.timeout)
	})
	resp := h.resp
	*h = fedQueryTRHop{}
	fedQueryTRHops.Put(h)
	return resp, err
}

// fedSubmit serves or forwards a federated Submit. The entry peer attaches
// an idempotency key before the first hop (unless the client already chose
// one), making every downstream retry — peer hop or machine attempt —
// replay-safe.
func (f *FedGateway) fedSubmit(ctx context.Context, req fedSubmitReq) (SubmitResp, error) {
	if !req.Local && req.Job.IdempotencyKey == "" {
		req.Job.IdempotencyKey = f.caller.nextKey("fed/" + req.Machine)
	}
	var resp SubmitResp
	fwd := req
	fwd.Local = true
	err := f.route(ctx, req.Machine, req.Local, msgFedSubmit, fwd, &resp, true, func(addr string) error {
		return f.machine(addr).CallRetry(ctx, addr, MsgSubmit, req.Job, &resp, f.timeout)
	})
	return resp, err
}

// fedJobStatus serves or forwards a federated JobStatus.
func (f *FedGateway) fedJobStatus(ctx context.Context, req fedJobReq) (JobStatusResp, error) {
	var resp JobStatusResp
	fwd := req
	fwd.Local = true
	err := f.route(ctx, req.Machine, req.Local, msgFedJobStatus, fwd, &resp, true, func(addr string) error {
		return f.machine(addr).CallRetry(ctx, addr, msgJobStatus, req.Job, &resp, f.timeout)
	})
	return resp, err
}

// fedKill serves or forwards a federated Kill. Like RemoteGateway.Kill,
// the machine hop gets a single attempt (killing twice is an application
// error); peer hops are not retried either, so a lost ACK is surfaced to
// the client, which can confirm the outcome with FedJobStatus.
func (f *FedGateway) fedKill(ctx context.Context, req fedJobReq) (JobStatusResp, error) {
	var resp JobStatusResp
	fwd := req
	fwd.Local = true
	err := f.route(ctx, req.Machine, req.Local, msgFedKill, fwd, &resp, false, func(addr string) error {
		return f.machine(addr).Call(ctx, addr, msgKillJob, req.Job, &resp, f.timeout)
	})
	return resp, err
}

// globalResources merges every peer's live shard into one sorted view:
// this peer's entries plus a local-only discover against each other peer.
// Unreachable peers are skipped — with replication the survivors still
// cover their shards.
func (f *FedGateway) globalResources(ctx context.Context) []resource {
	merged := make(map[string]resource)
	for _, r := range f.localResources() {
		merged[r.MachineID] = r
	}
	for _, p := range f.ring.members() {
		if p.ID == f.self.ID {
			continue
		}
		var dr discoverResp
		if err := f.callPeer(ctx, p, msgDiscover, discoverReq{Local: true}, &dr, true); err != nil {
			f.warn("fed discover fan-out failed", "peer", p.ID, "err", err)
			continue
		}
		for _, r := range dr.Resources {
			merged[r.MachineID] = r
		}
	}
	out := make([]resource, 0, len(merged))
	for _, r := range merged {
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].MachineID < out[j].MachineID })
	return out
}

// RingStats snapshots this peer's view of the ring for query-stats.
func (f *FedGateway) RingStats() *RingStats {
	now := f.clock.Now()
	st := &RingStats{
		Self:     f.self.ID,
		Vnodes:   f.ring.vnodes,
		Replicas: f.replicas,
	}
	ownerCount := make(map[string]int)
	f.mu.Lock()
	for id, ent := range f.entries {
		if ent.expired(now) {
			continue
		}
		st.Entries++
		owner, _ := f.ring.Owner(id)
		ownerCount[owner.ID]++
		if owner.ID == f.self.ID {
			st.Owned++
		} else {
			st.Replicated++
		}
	}
	st.Served = f.served
	st.Forwarded = f.forwarded
	st.SyncPushed = f.syncPushed
	st.SyncAccepted = f.syncAccepted
	lastSync := make(map[string]time.Time, len(f.lastSync))
	for id, t := range f.lastSync {
		lastSync[id] = t
	}
	f.mu.Unlock()
	for _, p := range f.ring.members() {
		row := RingPeerStats{ID: p.ID, Addr: p.Addr, OwnedEntries: ownerCount[p.ID]}
		if p.ID == f.self.ID {
			row.Self = true
		} else {
			row.Breaker = f.breakers.state(p.ID).String()
			if t, ok := lastSync[p.ID]; ok {
				row.LastSyncAgeSeconds = now.Sub(t).Seconds()
			} else {
				row.LastSyncAgeSeconds = -1
			}
		}
		st.Peers = append(st.Peers, row)
	}
	return st
}

func (f *FedGateway) addServed()             { f.mu.Lock(); f.served++; f.mu.Unlock() }
func (f *FedGateway) addForwarded()          { f.mu.Lock(); f.forwarded++; f.mu.Unlock() }
func (f *FedGateway) addSyncPushed(n uint64) { f.mu.Lock(); f.syncPushed += n; f.mu.Unlock() }

// fedRoutes is every RPC a federation peer serves.
var fedRoutes = []route[*FedGateway]{
	on(msgRegister, "register", false, func(f *FedGateway, ctx context.Context, reg registerReq) (interface{}, error) {
		return nil, f.register(ctx, reg) // acknowledged without a payload
	}),
	on(msgDiscover, "discover", true, (*FedGateway).discover),
	on(msgFedQueryTR, "fed query", false, (*FedGateway).FedQueryTR),
	on(msgFedSubmit, "fed submit", false, (*FedGateway).fedSubmit),
	on(msgFedJobStatus, "fed status", false, (*FedGateway).fedJobStatus),
	on(msgFedKill, "fed kill", false, (*FedGateway).fedKill),
	on(msgFedSync, "fed sync", false, func(f *FedGateway, _ context.Context, req fedSyncReq) (fedSyncResp, error) {
		return f.fedSync(req), nil
	}),
	on(msgQueryStats, "stats", true, (*FedGateway).queryStats),
	on(msgQueryObs, "obs", true, (*FedGateway).queryObs),
	on(msgQueryTraces, "traces", true, func(f *FedGateway, _ context.Context, req QueryTracesReq) (QueryTracesResp, error) {
		return queryTraces(f.self.ID, f.tracer().Recorder(), f.obs, req)
	}),
}

// discover lists this peer's shard (the peer-to-peer fan-out form) or the
// merged federation-wide view served to clients.
func (f *FedGateway) discover(ctx context.Context, req discoverReq) (discoverResp, error) {
	if req.Local {
		return discoverResp{Resources: f.localResources()}, nil
	}
	return discoverResp{Resources: f.globalResources(ctx)}, nil
}

// queryStats is a peer's query-stats: its ring view beside the serving-path
// figures every node reports.
func (f *FedGateway) queryStats(context.Context, QueryStatsReq) (QueryStatsResp, error) {
	resp := QueryStatsResp{MachineID: f.self.ID, Ring: f.RingStats()}
	f.obs.servingStats(&resp)
	return resp, nil
}

// Handler serves fedRoutes behind the shared serving shell (serveRoutes).
func (f *FedGateway) Handler() Handler {
	return serveRoutes(f, fedRoutes, "fed", "peer", f.self.ID, f.tracer, f.obs)
}

// ServeConfig starts a protocol server for the peer on addr under cfg's
// admission-control and deadline bounds (the zero ServerConfig selects every
// default), with the peer's serving-path metrics installed when
// observability is attached.
func (f *FedGateway) ServeConfig(addr string, cfg ServerConfig) (*Server, error) {
	return listenRoutes(addr, f.Handler(), cfg, f.obs)
}
