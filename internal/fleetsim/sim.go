// Package fleetsim drives a federated iShare fleet — N gateway peers
// serving M simulated machines — entirely in process: a virtual clock
// instead of sleeps and faultnet's in-memory network instead of sockets,
// with the production client, routing, registry and prediction stacks
// otherwise unmodified. One run covers a registration storm, steady-state
// replayed traffic across a day rollover, heartbeat refresh, leave/join
// churn, TTL reaping, and a peer crash/restart healed by anti-entropy, and
// reports both a byte-deterministic simulation transcript and measured
// throughput/memory figures (see Report).
package fleetsim

import (
	"context"
	"fmt"
	"hash/fnv"
	"math"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"fgcs/internal/faultnet"
	"fgcs/internal/ishare"
	"fgcs/internal/obs"
	"fgcs/internal/predict"
	"fgcs/internal/rng"
	"fgcs/internal/simclock"
)

// simStart is the fixed simulated epoch: 23:00 UTC on a Wednesday, so
// default-length runs cross a day boundary mid-traffic (exercising the
// history rollover path) and the preloaded weekday history matches the
// query days' type under the estimator's weekday/weekend pooling.
var simStart = time.Date(2026, 6, 3, 23, 0, 0, 0, time.UTC)

// The fleet builds its peers and machines as ishared does, through
// ishare.NewFedGateway and ishare.NewHostNode at their zero config on the
// virtual clock and the in-memory network, but for four named differences:
// singleAttempt, rpcTimeout, the SharedDeps every machine takes from its
// peer (see buildFleet), and liftedCaps.
var (
	// singleAttempt is every fleet RPC's retry policy, peer hops included:
	// retries sleep on a clock, and nothing advances the virtual clock
	// during an RPC. Failover is the federation's job, not the transport's.
	singleAttempt = ishare.RetryPolicy{MaxAttempts: 1}
	// rpcTimeout bounds every fleet RPC, peer hops included. It runs on
	// the wall clock and is nominal: the in-memory network never blocks on
	// a wire, and production's 5 s could expire on a starved CPU and open
	// a breaker, making the transcript depend on scheduling.
	rpcTimeout = 30 * time.Second
	// liftedCaps is every fleet server's admission control: the fleet
	// models no server capacity, and a shed would make the transcript
	// depend on scheduling.
	liftedCaps = ishare.ServerConfig{MaxInflight: 1 << 20, PerConnInflight: 1 << 20}
)

// handle registers h at addr, counting its requests. Each connection gets a
// listener-less ishare.Server of its own (the production loops, and no
// server outlives its connection) under liftedCaps.
func handle(n *faultnet.Network, addr string, h ishare.Handler, requests *atomic.Int64) {
	n.Handle(addr, func(c net.Conn) {
		ishare.ServeListener(nil, func(req ishare.Request) (interface{}, error) {
			requests.Add(1)
			return h(req)
		}, liftedCaps).ServeConn(c)
	})
}

// queryLengthsSec are the requested job lengths (T) cycled by the replayed
// client traffic.
var queryLengthsSec = [3]float64{900, 1800, 3600}

// The fleet's fixed churn and retention settings.
const (
	// heartbeatEvery is the tick interval between fleet-wide registration
	// refreshes; a final round always runs on the last tick.
	heartbeatEvery = 8
	// registryTTL is the registration lifetime; the accuracy tracker evicts
	// a machine idle this long too.
	registryTTL = 90 * time.Minute
	// leaveFraction of initially registered machines stop heartbeating at
	// the churn tick, and joinFraction of Machines are held back from the
	// initial storm and registered there.
	leaveFraction = 0.05
	joinFraction  = 0.02
	// outageQueries are replayed while one peer is down.
	outageQueries = 500
	// engineCacheSize is the shared prediction-engine kernel cache.
	engineCacheSize = 8192
	// evictEvery is the tick interval between tracker eviction sweeps.
	evictEvery = 4
	// syncEvery is the anti-entropy interval after the restart: ishared's
	// default -sync-every, and the default breaker cooldown.
	syncEvery = 30 * time.Second
)

// churnTick is the tick after which the leave/join storm happens: 2/3 of
// Ticks, so always before the last.
func (c Config) churnTick() int { return c.Ticks * 2 / 3 }

// Config parameterizes one fleet run. The zero value of any field selects
// the documented default.
type Config struct {
	// Machines is the fleet size, including the join-storm holdbacks
	// (default 1000).
	Machines int
	// Gateways is the number of federation peers (default 8).
	Gateways int
	// Replicas is the registry replication factor K (default 2).
	Replicas int
	// Vnodes per peer on the consistent-hash ring (default 64).
	Vnodes int
	// Seed drives every random choice in the run (default 1).
	Seed uint64
	// Profiles is the number of shared machine behavior classes
	// (default 64, capped at Machines).
	Profiles int
	// HistoryDays of preloaded per-profile history (default 3).
	HistoryDays int
	// Period is the monitoring sample period (default 5m).
	Period time.Duration
	// Ticks of traffic; the clock advances one Period per tick
	// (default 24: two hours crossing midnight from the 23:00 start).
	Ticks int
	// QueriesPerTick across the whole fleet (default max(200, Machines/50)).
	QueriesPerTick int
	// Workers is the traffic parallelism; machines are partitioned over
	// workers, so worker count changes scheduling but not the transcript
	// only when it stays fixed — it is therefore part of the deterministic
	// config echo (default GOMAXPROCS).
	Workers int
	// DriftLambda is the Page–Hinkley alarm threshold of the per-peer
	// accuracy-drift watchers (0 = the obs package default).
	DriftLambda float64
	// PerturbFailRate, when > 0, arms the drift scenario: behavior profile
	// PerturbProfile switches to independent per-slot outages at this rate
	// from PerturbTick on (default 0 = disabled).
	PerturbFailRate float64
	// PerturbProfile is the perturbed behavior class (default 0).
	PerturbProfile int
	// PerturbTick is the first perturbed tick (default Ticks/2).
	PerturbTick int
	// Progress, when set, receives phase-level progress lines.
	Progress func(format string, args ...any)
}

func (c Config) withDefaults() Config {
	if c.Machines <= 0 {
		c.Machines = 1000
	}
	if c.Gateways <= 0 {
		c.Gateways = 8
	}
	if c.Replicas == 0 {
		c.Replicas = ishare.DefaultReplicas
	}
	if c.Vnodes <= 0 {
		c.Vnodes = ishare.DefaultVnodes
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Profiles <= 0 {
		c.Profiles = 64
	}
	if c.Profiles > c.Machines {
		c.Profiles = c.Machines
	}
	if c.HistoryDays <= 0 {
		c.HistoryDays = 3
	}
	if c.Period <= 0 {
		c.Period = 5 * time.Minute
	}
	if c.Ticks <= 0 {
		c.Ticks = 24
	}
	if c.QueriesPerTick <= 0 {
		c.QueriesPerTick = maxInt(200, c.Machines/50)
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.PerturbFailRate > 0 && c.PerturbTick <= 0 {
		c.PerturbTick = c.Ticks / 2
	}
	return c
}

func (c Config) validate() error {
	if c.Gateways < 2 {
		return fmt.Errorf("fleetsim: need at least 2 gateways")
	}
	if c.Replicas >= c.Gateways {
		return fmt.Errorf("fleetsim: replicas %d must be below gateways %d", c.Replicas, c.Gateways)
	}
	// Heartbeats must refresh registrations faster than they expire.
	if time.Duration(heartbeatEvery)*c.Period >= registryTTL {
		return fmt.Errorf("fleetsim: heartbeat interval %v not below registry TTL %v",
			time.Duration(heartbeatEvery)*c.Period, registryTTL)
	}
	if c.PerturbFailRate > 0 {
		if c.PerturbFailRate > 1 {
			return fmt.Errorf("fleetsim: perturb fail rate %v above 1", c.PerturbFailRate)
		}
		if c.PerturbProfile < 0 || c.PerturbProfile >= c.Profiles {
			return fmt.Errorf("fleetsim: perturb profile %d out of range [0, %d)", c.PerturbProfile, c.Profiles)
		}
		if c.PerturbTick >= c.Ticks {
			return fmt.Errorf("fleetsim: perturb tick %d must be below ticks %d", c.PerturbTick, c.Ticks)
		}
	}
	return nil
}

// simMachine is one fleet member: its production gateway/state-manager
// stack plus the behavior profile that generates its samples.
type simMachine struct {
	id   string
	addr string
	prof *profile
	gw   *ishare.Gateway
}

// workerState accumulates one traffic worker's partition-local results.
// Workers own disjoint machine sets, so per-machine event order is fixed;
// cross-worker results are combined in worker-index order, making every
// reduction deterministic.
type workerState struct {
	samplesUp   int64
	samplesDown int64
	cpuSum      float64
	harvestSum  float64
	queries     int64
	failures    int64
	trSum       float64
	trCount     int64
	hash        uint64 // running FNV-1a over the query transcript
	latencies   []float64
}

func (w *workerState) fold(record string) {
	h := fnv.New64a()
	_, _ = h.Write([]byte(record))
	if w.hash == 0 {
		w.hash = h.Sum64()
	} else {
		w.hash = mix64(w.hash ^ h.Sum64())
	}
}

func (w *workerState) foldQuery(tick, k int, machine string, lengthSec float64, resp ishare.QueryTRResp, err error) {
	if err != nil {
		w.fold(fmt.Sprintf("%d|%d|%s|%g|ERR|%s", tick, k, machine, lengthSec, err.Error()))
		return
	}
	// Cache counters are cumulative and scheduling-dependent, so they stay
	// out of the transcript; TR is folded as exact bits. The predictor field
	// folds too, always empty since SMP answers every query, which keeps the
	// transcript hash the one earlier runs recorded.
	w.fold(fmt.Sprintf("%d|%d|%s|%g|%016x|%d|%s|%s",
		tick, k, machine, lengthSec, math.Float64bits(resp.TR), resp.HistoryWindows, resp.CurrentState, resp.Predictor))
}

// fleet is the assembled simulation state shared by the phases.
type fleet struct {
	cfg   Config
	clock *simclock.Virtual
	// net carries every RPC, fault-free. Request bytes are a pure function
	// of the traffic; response bytes carry scheduling-dependent cache
	// counters, so they are perf-only.
	net      *faultnet.Network
	requests atomic.Int64 // requests served by every handler
	peers    []ishare.Peer
	feds     []*ishare.FedGateway
	machines []*simMachine
	// peerObs is each federation peer's observability bundle; machine i's
	// serving stack records into peerObs[i % Gateways], so every peer owns
	// the metrics and accuracy streams of its machine cohort (in ishared a
	// host node keeps its own, DESIGN §16). The fleet view exists only
	// after federated aggregation merges the peers' series and alerts;
	// accuracy is read off the trackers.
	peerObs []*ishare.NodeObs
	ctx     context.Context

	registered int // machines registered in the initial storm
	leavers    int // machines[0:leavers] leave at the churn tick
	joinStart  int // machines[joinStart:] join at the churn tick

	active [][]*simMachine // per-worker active machines (fed + queried)

	lastLeaverRefresh time.Time // last registration covering the leavers
	lastActiveRefresh time.Time // last registration covering survivors

	// Obs-plane state: alerts fired across the run (peer-stamped, in
	// peer-then-tick order) and the fleet serving SLO fed on the virtual
	// clock.
	alerts []obs.Alert
	slo    *obs.SLOMonitor
}

func (f *fleet) progress(format string, args ...any) {
	if f.cfg.Progress != nil {
		f.cfg.Progress(format, args...)
	}
}

// newCaller is a fleet client's caller: registrations and queries.
func (f *fleet) newCaller() *ishare.Caller {
	return &ishare.Caller{Dialer: f.net, Retry: singleAttempt, Clock: f.clock}
}

// fedConfig is peer i's config: identity, ring and observability bundle, the
// simulated world's clock, and a caller on its network under singleAttempt
// and rpcTimeout, counted into the bundle as the zero config's is.
func (f *fleet) fedConfig(i int) ishare.FedConfig {
	return ishare.FedConfig{
		Self:     f.peers[i],
		Peers:    f.peers,
		Vnodes:   f.cfg.Vnodes,
		Replicas: f.cfg.Replicas,
		Caller:   &ishare.Caller{Dialer: f.net, Retry: singleAttempt, Metrics: f.peerObs[i].Caller},
		Timeout:  rpcTimeout,
		Clock:    f.clock,
		Obs:      f.peerObs[i],
	}
}

// runWorkers executes fn(0..n-1) concurrently and waits for all of them.
func runWorkers(n int, fn func(wi int)) {
	var wg sync.WaitGroup
	for wi := 0; wi < n; wi++ {
		wg.Add(1)
		go func(wi int) {
			defer wg.Done()
			fn(wi)
		}(wi)
	}
	wg.Wait()
}

// Run executes one fleet simulation and returns its report.
func Run(cfg Config) (*Report, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	rep := &Report{Sim: SimStats{
		Machines:      cfg.Machines,
		Gateways:      cfg.Gateways,
		Replicas:      cfg.Replicas,
		Vnodes:        cfg.Vnodes,
		Profiles:      cfg.Profiles,
		HistoryDays:   cfg.HistoryDays,
		PeriodSeconds: cfg.Period.Seconds(),
		Ticks:         cfg.Ticks,
		Workers:       cfg.Workers,
		Seed:          cfg.Seed,
	}}
	if cfg.PerturbFailRate > 0 {
		rep.Sim.PerturbProfile = cfg.PerturbProfile
		rep.Sim.PerturbTick = cfg.PerturbTick
		rep.Sim.PerturbFailRate = cfg.PerturbFailRate
	}
	runStart := time.Now()

	f, err := buildFleet(cfg, rep)
	if err != nil {
		return nil, err
	}
	defer f.close()
	f.registerStorm(rep)
	f.trafficPhase(rep)
	f.churnPhase(rep)
	f.obsPhase(rep)
	f.finalize(rep)

	rep.Perf.TotalSeconds = time.Since(runStart).Seconds()
	return rep, nil
}

// buildFleet constructs profiles, peers and the per-machine serving stacks.
func buildFleet(cfg Config, rep *Report) (*fleet, error) {
	t0 := time.Now()
	midnight0 := time.Date(simStart.Year(), simStart.Month(), simStart.Day(), 0, 0, 0, 0, time.UTC)
	f := &fleet{
		cfg:   cfg,
		clock: simclock.NewVirtual(simStart),
		net:   faultnet.New(cfg.Seed, faultnet.Config{}),
		ctx:   context.Background(),
	}
	profs := genProfiles(cfg.Seed, cfg.Profiles, cfg.Period, cfg.HistoryDays, midnight0)
	if cfg.PerturbFailRate > 0 {
		// Samples at tick k carry the timestamp simStart + (k+1)*Period, so
		// arming at PerturbTick's timestamp perturbs that tick onward.
		profs[cfg.PerturbProfile].perturb(
			simStart.Add(time.Duration(cfg.PerturbTick+1)*cfg.Period), cfg.PerturbFailRate)
	}

	// One observability bundle (registry, accuracy tracker, drift watcher,
	// alert ring) per federation peer: machine i records into its peer
	// group's bundle, and the fleet-level view exists only after federated
	// aggregation merges the per-peer exports. The prediction engine stays
	// fleet-shared; its cache metrics land on peer 0's registry.
	f.peerObs = make([]*ishare.NodeObs, cfg.Gateways)
	for i := range f.peerObs {
		o := ishare.NewNodeObs()
		o.Tracker.SetRetention(obs.RetentionPolicy{IdleTTL: registryTTL})
		o.Drift = obs.NewDriftWatcher(o.Tracker, o.Alerts, cfg.DriftLambda)
		f.peerObs[i] = o
	}
	engine := predict.NewEngine(predict.EngineConfig{CacheSize: engineCacheSize})
	engine.SetMetrics(f.peerObs[0].Engine)
	f.slo = obs.NewSLOMonitor(obs.SLO{
		Name: "fleet-query",
		// Floor at a quarter of the configured fleet rate: deterministic
		// headroom over the exact per-tick rate the replay produces.
		QPSFloor:    0.25 * float64(cfg.QueriesPerTick) / cfg.Period.Seconds(),
		ErrorBudget: 0.01,
		ShortWindow: 2 * cfg.Period,
		LongWindow:  8 * cfg.Period,
	})

	f.peers = make([]ishare.Peer, cfg.Gateways)
	for i := range f.peers {
		id := fmt.Sprintf("gw%02d", i)
		f.peers[i] = ishare.Peer{ID: id, Addr: "fed/" + id}
	}
	f.feds = make([]*ishare.FedGateway, cfg.Gateways)
	for i := range f.feds {
		fed, err := ishare.NewFedGateway(f.fedConfig(i))
		if err != nil {
			return nil, err
		}
		f.feds[i] = fed
		handle(f.net, f.peers[i].Addr, fed.Handler(), &f.requests)
	}

	f.machines = make([]*simMachine, cfg.Machines)
	for i := range f.machines {
		id := fmt.Sprintf("m%06d", i)
		prof := profs[i%len(profs)]
		// No load source: the traffic phase feeds each gateway. Shared deps:
		// a registry and kernel cache per machine would not fit 100k.
		node, err := ishare.NewHostNode(ishare.NodeConfig{
			MachineID:   id,
			Period:      cfg.Period,
			Clock:       f.clock,
			Preloaded:   prof.machine,
			HistoryDays: cfg.HistoryDays,
			Shared:      ishare.SharedDeps{Obs: f.peerObs[i%cfg.Gateways], Engine: engine},
		}, nil)
		if err != nil {
			return nil, err
		}
		addr := "node/" + id
		handle(f.net, addr, node.Gateway.Handler(), &f.requests)
		f.machines[i] = &simMachine{id: id, addr: addr, prof: prof, gw: node.Gateway}
	}

	joiners := int(joinFraction * float64(cfg.Machines))
	f.joinStart = cfg.Machines - joiners
	f.registered = f.joinStart
	f.leavers = int(leaveFraction * float64(f.registered))
	rep.Sim.LeaveMachines = f.leavers
	rep.Sim.JoinMachines = joiners
	rep.Sim.Registered = f.registered

	// Initial active set: everything registered in the storm.
	f.active = make([][]*simMachine, cfg.Workers)
	for i := 0; i < f.joinStart; i++ {
		wi := i % cfg.Workers
		f.active[wi] = append(f.active[wi], f.machines[i])
	}

	rep.Perf.BuildSeconds = time.Since(t0).Seconds()
	f.progress("built %d machines on %d gateways in %.1fs", cfg.Machines, cfg.Gateways, rep.Perf.BuildSeconds)
	return f, nil
}

// close takes every address down. Peers, and machines a gateway keeps
// reaching, hold pooled connections (the rest close with their RPC), so
// this ends every serving goroutine and pool reader.
func (f *fleet) close() {
	for _, p := range f.peers {
		f.net.Handle(p.Addr, nil)
	}
	for _, m := range f.machines {
		f.net.Handle(m.addr, nil)
	}
}

// registerStorm publishes every non-holdback machine through a seeded
// random entry peer, measuring the control-plane cost of a cold fleet
// coming up at once.
func (f *fleet) registerStorm(rep *Report) {
	t0 := time.Now()
	bytes0 := f.net.DialerBytes()
	rpcs0 := f.requests.Load()
	now := f.clock.Now()
	runWorkers(f.cfg.Workers, func(wi int) {
		f.register(f.active[wi], fmt.Sprintf("register/%d", wi))
	})
	f.lastLeaverRefresh = now
	f.lastActiveRefresh = now
	rep.Perf.RegisterSeconds = time.Since(t0).Seconds()
	rep.Sim.RegisterRequestBytes = f.net.DialerBytes() - bytes0
	rep.Sim.RegisterRPCs = f.requests.Load() - rpcs0
	if rep.Perf.RegisterSeconds > 0 {
		rep.Perf.RegistrationsPerSec = float64(f.registered) / rep.Perf.RegisterSeconds
	}

	// Placement balance, computed locally from the same ring the peers use.
	ring := ishare.NewRing(f.cfg.Vnodes)
	for _, p := range f.peers {
		if err := ring.Add(p); err != nil {
			panic(err)
		}
	}
	owned := make(map[string]int)
	for i := 0; i < f.registered; i++ {
		o, _ := ring.Owner(f.machines[i].id)
		owned[o.ID]++
	}
	maxOwned := 0
	for _, n := range owned {
		maxOwned = maxInt(maxOwned, n)
	}
	fair := float64(f.registered) / float64(f.cfg.Gateways)
	if fair > 0 {
		rep.Sim.PlacementImbalance = float64(maxOwned) / fair
	}
	f.progress("registered %d machines in %.1fs (%d RPCs, imbalance %.2fx)",
		f.registered, rep.Perf.RegisterSeconds, rep.Sim.RegisterRPCs, rep.Sim.PlacementImbalance)
}

// register publishes ms through one caller, each to an entry peer drawn
// from the seeded stream label, which a failure's panic names.
func (f *fleet) register(ms []*simMachine, label string) {
	caller := f.newCaller()
	st := rng.New(f.cfg.Seed).Split(label)
	for _, m := range ms {
		entry := f.peers[st.Intn(len(f.peers))].Addr
		if err := ishare.RegisterWithTTL(f.ctx, caller, entry, m.id, m.addr, registryTTL, rpcTimeout); err != nil {
			panic(fmt.Sprintf("fleetsim: %s: register %s: %v", label, m.id, err))
		}
	}
}

// heartbeat re-registers every currently active machine, refreshing its
// TTL — the fleet's periodic keepalive storm.
func (f *fleet) heartbeat(tick int, rep *Report) {
	bytes0 := f.net.DialerBytes()
	runWorkers(f.cfg.Workers, func(wi int) {
		f.register(f.active[wi], fmt.Sprintf("heartbeat/%d/%d", tick, wi))
	})
	now := f.clock.Now()
	if tick <= f.cfg.churnTick() {
		f.lastLeaverRefresh = now
	}
	f.lastActiveRefresh = now
	rep.Sim.HeartbeatRounds++
	rep.Sim.HeartbeatRequestBytes += f.net.DialerBytes() - bytes0
}

// trafficPhase replays Ticks rounds of monitoring samples and client
// queries, with heartbeat refreshes, the leave/join storm at the churn tick,
// and periodic tracker eviction sweeps. Each of those steps, and the obs
// plane's, is timed, so the steps add up to TrafficSeconds.
func (f *fleet) trafficPhase(rep *Report) {
	cfg := f.cfg
	t0 := time.Now()
	queryBytes := int64(0)
	states := make([]*workerState, cfg.Workers)
	for i := range states {
		states[i] = &workerState{}
	}
	prevMidnight := midnightOf(f.clock.Now())

	for tick := 0; tick < cfg.Ticks; tick++ {
		f.clock.Advance(cfg.Period)
		now := f.clock.Now()
		if m := midnightOf(now); !m.Equal(prevMidnight) {
			rep.Sim.DayRollovers++
			prevMidnight = m
		}

		// Feed: one monitoring sample per active machine, driven straight
		// through the gateway sink exactly as a live monitor would.
		feed0 := time.Now()
		runWorkers(cfg.Workers, func(wi int) {
			ws := states[wi]
			for _, m := range f.active[wi] {
				s := m.prof.sampleAt(now)
				if s.Up {
					ws.samplesUp++
					ws.cpuSum += s.CPU
					ws.harvestSum += 1 - s.CPU/100
				} else {
					ws.samplesDown++
					m.gw.Crash()
				}
				m.gw.Record(now, s)
			}
		})
		rep.Perf.FeedSeconds += time.Since(feed0).Seconds()

		// Queries: replayed client traffic through random entry peers.
		// Each worker targets only its own partition, so the per-machine
		// prediction/observation order is deterministic.
		q0 := time.Now()
		qb0 := f.net.DialerBytes()
		runWorkers(cfg.Workers, func(wi int) {
			ws := states[wi]
			if len(f.active[wi]) == 0 {
				return
			}
			n := cfg.QueriesPerTick / cfg.Workers
			if wi < cfg.QueriesPerTick%cfg.Workers {
				n++
			}
			caller := f.newCaller()
			st := rng.New(cfg.Seed).Split(fmt.Sprintf("queries/%d/%d", tick, wi))
			for k := 0; k < n; k++ {
				target := f.active[wi][st.Intn(len(f.active[wi]))]
				entry := f.peers[st.Intn(len(f.peers))]
				length := queryLengthsSec[st.Intn(len(queryLengthsSec))]
				client := ishare.FedClient{Addr: entry.Addr, Caller: caller, Timeout: rpcTimeout}
				c0 := time.Now()
				resp, err := client.QueryTR(f.ctx, target.id, ishare.QueryTRReq{LengthSeconds: length, GuestMemMB: 100})
				ws.latencies = append(ws.latencies, float64(time.Since(c0).Microseconds()))
				ws.queries++
				if err != nil {
					ws.failures++
				} else {
					ws.trSum += resp.TR
					ws.trCount++
				}
				ws.foldQuery(tick, k, target.id, length, resp, err)
			}
		})
		rep.Perf.QuerySeconds += time.Since(q0).Seconds()
		queryBytes += f.net.DialerBytes() - qb0

		if (tick+1)%heartbeatEvery == 0 || tick == cfg.Ticks-1 {
			hb0 := time.Now()
			f.heartbeat(tick, rep)
			rep.Perf.HeartbeatSeconds += time.Since(hb0).Seconds()
		}
		if tick == cfg.churnTick() {
			storm0 := time.Now()
			f.churnStorm(rep)
			rep.Perf.ChurnStormSeconds = time.Since(storm0).Seconds()
		}
		if (tick+1)%evictEvery == 0 {
			evict0 := time.Now()
			for _, o := range f.peerObs {
				rep.Sim.TrackerEvictedMachines += uint64(o.Tracker.EvictIdle(f.clock.Now()))
			}
			rep.Perf.EvictSeconds += time.Since(evict0).Seconds()
		}

		// Obs plane: one cumulative SLO sample on the virtual clock, then
		// each peer's alerting step, in peer index order after the workers
		// have joined — everything it reads is a deterministic function of
		// the tick's completed traffic.
		obs0 := time.Now()
		var cumQ, cumF uint64
		for _, ws := range states {
			cumQ += uint64(ws.queries)
			cumF += uint64(ws.failures)
		}
		f.slo.Record(obs.SLOSample{T: now, Requests: cumQ, Errors: cumF})
		f.stepObs(now)
		rep.Perf.TrafficObsSeconds += time.Since(obs0).Seconds()

		if (tick+1)%8 == 0 {
			f.progress("tick %d/%d: %s", tick+1, cfg.Ticks, f.clock.Now().Format("15:04"))
		}
	}

	// Merge worker results in worker-index order.
	var lat []float64
	combined := fnv.New64a()
	for wi, ws := range states {
		rep.Sim.Utilization.SamplesUp += ws.samplesUp
		rep.Sim.Utilization.SamplesDown += ws.samplesDown
		rep.Sim.Utilization.MeanCPUPercent += ws.cpuSum
		rep.Sim.Utilization.HarvestableFraction += ws.harvestSum
		rep.Sim.Utilization.MeanPredictedTR += ws.trSum
		rep.Sim.Queries += ws.queries
		rep.Sim.QueryFailures += ws.failures
		fmt.Fprintf(combined, "%d:%016x\n", wi, ws.hash)
		lat = append(lat, ws.latencies...)
	}
	var trCount int64
	for _, ws := range states {
		trCount += ws.trCount
	}
	u := &rep.Sim.Utilization
	totalSamples := u.SamplesUp + u.SamplesDown
	if u.SamplesUp > 0 {
		u.MeanCPUPercent /= float64(u.SamplesUp)
	}
	if totalSamples > 0 {
		u.UpFraction = float64(u.SamplesUp) / float64(totalSamples)
		u.HarvestableFraction /= float64(totalSamples)
	}
	if trCount > 0 {
		u.MeanPredictedTR /= float64(trCount)
	}
	rep.Sim.SamplesFed = totalSamples
	rep.Sim.QueryRequestBytes = queryBytes
	rep.Sim.TranscriptFNV = fmt.Sprintf("%016x", combined.Sum64())
	rep.Sim.ControlBytesPerMachine = float64(rep.Sim.RegisterRequestBytes+rep.Sim.HeartbeatRequestBytes) /
		float64(maxInt(1, f.registered))

	sortFloats(lat)
	rep.Perf.LatencyP50Micros = percentile(lat, 0.50)
	rep.Perf.LatencyP99Micros = percentile(lat, 0.99)
	rep.Perf.TrafficSeconds = time.Since(t0).Seconds()
	if rep.Perf.QuerySeconds > 0 {
		rep.Perf.PredictionsPerSec = float64(rep.Sim.Queries) / rep.Perf.QuerySeconds
	}
	if rep.Perf.FeedSeconds > 0 {
		rep.Perf.SamplesPerSec = float64(rep.Sim.SamplesFed) / rep.Perf.FeedSeconds
	}
	rep.Perf.ObsPlaneSeconds += rep.Perf.TrafficObsSeconds
	f.progress("traffic done: %d queries (%d failed), %d samples, %.0f predictions/s",
		rep.Sim.Queries, rep.Sim.QueryFailures, rep.Sim.SamplesFed, rep.Perf.PredictionsPerSec)
}

// churnStorm removes the leavers from the active set and registers the
// join-storm holdbacks, which start being fed and queried from the next
// tick on.
func (f *fleet) churnStorm(rep *Report) {
	joiners := f.machines[f.joinStart:]
	f.register(joiners, "join")
	for wi := range f.active {
		f.active[wi] = f.active[wi][:0]
	}
	for i := f.leavers; i < len(f.machines); i++ {
		wi := i % f.cfg.Workers
		f.active[wi] = append(f.active[wi], f.machines[i])
	}
	f.progress("churn storm at %s: -%d leavers, +%d joiners",
		f.clock.Now().Format("15:04"), f.leavers, len(joiners))
}

// churnPhase runs the post-traffic scenario: TTL reaping of the leavers,
// ring key-movement accounting, then a peer outage with traffic served by
// replicas, a restart from empty state, and anti-entropy convergence.
func (f *fleet) churnPhase(rep *Report) {
	t0 := time.Now()
	cfg := f.cfg

	// Ring key movement on membership change, computed on a scratch ring:
	// consistent hashing promises a join moves only the keys the joiner
	// acquires and a leave only the leaver's own keys.
	keys := make([]string, 0, len(f.machines)-f.leavers)
	for i := f.leavers; i < len(f.machines); i++ {
		keys = append(keys, f.machines[i].id)
	}
	base := buildRing(cfg.Vnodes, f.peers)
	grown := buildRing(cfg.Vnodes, f.peers)
	if err := grown.Add(ishare.Peer{ID: "gw-join", Addr: "fed/gw-join"}); err != nil {
		panic(err)
	}
	shrunk := buildRing(cfg.Vnodes, f.peers)
	shrunk.Remove(f.peers[len(f.peers)-1].ID)
	for _, k := range keys {
		b, _ := base.Owner(k)
		if g, _ := grown.Owner(k); g.ID != b.ID {
			rep.Sim.JoinMovedKeys++
		}
		if s, _ := shrunk.Owner(k); s.ID != b.ID {
			rep.Sim.LeaveMovedKeys++
		}
	}
	if len(keys) > 0 {
		rep.Sim.JoinMovedFraction = float64(rep.Sim.JoinMovedKeys) / float64(len(keys))
		rep.Sim.LeaveMovedFraction = float64(rep.Sim.LeaveMovedKeys) / float64(len(keys))
	}

	// TTL reap: advance the clock into the window where the leavers' last
	// refresh has lapsed but the survivors' has not, then run one
	// anti-entropy round so every peer expels the dead entries.
	rep.Sim.EntriesBeforeReap = f.sumEntries()
	leaverExpiry := f.lastLeaverRefresh.Add(registryTTL)
	activeExpiry := f.lastActiveRefresh.Add(registryTTL)
	reapTime := leaverExpiry.Add(activeExpiry.Sub(leaverExpiry) / 2)
	if !reapTime.After(f.clock.Now()) {
		reapTime = f.clock.Now().Add(cfg.Period)
	}
	f.clock.AdvanceTo(reapTime)
	for _, fed := range f.feds {
		fed.SyncOnce(f.ctx)
	}
	rep.Sim.EntriesAfterReap = f.sumEntries()
	for _, o := range f.peerObs {
		rep.Sim.TrackerEvictedMachines += uint64(o.Tracker.EvictIdle(f.clock.Now()))
	}

	// Warm the aggregator's obs cache while every peer is still up, so the
	// outage below exercises the stale-merge path rather than losing gw00's
	// column outright.
	obs0 := time.Now()
	f.feds[1].FleetObs(f.ctx)
	rep.Perf.ObsPlaneSeconds += time.Since(obs0).Seconds()

	// Peer outage: gw00 drops off the network; queries entering elsewhere
	// are served by the entry's replica fallback.
	downAddr := f.peers[0].Addr
	f.net.Partition(downAddr)
	activeList := f.machines[f.leavers:]
	caller := f.newCaller()
	st := rng.New(cfg.Seed).Split("outage")
	outage := &workerState{}
	for k := 0; k < outageQueries; k++ {
		target := activeList[st.Intn(len(activeList))]
		entry := f.peers[1+st.Intn(len(f.peers)-1)]
		length := queryLengthsSec[st.Intn(len(queryLengthsSec))]
		client := ishare.FedClient{Addr: entry.Addr, Caller: caller, Timeout: rpcTimeout}
		resp, err := client.QueryTR(f.ctx, target.id, ishare.QueryTRReq{LengthSeconds: length, GuestMemMB: 100})
		outage.queries++
		if err != nil {
			outage.failures++
		}
		outage.foldQuery(-1, k, target.id, length, resp, err)
	}
	rep.Sim.OutageQueries = outage.queries
	rep.Sim.OutageFailures = outage.failures
	rep.Sim.OutageTranscriptFNV = fmt.Sprintf("%016x", outage.hash)

	// Fleet aggregation during the outage: gw00 cannot answer, so its
	// warmed export is merged marked stale — and since a down fed peer
	// serves no federation RPCs, its stale fed-serving counters still sum
	// exactly with the live peers'. The merged fed-query-tr counter is
	// recorded next to the same counter read directly off every peer
	// registry; the obs determinism test pins their equality.
	obs0 = time.Now()
	f.stepObs(f.clock.Now())
	chaos := f.feds[1].FleetObs(f.ctx)
	fo := &rep.Sim.FleetObs
	for _, ps := range chaos.Peers {
		switch ps.Status {
		case obs.PeerStale:
			fo.OutagePeersStale++
		case obs.PeerUnreachable:
			fo.OutagePeersUnreachable++
		default:
			fo.OutagePeersOK++
		}
	}
	fedQueryTR := obs.Label{Key: "type", Value: "fed-query-tr"}
	fo.OutageMergedFedQueryTR = chaos.Metrics.Find("fgcs_gateway_requests_total", fedQueryTR).Count
	for _, o := range f.peerObs {
		fo.OutageDirectFedQueryTR += o.Registry.Snapshot().Find("fgcs_gateway_requests_total", fedQueryTR).Count
	}
	rep.Perf.ObsPlaneSeconds += time.Since(obs0).Seconds()

	// Restart gw00 from empty state and count anti-entropy rounds until
	// every peer reports Ready — a full round in which all pushes landed
	// and nothing new was accepted. Rounds run syncEvery apart on the
	// virtual clock, as ishared's do on the wall clock, so the breakers the
	// outage opened on gw00 cool down and admit their probe.
	fresh, err := ishare.NewFedGateway(f.fedConfig(0))
	if err != nil {
		panic(err)
	}
	f.feds[0] = fresh
	handle(f.net, downAddr, fresh.Handler(), &f.requests)
	f.net.Heal(downAddr)
	for rounds := 0; rounds < 16; {
		f.clock.Advance(syncEvery)
		before := f.sumAccepted()
		for _, fed := range f.feds {
			fed.SyncOnce(f.ctx)
		}
		rounds++
		rep.Sim.ConvergenceRounds = rounds
		rep.Sim.ConvergenceAccepted += f.sumAccepted() - before
		if f.allReady() {
			break
		}
	}
	rep.Sim.RestartEntries = f.feds[0].RingStats().Entries
	rep.Perf.ChurnSeconds = time.Since(t0).Seconds()
	f.progress("churn done: entries %d -> %d, restart restored %d entries in %d rounds",
		rep.Sim.EntriesBeforeReap, rep.Sim.EntriesAfterReap, rep.Sim.RestartEntries, rep.Sim.ConvergenceRounds)
}

// maxReportAlerts caps the alert list embedded in the deterministic report
// block (the newest are kept; AlertsTotal records the true count).
const maxReportAlerts = 32

// obsPhase runs the final fleet-wide aggregation over the healed ring and
// folds the deterministic fleet-observability block into the report.
func (f *fleet) obsPhase(rep *Report) {
	t0 := time.Now()
	req0, resp0 := f.net.DialerBytes(), f.net.ServerBytes()
	snap := f.feds[1].FleetObs(f.ctx)
	rep.Perf.ObsAggregateSeconds = time.Since(t0).Seconds()
	rep.Perf.ObsPlaneSeconds += rep.Perf.ObsAggregateSeconds
	if n := f.cfg.Gateways - 1; n > 0 {
		rep.Perf.ObsBytesPerPeer = float64((f.net.DialerBytes()-req0)+(f.net.ServerBytes()-resp0)) / float64(n)
	}

	fo := &rep.Sim.FleetObs
	for _, ps := range snap.Peers {
		switch ps.Status {
		case obs.PeerStale:
			fo.PeersStale++
		case obs.PeerUnreachable:
			fo.PeersUnreachable++
		default:
			fo.PeersOK++
		}
	}
	// Only the gateway request/error families go into the deterministic
	// block: they are pure functions of the seeded traffic, while e.g. the
	// engine-cache counters depend on cross-worker scheduling.
	fo.GatewayRequests = make(map[string]uint64)
	for i := range snap.Metrics {
		switch sr := &snap.Metrics[i]; {
		case sr.Name == "fgcs_gateway_requests_total":
			fo.GatewayRequests[sr.ID()] = sr.Count
		case sr.Name == "fgcs_gateway_errors_total" && sr.Count > 0:
			if fo.GatewayErrors == nil {
				fo.GatewayErrors = make(map[string]uint64)
			}
			fo.GatewayErrors[sr.ID()] = sr.Count
		}
	}
	fo.AlertsTotal = len(f.alerts)
	if len(f.alerts) > 0 {
		fo.AlertsByKind = make(map[string]int)
		for _, a := range f.alerts {
			fo.AlertsByKind[a.Kind]++
		}
		al := f.alerts
		if len(al) > maxReportAlerts {
			al = al[len(al)-maxReportAlerts:]
		}
		fo.Alerts = al
	}
	fo.SLO = []obs.SLOStatus{f.slo.Status()}
	f.progress("obs plane: merged %d peers (%d stale at outage), %d alerts, %.0f B/peer",
		len(snap.Peers), fo.OutagePeersStale, fo.AlertsTotal, rep.Perf.ObsBytesPerPeer)
}

// finalize folds the tracker totals and memory figures into the report.
func (f *fleet) finalize(rep *Report) {
	for _, o := range f.peerObs {
		tr := o.Tracker
		rep.Sim.TrackerResolved += tr.Resolved()
		rep.Sim.TrackerDropped += tr.DroppedPredictions()
		rep.Sim.TrackerMachines += tr.Machines()
	}

	// SMP outcome accounting: the "_all" SMP rows of the peers' trackers,
	// summed. A row carries its correct count only as Accuracy =
	// correct/resolved; the count is recovered by rounding and must divide
	// back to the same bits, so the sums are exact.
	var resolved, survived, correct uint64
	for _, o := range f.peerObs {
		for _, s := range o.Tracker.All() {
			if s.Machine != "_all" || s.Predictor != "SMP" || s.Resolved == 0 {
				continue
			}
			c := uint64(math.Round(s.Accuracy * float64(s.Resolved)))
			if float64(c)/float64(s.Resolved) != s.Accuracy {
				panic(fmt.Sprintf("fleetsim: SMP accuracy %v is no count over %d resolved", s.Accuracy, s.Resolved))
			}
			resolved, survived, correct = resolved+s.Resolved, survived+s.Survived, correct+c
		}
	}
	u := &rep.Sim.Utilization
	u.SMPResolved = resolved
	u.SMPSurvived = survived
	if resolved > 0 {
		u.SMPEmpiricalSurvival = float64(survived) / float64(resolved)
		u.SMPAccuracy = float64(correct) / float64(resolved)
		u.WastedFraction = 1 - u.SMPAccuracy
	}

	rep.Perf.ResponseBytes = f.net.ServerBytes()
	rep.Perf.Goroutines = runtime.NumGoroutine()
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	rep.Perf.HeapBytes = ms.HeapAlloc
	rep.Perf.HeapBytesPerMachine = float64(ms.HeapAlloc) / float64(f.cfg.Machines)
	rep.Perf.RSSBytes = readRSS()
	rep.Perf.RSSBytesPerMachine = float64(rep.Perf.RSSBytes) / float64(f.cfg.Machines)
}

func (f *fleet) sumEntries() int {
	n := 0
	for _, fed := range f.feds {
		n += fed.RingStats().Entries
	}
	return n
}

func (f *fleet) sumAccepted() int64 {
	var n int64
	for _, fed := range f.feds {
		n += int64(fed.RingStats().SyncAccepted)
	}
	return n
}

// stepObs advances every peer's operational detectors (drift, shed-rate,
// breaker-flap, SLO sampling) at the virtual time and collects the alerts
// fired, stamped with the owning peer.
func (f *fleet) stepObs(now time.Time) {
	for g, o := range f.peerObs {
		for _, a := range o.StepObs(now) {
			a.Peer = f.peers[g].ID
			f.alerts = append(f.alerts, a)
		}
	}
}

// allReady reports whether every federation peer passes its readiness check
// (a clean anti-entropy round completed, ring converged).
func (f *fleet) allReady() bool {
	for _, fed := range f.feds {
		if fed.Ready() != nil {
			return false
		}
	}
	return true
}

func buildRing(vnodes int, peers []ishare.Peer) *ishare.Ring {
	r := ishare.NewRing(vnodes)
	for _, p := range peers {
		if err := r.Add(p); err != nil {
			panic(err)
		}
	}
	return r
}

func midnightOf(t time.Time) time.Time {
	t = t.UTC()
	return time.Date(t.Year(), t.Month(), t.Day(), 0, 0, 0, 0, time.UTC)
}
