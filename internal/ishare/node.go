package ishare

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
	"log/slog"
	"time"

	"fgcs/internal/avail"
	"fgcs/internal/durable"
	"fgcs/internal/monitor"
	"fgcs/internal/simclock"
	"fgcs/internal/trace"
)

// HostNode bundles the three prediction-related daemons of Figure 2 — the
// iShare gateway, the resource monitor and the state manager — wired
// exactly as the paper describes: the monitor samples host resource usage
// periodically, each sample flows to the state manager (history logs,
// prediction) and to the gateway (guest-process control).
type HostNode struct {
	Gateway *Gateway
	// Monitor is nil on a node built without a load source.
	Monitor *monitor.Monitor
	SM      *StateManager
	// Persist is the durability layer, nil unless NodeConfig.Durable was
	// set. When present it sits between the monitor and the gateway in the
	// sample path.
	Persist *Persister

	clock simclock.Clock
}

// NodeConfig configures a host node. Its zero deps are what ishared runs:
// the wall clock, the paper's 6 s period and model thresholds, and an
// engine and observability bundle of the node's own.
type NodeConfig struct {
	MachineID string
	// Cfg is the availability model configuration (zero =
	// avail.DefaultConfig).
	Cfg avail.Config
	// Period is the monitoring period (defaults to the paper's 6 s).
	Period time.Duration
	// Clock defaults to the wall clock.
	Clock simclock.Clock
	// Preloaded optionally seeds the state manager with history.
	Preloaded *trace.Machine
	// HistoryDays bounds the SMP day pool (0 = all).
	HistoryDays int
	// HeartbeatPath enables the t_monitor heartbeat file: written on every
	// sample, and read once at start to record a revocation (URR) as down
	// samples.
	HeartbeatPath string
	// Logger, when non-nil, receives structured records from the node's
	// daemons (monitor tick failures, recorder drops). It should already
	// carry the machine attr; components add their own.
	Logger *slog.Logger
	// Durable, when non-nil, persists the node's state (sample history,
	// idempotency keys, accuracy stats) through a WAL + snapshots. The node
	// takes ownership of the store: HostNode.Persist closes it.
	Durable *durable.Store
	// DurableRecovery carries the state recovered by durable.Open to replay
	// into the node before it starts serving. Nil on a fresh data dir.
	DurableRecovery *durable.Recovery
	// Shared, when set, lends the node an engine and observability bundle
	// that other nodes in the process use too (see SharedDeps).
	Shared SharedDeps
}

// productionAttempts is what ishared gives an idempotent RPC: a peer's hops
// and a host node's registrations, each bounded by publishTimeout.
const productionAttempts, publishTimeout = 3, 5 * time.Second

// NewHostNode assembles a node around the given load source. A nil source
// builds no monitor: the caller feeds Gateway.Record itself, as a simulator
// replaying recorded days does.
func NewHostNode(cfg NodeConfig, src monitor.LoadSource) (*HostNode, error) {
	if cfg.MachineID == "" {
		return nil, fmt.Errorf("ishare: node needs a machine id")
	}
	if cfg.Period <= 0 {
		cfg.Period = trace.DefaultPeriod
	}
	if cfg.Clock == nil {
		cfg.Clock = simclock.Real{}
	}
	if cfg.Cfg == (avail.Config{}) {
		cfg.Cfg = avail.DefaultConfig()
	}
	sm, err := NewStateManagerShared(cfg.MachineID, cfg.Period, cfg.Cfg, cfg.Clock, cfg.Preloaded, cfg.HistoryDays, cfg.Shared)
	if err != nil {
		return nil, err
	}
	sm.recorder.SetLogger(cfg.Logger)
	gw, err := NewGateway(cfg.MachineID, cfg.Cfg, cfg.Period, cfg.Clock, sm)
	if err != nil {
		return nil, err
	}
	// The gateway sink feeds the state manager itself, so the monitor
	// only needs the one sink. The monitor gets the error and tick-latency
	// instruments but not the sample counter: samples are counted by the
	// state manager, which also sees replayed days (FeedDay), so the count
	// stays truthful however samples arrive.
	var persist *Persister
	var sink monitor.Sink = gw
	if cfg.Durable != nil {
		persist, err = NewPersister(cfg.Durable, cfg.DurableRecovery, sm, gw, cfg.Logger)
		if err != nil {
			return nil, err
		}
		sink = persist
	}
	if cfg.HeartbeatPath != "" {
		recordRevocation(cfg, sm.recorder, sink)
	}
	node := &HostNode{Gateway: gw, SM: sm, Persist: persist, clock: cfg.Clock}
	if src == nil {
		return node, nil
	}
	obsv := sm.obsv
	node.Monitor, err = monitor.New(monitor.Config{
		Period:        cfg.Period,
		Clock:         cfg.Clock,
		HeartbeatPath: cfg.HeartbeatPath,
		Metrics: &monitor.Metrics{
			Errors:      obsv.Monitor.Errors,
			TickSeconds: obsv.Monitor.TickSeconds,
		},
		Logger: cfg.Logger,
	}, src, sink)
	if err != nil {
		return nil, err
	}
	return node, nil
}

// recordRevocation is the paper's URR detection (Section 5.2), run once as the
// node starts: after a t_monitor heartbeat older than monitor.OutageAfter,
// monitor.Backfill sends [t_monitor, now) through the node's sink as down
// samples — so the history log, and a WAL, hold the outage before the first
// live sample. No file is a first boot. A recorder that holds a sample of
// its own back-fills the gap from it as the next sample lands, under the
// same bound, so the sink then takes only the outage's last sample: sent
// whole as well, the outage would be recorded twice, a week each.
func recordRevocation(cfg NodeConfig, rec *monitor.Recorder, sink monitor.Sink) {
	from, to, err := monitor.DetectRevocation(cfg.HeartbeatPath, cfg.Clock.Now(), monitor.OutageAfter(cfg.Period))
	switch {
	case errors.Is(err, monitor.ErrNoGap), errors.Is(err, fs.ErrNotExist):
	case err != nil:
		if cfg.Logger != nil {
			cfg.Logger.Warn("heartbeat unreadable, revocation not checked",
				slog.String("path", cfg.HeartbeatPath), slog.String("err", err.Error()))
		}
	default:
		var last time.Time
		rec.View(func(_ *trace.Machine, l time.Time) { last = l })
		record := sink.Record
		if !last.IsZero() {
			record = func(t time.Time, s trace.Sample) {
				if !t.Add(cfg.Period).Before(to) {
					sink.Record(t, s)
				}
			}
		}
		start := monitor.Backfill(from, to, cfg.Period, record)
		if cfg.Logger != nil {
			cfg.Logger.Info("revocation recorded", slog.String("path", cfg.HeartbeatPath),
				slog.Time("down_from", from), slog.Time("down_to", to), slog.Time("recorded_from", start))
		}
	}
}

// Obs exposes the node's observability bundle (metrics registry + accuracy
// tracker), shared by every component on the node.
func (n *HostNode) Obs() *NodeObs { return n.SM.obsv }

// Start launches the monitor loop in the background (none without a load
// source).
func (n *HostNode) Start() {
	if n.Monitor != nil {
		go n.Monitor.Run()
	}
}

// Stop terminates the monitor loop.
func (n *HostNode) Stop() {
	if n.Monitor != nil {
		n.Monitor.Stop()
	}
}

// Publish registers the node's gateway, listening at gatewayAddr, with the
// registry under ttl and re-registers it every interval (never when ttl or
// every is 0), so the registration expires soon after the node dies. One
// pooled connection, under productionAttempts counted into Obs().Caller,
// carries every registration. Only the first one's error is returned: a
// missed heartbeat is the signal the TTL is there to catch. stop ends the
// heartbeat and closes the connection.
func (n *HostNode) Publish(registryAddr, gatewayAddr string, ttl, every time.Duration) (stop func(), err error) {
	caller := &Caller{Pool: &Pool{}, Retry: RetryPolicy{MaxAttempts: productionAttempts}, Metrics: n.Obs().Caller}
	register := func() error {
		return RegisterWithTTL(context.Background(), caller, registryAddr, n.Gateway.machineID, gatewayAddr, ttl, publishTimeout)
	}
	if err := register(); err != nil {
		caller.Pool.Close()
		return nil, err
	}
	stopBeat := func() {}
	if ttl > 0 && every > 0 {
		stopBeat = StartLoop(n.clock, every, func() { _ = register() })
	}
	return func() { stopBeat(); caller.Pool.Close() }, nil
}
