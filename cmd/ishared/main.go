// Command ishared runs an iShare host node: the gateway, resource monitor
// and state manager daemons of Figure 2, exposing the gateway protocol over
// TCP and optionally registering with a registry.
//
//	ishared -id lab-01 -listen :7070 -registry registry-host:7000
//	ishared -id lab-01 -listen :7070 -source replay -trace testbed.trace
//	ishared -registry-only -listen :7000     # run a registry: a federation ring of one
//	ishared -id gw1 -listen :7000 \
//	    -peers gw1=host1:7000,gw2=host2:7000,gw3=host3:7000   # federation peer
//
// With -source proc (the default on Linux) the monitor samples the real host
// via /proc; with -source replay it replays a machine from a trace file,
// which is how a whole simulated testbed can be run on one box.
//
// With -peers the process runs a federated control-plane peer instead of a
// host node: machines are sharded across the listed peers by consistent
// hashing, every entry is replicated to -replicas successor peers, requests
// for machines owned elsewhere are forwarded transparently, and a
// -sync-every anti-entropy loop repairs replicas after restarts. Host nodes
// point -registry at any peer; clients point isharec -fed at any peer.
//
// With -data-dir the process keeps its state durable: monitor samples,
// accepted submits and accuracy statistics (host mode) or registry entries
// (registry-only and federation modes) are written to a checksummed
// write-ahead log with periodic snapshots (-snapshot-every), and a restart
// recovers the newest valid snapshot plus the log tail. -fsync picks the
// WAL sync policy. SIGTERM flushes the log and writes a final snapshot
// before exit, so a clean restart replays nothing.
//
// Served requests are traced (sampled at -trace-sample) into a fixed-size
// flight recorder, inspectable over HTTP (-obs-addr, GET /traces) and over
// the gateway protocol (isharec traces). Logs go to stderr through log/slog
// (-log-level, -log-json); WARN and above are also retained next to the
// traces.
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"fgcs/internal/avail"
	"fgcs/internal/durable"
	"fgcs/internal/ishare"
	"fgcs/internal/monitor"
	"fgcs/internal/obs"
	"fgcs/internal/otrace"
	"fgcs/internal/simclock"
	"fgcs/internal/trace"
)

func main() {
	var (
		id           = flag.String("id", hostnameOr("node"), "machine id")
		listen       = flag.String("listen", "127.0.0.1:7070", "gateway listen address")
		registry     = flag.String("registry", "", "registry address to publish to")
		registryOnly = flag.Bool("registry-only", false, "run a registry instead of a host node: a federation ring whose only peer is -id at -listen")
		source       = flag.String("source", "proc", "load source: proc or replay")
		traceFile    = flag.String("trace", "", "trace file for -source replay / preloaded history")
		heartbeat    = flag.String("heartbeat", "", "t_monitor heartbeat file path")
		histDays     = flag.Int("history", 0, "most recent N days to pool (0 = all)")
		archive      = flag.String("archive", "", "archive history logs to this trace file periodically and on shutdown")
		archiveEvery = flag.Duration("archive-every", 10*time.Minute, "archive interval")
		ttl          = flag.Duration("ttl", 90*time.Second, "registration TTL; re-registered by the heartbeat (0 = register once, never expires)")
		hbEvery      = flag.Duration("heartbeat-every", 30*time.Second, "registry re-registration interval")
		peers        = flag.String("peers", "", "comma-separated id=addr federation ring membership; enables federation mode (the list must include this peer's -id)")
		vnodes       = flag.Int("vnodes", ishare.DefaultVnodes, "federation: virtual nodes per peer on the consistent-hash ring")
		replicas     = flag.Int("replicas", ishare.DefaultReplicas, "federation: successor peers mirroring each registry entry (-1 = none)")
		syncEvery    = flag.Duration("sync-every", 30*time.Second, "federation: anti-entropy push interval (0 = on-register replication only)")
		obsAddr      = flag.String("obs-addr", "", "serve Prometheus /metrics, /debug/pprof and /traces on this HTTP address (empty = disabled)")
		maxInflight  = flag.Int("max-inflight", 0, "admission control: max concurrently served requests across all connections (0 = default 256)")
		maxQueued    = flag.Int("max-queued", 0, "admission control: max requests queued for an in-flight slot before shedding with the typed overloaded error (0 = same as -max-inflight)")
		perConnInfl  = flag.Int("per-conn-inflight", 0, "admission control: max pipelined requests in flight per connection (0 = default 32)")
		idleDeadline = flag.Duration("idle-deadline", 0, "close connections with no frame activity for this long; reset per frame on long-lived connections (0 = default 5m)")
		logLevel     = flag.String("log-level", "info", "log level: debug, info, warn or error")
		logJSON      = flag.Bool("log-json", false, "emit logs as JSON instead of text")
		traceSample  = flag.Float64("trace-sample", 1, "fraction of served requests to trace into the flight recorder (0 disables tracing)")
		traceSeed    = flag.Uint64("trace-seed", 0, "seed for trace IDs and sampling decisions (0 = fixed default; any fixed seed gives reproducible traces)")
		traceBuffer  = flag.Int("trace-buffer", otrace.DefaultCapacity, "completed traces retained by the flight recorder")
		sloSpecs     = flag.String("slo", "", "comma-separated serving-path SLOs, each name:qps=<floor>;p99=<dur>;budget=<fraction> (optional ;fast=;slow=;short=;long= burn tuning); statuses are served in query-stats and violations fire burn-rate alerts")
		obsEvery     = flag.Duration("obs-every", 15*time.Second, "SLO sampling and drift/ops detector step interval (0 disables the loop)")
		dataDir      = flag.String("data-dir", "", "durable state directory: WAL + snapshots, recovered on restart (empty = stateless)")
		snapEvery    = flag.Duration("snapshot-every", 5*time.Minute, "durable snapshot interval; a final snapshot is always written on clean shutdown")
		fsyncMode    = flag.String("fsync", "always", "WAL sync policy: always (fsync per record), batch (fsync on rotation/snapshot) or off")
		recoverMode  = flag.String("recover", "strict", "recovery policy when every retained snapshot is corrupt and the WAL is incomplete: strict (refuse to start) or best-effort (salvage the valid WAL suffix)")
	)
	flag.Parse()
	flight := otrace.NewRecorder(*traceBuffer)
	logger := otrace.NewLogger(os.Stderr, otrace.ParseLevel(*logLevel), *logJSON, flight)
	if err := run(runConfig{
		id: *id, listen: *listen, registry: *registry, registryOnly: *registryOnly,
		source: *source, traceFile: *traceFile, heartbeat: *heartbeat, histDays: *histDays,
		archive: *archive, archiveEvery: *archiveEvery,
		ttl: *ttl, hbEvery: *hbEvery, obsAddr: *obsAddr,
		peers: *peers, vnodes: *vnodes, replicas: *replicas, syncEvery: *syncEvery,
		traceSample: *traceSample, traceSeed: *traceSeed, flight: flight, logger: logger,
		slo: *sloSpecs, obsEvery: *obsEvery,
		dataDir: *dataDir, snapEvery: *snapEvery, fsync: *fsyncMode, recoverMode: *recoverMode,
		serveCfg: ishare.ServerConfig{
			MaxInflight:      *maxInflight,
			MaxQueuedWaiters: *maxQueued,
			PerConnInflight:  *perConnInfl,
			IdleDeadline:     *idleDeadline,
		},
	}); err != nil {
		logger.Error("exiting", slog.String("err", err.Error()))
		os.Exit(1)
	}
}

type runConfig struct {
	id, listen, registry         string
	registryOnly                 bool
	source, traceFile, heartbeat string
	histDays                     int
	archive                      string
	archiveEvery, ttl, hbEvery   time.Duration
	obsAddr                      string
	peers                        string
	vnodes, replicas             int
	syncEvery                    time.Duration
	traceSample                  float64
	traceSeed                    uint64
	flight                       *otrace.Recorder
	logger                       *slog.Logger
	// slo carries the -slo specs; obsEvery paces the detector/SLO loop.
	slo      string
	obsEvery time.Duration
	// dataDir enables durable state (WAL + snapshots); empty = stateless.
	dataDir   string
	snapEvery time.Duration
	fsync     string
	// recoverMode is "strict" (default: refuse to start when every retained
	// snapshot is corrupt and the WAL alone cannot rebuild full state) or
	// "best-effort" (salvage the valid WAL suffix anyway).
	recoverMode string
	// serveCfg carries the admission-control and connection-lifetime knobs
	// into every protocol server this process starts.
	serveCfg ishare.ServerConfig
}

// tracer builds the served-request tracer over the flight recorder, or nil
// (tracing off) at -trace-sample 0.
func (rc runConfig) tracer() *otrace.Tracer {
	if rc.traceSample <= 0 {
		return nil
	}
	return otrace.New(otrace.Config{SampleRate: rc.traceSample, Seed: rc.traceSeed, Recorder: rc.flight})
}

// obsDrainTimeout bounds how long shutdown waits for in-flight /metrics,
// pprof and /traces responses to finish before closing the listener.
const obsDrainTimeout = 5 * time.Second

// serveObs exposes the node's metrics registry (plus the fleet-wide merged
// view under /metrics?scope=fleet when fleet is non-nil), liveness and
// readiness probes, the alert ring, the pprof handlers, and the flight
// recorder's /traces endpoints on a mux of its own, so profiling never
// shares a port with the gateway protocol. The server carries read/write
// timeouts (a stuck scraper cannot pin a connection open forever) and is
// returned so shutdown can drain it cleanly; without -obs-addr it is nil.
func serveObs(rc runConfig, o *ishare.NodeObs, logger *slog.Logger,
	ready func() error, fleet func(*http.Request) (*obs.FleetSnapshot, error)) (*http.Server, error) {
	if rc.obsAddr == "" {
		return nil, nil
	}
	mux := http.NewServeMux()
	mux.Handle("/metrics", obs.FleetHandler(o.Registry, o.Tracker, fleet))
	mux.Handle("/healthz", obs.HealthHandler())
	mux.Handle("/readyz", obs.ReadyHandler(ready))
	mux.Handle("/alerts", obs.AlertsHandler(o.Alerts))
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	traces := otrace.HTTPHandler(rc.flight)
	mux.Handle("/traces", traces)
	mux.Handle("/traces/", traces)
	ln, err := net.Listen("tcp", rc.obsAddr)
	if err != nil {
		return nil, err
	}
	srv := &http.Server{
		Handler: mux,
		// pprof CPU profiles stream for their ?seconds= duration (default
		// 30 s), so the write timeout must comfortably exceed it.
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       10 * time.Second,
		WriteTimeout:      2 * time.Minute,
		IdleTimeout:       time.Minute,
	}
	go func() {
		if err := srv.Serve(ln); err != nil && err != http.ErrServerClosed {
			logger.Error("obs server stopped", slog.String("err", err.Error()))
		}
	}()
	logger.Info("observability listening",
		slog.String("addr", ln.Addr().String()),
		slog.String("endpoints", "/metrics /healthz /readyz /alerts /debug/pprof/ /traces"))
	return srv, nil
}

// awaitShutdown is the tail every mode ends on: block until SIGINT or
// SIGTERM, drain the obs endpoint, flush the mode's durable state (flush is
// nil without -data-dir) and save the flight recorder for the next boot.
func awaitShutdown(rc runConfig, logger *slog.Logger, obsSrv *http.Server, flush func() error) error {
	waitForSignal(rc.logger)
	if obsSrv != nil {
		// Drain in-flight /metrics, pprof and /traces responses before the
		// listener closes, so a scrape racing the SIGTERM completes.
		ctx, cancel := context.WithTimeout(context.Background(), obsDrainTimeout)
		if err := obsSrv.Shutdown(ctx); err != nil {
			logger.Warn("obs drain incomplete", slog.String("err", err.Error()))
		}
		cancel()
	}
	if flush != nil {
		if err := flush(); err != nil {
			return fmt.Errorf("final durable snapshot: %w", err)
		}
		logger.Info("durable state flushed", slog.String("dir", rc.dataDir))
	}
	saveFlight(rc, logger)
	return nil
}

// setupObsOps installs the -slo monitors, bridges every fired alert into a
// WARN log line (which the otrace logger also retains next to the flight
// recorder's traces), and starts the periodic loop that samples the SLOs and
// steps the drift and ops detectors. The returned stop halts the loop.
func setupObsOps(o *ishare.NodeObs, sloSpecs string, every time.Duration, logger *slog.Logger) (func(), error) {
	for _, spec := range strings.Split(sloSpecs, ",") {
		spec = strings.TrimSpace(spec)
		if spec == "" {
			continue
		}
		slo, err := obs.ParseSLO(spec)
		if err != nil {
			return nil, fmt.Errorf("-slo: %w", err)
		}
		o.AddSLO(obs.NewSLOMonitor(slo))
		logger.Info("slo armed", slog.String("slo", slo.Name))
	}
	o.Alerts.OnAppend(func(a obs.Alert) {
		logger.Warn("alert fired",
			slog.String("kind", a.Kind),
			slog.String("machine", a.Machine),
			slog.String("predictor", a.Predictor),
			slog.String("msg", a.Message))
	})
	if every <= 0 {
		return func() {}, nil
	}
	return ishare.StartLoop(simclock.Real{}, every, func() { o.StepObs(time.Now()) }), nil
}

// flightFile is the persisted flight-recorder snapshot inside -data-dir.
const flightFile = "flight.json"

// loadPrevFlight installs the previous run's flight snapshot (if any) so
// `isharec traces -previous` can inspect the run that just ended.
func loadPrevFlight(rc runConfig, o *ishare.NodeObs, logger *slog.Logger) {
	if rc.dataDir == "" {
		return
	}
	snap, err := otrace.LoadFlight(filepath.Join(rc.dataDir, flightFile))
	if err != nil {
		logger.Warn("previous flight snapshot unreadable", slog.String("err", err.Error()))
		return
	}
	if snap != nil {
		o.SetPrevFlight(snap)
		logger.Info("previous flight snapshot loaded",
			slog.Int("traces", len(snap.Traces)), slog.Time("saved_at", snap.SavedAt))
	}
}

// saveFlight persists the flight recorder on shutdown; the next boot serves
// it as the previous flight.
func saveFlight(rc runConfig, logger *slog.Logger) {
	if rc.dataDir == "" {
		return
	}
	if err := otrace.SaveFlight(filepath.Join(rc.dataDir, flightFile), rc.flight, time.Now()); err != nil {
		logger.Warn("flight snapshot not saved", slog.String("err", err.Error()))
	}
}

// openDurable opens the WAL + snapshot store under rc.dataDir and logs the
// recovery shape. Returns nils when durability is disabled.
func openDurable(rc runConfig, logger *slog.Logger) (*durable.Store, *durable.Recovery, error) {
	if rc.dataDir == "" {
		return nil, nil, nil
	}
	policy, err := durable.ParseSyncPolicy(rc.fsync)
	if err != nil {
		return nil, nil, err
	}
	var bestEffort bool
	switch rc.recoverMode {
	case "strict", "":
	case "best-effort":
		bestEffort = true
	default:
		return nil, nil, fmt.Errorf("unknown -recover policy %q (want strict or best-effort)", rc.recoverMode)
	}
	fs, err := durable.NewOSFS(rc.dataDir)
	if err != nil {
		return nil, nil, err
	}
	st, rec, err := durable.Open(durable.Config{FS: fs, Sync: policy, BestEffort: bestEffort})
	if err != nil {
		return nil, nil, fmt.Errorf("open data dir %s: %w", rc.dataDir, err)
	}
	// After a fallback the snapshot line names the older file recovery used:
	// its WAL position and payload size, next to how many newer ones it
	// skipped.
	logger.Info("durable state recovered",
		slog.String("dir", rc.dataDir),
		slog.Bool("snapshot", rec.Snapshot != ""),
		slog.Uint64("snapshot_seq", rec.SnapshotSeq),
		slog.Int64("snapshot_offset", rec.SnapshotOffset),
		slog.Int64("snapshot_bytes", rec.SnapshotBytes),
		slog.Int("snapshots_skipped", rec.SnapshotsSkipped),
		slog.Int("replayed_records", len(rec.Records)),
		slog.Int("torn_bytes", rec.TornBytes))
	return st, rec, nil
}

func hostnameOr(fallback string) string {
	if h, err := os.Hostname(); err == nil && h != "" {
		return h
	}
	return fallback
}

// parsePeers decodes the -peers list ("id1=addr1,id2=addr2,...").
func parsePeers(s string) ([]ishare.Peer, error) {
	var peers []ishare.Peer
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		id, addr, ok := strings.Cut(part, "=")
		if !ok || id == "" || addr == "" {
			return nil, fmt.Errorf("-peers entry %q: want id=addr", part)
		}
		peers = append(peers, ishare.Peer{ID: id, Addr: addr})
	}
	if len(peers) == 0 {
		return nil, fmt.Errorf("-peers is empty")
	}
	return peers, nil
}

// runFed runs one federated control-plane peer: a consistent-hash shard of
// the machine registry plus transparent forwarding for everything else.
func runFed(rc runConfig) error {
	peers, err := parsePeers(rc.peers)
	if err != nil {
		return err
	}
	var self ishare.Peer
	for _, p := range peers {
		if p.ID == rc.id {
			self = p
		}
	}
	if self.ID == "" {
		return fmt.Errorf("-peers does not list this peer's -id %q", rc.id)
	}
	fedLogger := rc.logger.With(slog.String("peer", self.ID))
	nodeObs := ishare.NewNodeObs()
	nodeObs.SetTracing(rc.tracer())
	// Peer hops and machine proxying share one retried caller; the breaker
	// set quarantines dead peers so routing skips them without burning a
	// dial timeout per request.
	breakers := ishare.NewBreakerSet(ishare.BreakerConfig{Threshold: 3, Cooldown: 30 * time.Second}, nil)
	nodeObs.InstrumentBreakers(breakers)
	gw, err := ishare.NewFedGateway(ishare.FedConfig{
		Self:     self,
		Peers:    peers,
		Vnodes:   rc.vnodes,
		Replicas: rc.replicas,
		Caller: &ishare.Caller{
			Retry:   ishare.RetryPolicy{MaxAttempts: 3},
			Metrics: nodeObs.Caller,
		},
		Breakers: breakers,
		Logger:   fedLogger,
		Tracer:   nodeObs.Tracer,
		Obs:      nodeObs,
	})
	if err != nil {
		return err
	}
	stopObsOps, err := setupObsOps(nodeObs, rc.slo, rc.obsEvery, fedLogger)
	if err != nil {
		return err
	}
	defer stopObsOps()
	// Durable shard state: this peer's owned/replicated registry entries.
	// Restored before serving, so the peer rejoins the ring with its shard
	// intact instead of waiting for anti-entropy to repopulate it. /readyz
	// reports the peer unready until recovery lands and a clean anti-entropy
	// round has confirmed ring convergence.
	gw.SetRecoveryPending(rc.dataDir != "")
	st, rec, err := openDurable(rc, fedLogger)
	if err != nil {
		return err
	}
	var persist *ishare.RegPersister
	if st != nil {
		if persist, err = ishare.NewRegPersister(st, rec, gw, fedLogger); err != nil {
			return err
		}
		stop := persist.StartSnapshots(rc.snapEvery)
		defer stop()
	}
	gw.SetRecoveryPending(false)
	loadPrevFlight(rc, nodeObs, fedLogger)
	srv, err := gw.ServeConfig(rc.listen, rc.serveCfg)
	if err != nil {
		return err
	}
	defer srv.Close()
	if rc.syncEvery > 0 {
		stop := gw.StartSync(rc.syncEvery)
		defer stop()
	}
	obsSrv, err := serveObs(rc, nodeObs, fedLogger, gw.Ready, func(req *http.Request) (*obs.FleetSnapshot, error) {
		return gw.FleetObs(req.Context()), nil
	})
	if err != nil {
		return err
	}
	fedLogger.Info("federation peer up",
		slog.String("addr", srv.Addr()),
		slog.Int("peers", len(peers)),
		slog.Int("vnodes", rc.vnodes),
		slog.Int("replicas", gw.RingStats().Replicas), // what the ring uses: capped at peers-1
		slog.Duration("sync_every", rc.syncEvery))
	var flush func() error
	if persist != nil {
		flush = persist.Flush
	}
	return awaitShutdown(rc, fedLogger, obsSrv, flush)
}

func run(rc runConfig) error {
	id, listen, registry := rc.id, rc.listen, rc.registry
	source, traceFile, heartbeat := rc.source, rc.traceFile, rc.heartbeat
	histDays, archive, archiveEvery := rc.histDays, rc.archive, rc.archiveEvery
	logger := rc.logger
	if rc.registryOnly && rc.peers == "" {
		rc.peers = id + "=" + listen // a standalone registry is a ring of one
	}
	if rc.peers != "" {
		return runFed(rc)
	}

	var preloaded *trace.Machine
	var src monitor.LoadSource
	switch source {
	case "proc":
		src = monitor.NewProcSource()
		if traceFile != "" {
			ds, err := trace.LoadFile(traceFile)
			if err != nil {
				return err
			}
			if m := ds.Find(id); m != nil {
				preloaded = m
			}
		}
	case "replay":
		if traceFile == "" {
			return fmt.Errorf("-source replay needs -trace")
		}
		ds, err := trace.LoadFile(traceFile)
		if err != nil {
			return err
		}
		m := ds.Find(id)
		if m == nil {
			if len(ds.Machines) == 0 {
				return fmt.Errorf("trace file has no machines")
			}
			m = ds.Machines[0]
		}
		rs, err := monitor.NewReplaySource(m.Days)
		if err != nil {
			return err
		}
		src = rs
		preloaded = m
	default:
		return fmt.Errorf("unknown source %q", source)
	}

	nodeLogger := logger.With(slog.String("machine", id))
	st, rec, err := openDurable(rc, nodeLogger)
	if err != nil {
		return err
	}
	node, err := ishare.NewHostNode(ishare.NodeConfig{
		MachineID:       id,
		Cfg:             avail.DefaultConfig(),
		Preloaded:       preloaded,
		HistoryDays:     histDays,
		HeartbeatPath:   heartbeat,
		Logger:          nodeLogger,
		Durable:         st,
		DurableRecovery: rec,
	}, src)
	if err != nil {
		return err
	}
	if node.Persist != nil {
		stop := node.Persist.StartSnapshots(rc.snapEvery)
		defer stop()
	}
	stopObsOps, err := setupObsOps(node.Obs(), rc.slo, rc.obsEvery, nodeLogger)
	if err != nil {
		return err
	}
	defer stopObsOps()
	loadPrevFlight(rc, node.Obs(), nodeLogger)
	node.Obs().SetTracing(rc.tracer())
	srv, err := node.Gateway.ServeConfig(listen, rc.serveCfg)
	if err != nil {
		return err
	}
	defer srv.Close()
	// Host readiness: durable recovery already landed (NewHostNode is
	// synchronous), so the remaining gate is the initial registration and
	// monitor start below.
	var started atomic.Bool
	readyCheck := func() error {
		if !started.Load() {
			return fmt.Errorf("startup in flight: registration or monitor start pending")
		}
		return nil
	}
	obsSrv, err := serveObs(rc, node.Obs(), nodeLogger, readyCheck, nil)
	if err != nil {
		return err
	}
	if registry != "" {
		// Registration failures here are fatal (the operator asked to
		// publish); later heartbeats retry under the caller's policy and
		// otherwise rely on the TTL to advertise the node's death.
		// One pooled connection carries the registration and every
		// heartbeat after it.
		caller := &ishare.Caller{Pool: &ishare.Pool{}, Retry: ishare.RetryPolicy{MaxAttempts: 3}, Metrics: node.Obs().Caller}
		defer caller.Pool.Close()
		if err := ishare.RegisterWithTTL(context.Background(), caller, registry, id, srv.Addr(), rc.ttl, 5*time.Second); err != nil {
			return err
		}
		if rc.ttl > 0 && rc.hbEvery > 0 {
			stop := node.StartHeartbeat(caller, registry, srv.Addr(), rc.ttl, rc.hbEvery, 5*time.Second)
			defer stop()
		}
	}
	node.Start()
	defer node.Stop()
	started.Store(true)
	nodeLogger.Info("host node up",
		slog.String("gateway", srv.Addr()),
		slog.Duration("period", trace.DefaultPeriod),
		slog.String("source", source),
		slog.Float64("trace_sample", rc.traceSample))
	if registry != "" {
		nodeLogger.Info("registered",
			slog.String("registry", registry),
			slog.Duration("ttl", rc.ttl), slog.Duration("heartbeat_every", rc.hbEvery))
	}
	if archive != "" {
		stop := ishare.StartLoop(simclock.Real{}, archiveEvery, func() {
			if err := node.SM.Archive(archive); err != nil {
				nodeLogger.Error("archive failed",
					slog.String("component", "archiver"), slog.String("err", err.Error()))
			}
		})
		defer stop()
	}
	var flush func() error
	if node.Persist != nil {
		flush = func() error {
			// Stop the monitor before the final snapshot so no sample lands
			// between snapshot and close; the next boot then replays nothing.
			node.Stop()
			return node.Persist.Flush()
		}
	}
	if err := awaitShutdown(rc, nodeLogger, obsSrv, flush); err != nil {
		return err
	}
	if archive != "" {
		if err := node.SM.Archive(archive); err != nil {
			return fmt.Errorf("final archive: %w", err)
		}
		nodeLogger.Info("history archived", slog.String("path", archive))
	}
	return nil
}

func waitForSignal(logger *slog.Logger) {
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
	<-ch
	logger.Info("shutting down")
}
