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
// Each flag's meaning is its usage string (ishared -help, or README's
// generated table); DESIGN.md describes the mechanisms behind them:
// federation (§10), durable state (§12), tracing (§9) and the observability
// plane (§8, §14).
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

	"fgcs/internal/durable"
	"fgcs/internal/ishare"
	"fgcs/internal/monitor"
	"fgcs/internal/obs"
	"fgcs/internal/otrace"
	"fgcs/internal/simclock"
	"fgcs/internal/trace"
)

func main() {
	var rc runConfig
	registerFlags(flag.CommandLine, &rc, hostnameOr("node"))
	flag.Parse()
	rc.flight = otrace.NewRecorder(rc.traceBuffer)
	rc.logger = otrace.NewLogger(os.Stderr, otrace.ParseLevel(rc.logLevel), rc.logJSON, rc.flight)
	if err := run(rc); err != nil {
		rc.logger.Error("exiting", slog.String("err", err.Error()))
		os.Exit(1)
	}
}

// registerFlags registers every ishared flag on fs, into rc; host is -id's
// default. The usage strings are the operator reference: README's ishared
// table is generated from them (TestFlagTable).
func registerFlags(fs *flag.FlagSet, rc *runConfig, host string) {
	fs.StringVar(&rc.id, "id", host, "Machine id (host node) or peer id (federation).")
	fs.StringVar(&rc.listen, "listen", "127.0.0.1:7070", "Gateway / registry / federation listen address.")
	fs.StringVar(&rc.registry, "registry", "", "Registry (or any federation peer) to publish this host node to.")
	fs.BoolVar(&rc.registryOnly, "registry-only", false, "Run a registry instead of a host node: a federation ring of one (peer -id at -listen), so every federation flag, -obs-addr and -slo apply.")
	fs.StringVar(&rc.source, "source", "proc", "Load source: proc samples the live machine, replay replays -trace.")
	fs.StringVar(&rc.traceFile, "trace", "", "Trace file for -source replay / preloaded history.")
	fs.StringVar(&rc.heartbeat, "heartbeat", "", "t_monitor heartbeat file: rewritten on every sample and read once at start. A heartbeat older than three sampling periods means the node was revoked (URR, paper §5.2): the time since it, at most its last week, is recorded as down samples before the first live one (through the WAL under -data-dir) and logged as \"revocation recorded\".")
	fs.IntVar(&rc.histDays, "history", 0, "Most recent N days pooled by the predictor (0 = all).")
	fs.DurationVar(&rc.ttl, "ttl", 90*time.Second, "Registration TTL; re-registered by the heartbeat (0 = register once, never expires).")
	fs.DurationVar(&rc.hbEvery, "heartbeat-every", 30*time.Second, "Registry re-registration interval.")
	fs.StringVar(&rc.peers, "peers", "", "Comma-separated id=addr ring membership; enables federation mode (must include this peer's -id).")
	fs.IntVar(&rc.vnodes, "vnodes", ishare.DefaultVnodes, "Federation: virtual nodes per peer on the consistent-hash ring.")
	fs.IntVar(&rc.replicas, "replicas", ishare.DefaultReplicas, "Federation: successor peers mirroring each registry entry (-1 = none).")
	fs.DurationVar(&rc.syncEvery, "sync-every", 30*time.Second, "Federation: anti-entropy push interval (0 = on-register replication only).")
	fs.StringVar(&rc.obsAddr, "obs-addr", "", "Serve Prometheus /metrics, /healthz, /readyz, /alerts, /debug/pprof and /traces on this HTTP address (empty = disabled).")
	fs.IntVar(&rc.serveCfg.MaxInflight, "max-inflight", 0, "Admission: server-wide concurrent request cap; excess queues, overflow is shed (0 = default 256).")
	fs.IntVar(&rc.serveCfg.MaxQueuedWaiters, "max-queued", 0, "Admission: waiting requests queued before load shedding kicks in (0 = same as -max-inflight).")
	fs.IntVar(&rc.serveCfg.PerConnInflight, "per-conn-inflight", 0, "Admission: pipelined requests in flight per binary connection before that connection is shed (0 = default 32).")
	fs.DurationVar(&rc.serveCfg.IdleDeadline, "idle-deadline", 0, "Close connections idle this long; re-armed per frame on binary connections (0 = default 5m).")
	fs.StringVar(&rc.logLevel, "log-level", "info", "Log level: debug, info, warn or error.")
	fs.BoolVar(&rc.logJSON, "log-json", false, "Emit logs as JSON instead of text.")
	fs.Float64Var(&rc.traceSample, "trace-sample", 1, "Fraction of served requests traced into the flight recorder (0 disables tracing).")
	fs.Uint64Var(&rc.traceSeed, "trace-seed", 0, "Seed for trace IDs and sampling decisions (0 = fixed default; any fixed seed gives reproducible traces).")
	fs.IntVar(&rc.traceBuffer, "trace-buffer", otrace.DefaultCapacity, "Completed traces retained by the flight recorder.")
	fs.StringVar(&rc.slo, "slo", "", "Comma-separated serving-path SLOs, each name:qps=FLOOR;p99=DURATION;budget=FRACTION, optionally with ;fast=, ;slow=, ;short= and ;long= burn tuning. Statuses are served in query-stats; violations fire burn-rate alerts.")
	fs.DurationVar(&rc.obsEvery, "obs-every", 15*time.Second, "SLO sampling and drift/ops detector step interval (0 disables the loop).")
	fs.StringVar(&rc.dataDir, "data-dir", "", "Durable state directory: checksummed WAL + snapshots, recovered on restart (empty = stateless).")
	fs.DurationVar(&rc.snapEvery, "snapshot-every", 5*time.Minute, "Durable snapshot interval; a final snapshot is always written on clean shutdown.")
	fs.StringVar(&rc.fsync, "fsync", "always", "WAL sync policy: always (fsync per record), batch (fsync on rotation/snapshot) or off.")
	fs.StringVar(&rc.recoverMode, "recover", "strict", "Recovery when every retained snapshot is corrupt and the WAL is incomplete: strict refuses to start, best-effort salvages the valid WAL suffix.")
}

type runConfig struct {
	id, listen, registry         string
	registryOnly                 bool
	source, traceFile, heartbeat string
	histDays                     int
	ttl, hbEvery                 time.Duration
	obsAddr                      string
	peers                        string
	vnodes, replicas             int
	syncEvery                    time.Duration
	traceSample                  float64
	traceSeed                    uint64
	traceBuffer                  int
	logLevel                     string
	logJSON                      bool
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

func run(rc runConfig) error {
	if rc.registryOnly && rc.peers == "" {
		rc.peers = rc.id + "=" + rc.listen // a standalone registry is a ring of one
	}
	if rc.peers != "" {
		return runFed(rc)
	}
	return runHost(rc)
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
	logger := rc.logger.With(slog.String("peer", self.ID))
	return serve(rc, logger, func(st *durable.Store, rec *durable.Recovery) (daemon, error) {
		o := ishare.NewNodeObs()
		gw, err := ishare.NewFedGateway(ishare.FedConfig{Self: self, Peers: peers, Vnodes: rc.vnodes, Replicas: rc.replicas, Logger: logger, Obs: o})
		if err != nil {
			return daemon{}, err
		}
		d := daemon{obs: o, listen: gw.ServeConfig, ready: gw.Ready,
			fleet: func(req *http.Request) (*obs.FleetSnapshot, error) { return gw.FleetObs(req.Context()), nil },
			up: func(addr string) (func() error, error) {
				stop := func() {}
				if rc.syncEvery > 0 {
					stop = gw.StartSync(rc.syncEvery)
				}
				logger.Info("federation peer up",
					slog.String("addr", addr),
					slog.Int("peers", len(peers)),
					slog.Int("vnodes", rc.vnodes),
					slog.Int("replicas", gw.RingStats().Replicas), // what the ring uses: capped at peers-1
					slog.Duration("sync_every", rc.syncEvery))
				return func() error { stop(); return nil }, nil
			}}
		// Durable shard state: this peer's owned and replicated registry
		// entries, restored before serving, so the peer rejoins the ring
		// with its shard intact instead of waiting for anti-entropy.
		if st != nil {
			persist, err := ishare.NewRegPersister(st, rec, gw, logger)
			if err != nil {
				return daemon{}, err
			}
			d.persist = persist
		}
		return d, nil
	})
}

// runHost runs a host node over the -source load source: the gateway,
// monitor and state manager of Figure 2.
func runHost(rc runConfig) error {
	if rc.source == "replay" && rc.traceFile == "" {
		return fmt.Errorf("-source replay needs -trace")
	}
	var preloaded *trace.Machine
	if rc.traceFile != "" {
		ds, err := trace.LoadFile(rc.traceFile)
		if err != nil {
			return err
		}
		preloaded = ds.Find(rc.id)
		if preloaded == nil && rc.source == "replay" {
			if len(ds.Machines) == 0 {
				return fmt.Errorf("trace file has no machines")
			}
			preloaded = ds.Machines[0]
		}
	}
	var src monitor.LoadSource
	switch rc.source {
	case "proc":
		src = monitor.NewProcSource()
	case "replay":
		rs, err := monitor.NewReplaySource(preloaded.Days)
		if err != nil {
			return err
		}
		src = rs
	default:
		return fmt.Errorf("unknown source %q", rc.source)
	}
	logger := rc.logger.With(slog.String("machine", rc.id))
	return serve(rc, logger, func(st *durable.Store, rec *durable.Recovery) (daemon, error) {
		node, err := ishare.NewHostNode(ishare.NodeConfig{
			MachineID:       rc.id,
			Preloaded:       preloaded,
			HistoryDays:     rc.histDays,
			HeartbeatPath:   rc.heartbeat,
			Logger:          logger,
			Durable:         st,
			DurableRecovery: rec,
		}, src)
		if err != nil {
			return daemon{}, err
		}
		// Durable recovery already landed (NewHostNode is synchronous), so
		// readiness waits only on the registration and monitor start.
		var started atomic.Bool
		d := daemon{obs: node.Obs(), listen: node.Gateway.ServeConfig,
			ready: func() error {
				if !started.Load() {
					return fmt.Errorf("startup in flight: registration or monitor start pending")
				}
				return nil
			},
			up: func(addr string) (func() error, error) {
				stop, err := hostUp(rc, logger, node, addr)
				started.Store(err == nil)
				return stop, err
			}}
		if node.Persist != nil {
			d.persist = node.Persist
		}
		return d, nil
	})
}

// hostUp publishes the node to -registry (fatal on failure: the operator
// asked to publish) and starts its monitor. The stop it returns halts the
// monitor first, so no sample lands between the final snapshot and close.
func hostUp(rc runConfig, logger *slog.Logger, node *ishare.HostNode, addr string) (func() error, error) {
	unpublish := func() {}
	if rc.registry != "" {
		var err error
		if unpublish, err = node.Publish(rc.registry, addr, rc.ttl, rc.hbEvery); err != nil {
			return nil, err
		}
	}
	node.Start()
	logger.Info("host node up",
		slog.String("gateway", addr),
		slog.Duration("period", trace.DefaultPeriod),
		slog.String("source", rc.source),
		slog.Float64("trace_sample", rc.traceSample))
	if rc.registry != "" {
		logger.Info("registered",
			slog.String("registry", rc.registry),
			slog.Duration("ttl", rc.ttl), slog.Duration("heartbeat_every", rc.hbEvery))
	}
	return func() error {
		node.Stop()
		unpublish()
		return nil
	}, nil
}

// daemon is what a mode, host node or federation peer, hands the lifecycle
// both share (serve).
type daemon struct {
	obs *ishare.NodeObs
	// persist is *ishare.Persister or *ishare.RegPersister (nil without
	// -data-dir).
	persist interface {
		StartSnapshots(every time.Duration) (stop func())
		Flush() error
	}
	listen func(addr string, cfg ishare.ServerConfig) (*ishare.Server, error)
	ready  func() error
	// fleet serves /metrics?scope=fleet (nil = none).
	fleet func(*http.Request) (*obs.FleetSnapshot, error)
	// up runs once the server listens at addr. The stop it returns runs at
	// shutdown, before the final durable snapshot.
	up func(addr string) (stop func() error, err error)
}

// flightFile is the persisted flight-recorder snapshot inside -data-dir.
const flightFile = "flight.json"

// obsDrainTimeout bounds how long shutdown waits for in-flight /metrics,
// pprof and /traces responses to finish before closing the listener.
const obsDrainTimeout = 5 * time.Second

// serve is the one lifecycle of every mode: open durable state, build the
// mode's daemon over what it recovered, start periodic snapshots and the
// SLO/obs loop, install the previous run's flight snapshot (so `isharec
// traces -previous` can inspect the run that just ended), serve the protocol
// and the obs endpoint, and bring the mode up. On SIGINT or SIGTERM it
// drains the obs endpoint, stops the mode, flushes durable state and saves
// the flight recorder for the next boot.
func serve(rc runConfig, logger *slog.Logger, build func(*durable.Store, *durable.Recovery) (daemon, error)) error {
	st, rec, err := openDurable(rc, logger)
	if err != nil {
		return err
	}
	d, err := build(st, rec)
	if err != nil {
		return err
	}
	if d.persist != nil {
		defer d.persist.StartSnapshots(rc.snapEvery)()
	}
	stopObsOps, err := setupObsOps(d.obs, rc.slo, rc.obsEvery, logger)
	if err != nil {
		return err
	}
	defer stopObsOps()
	flightPath := filepath.Join(rc.dataDir, flightFile)
	if rc.dataDir != "" {
		if snap, err := otrace.LoadFlight(flightPath); err != nil {
			logger.Warn("previous flight snapshot unreadable", slog.String("err", err.Error()))
		} else if snap != nil {
			d.obs.SetPrevFlight(snap)
			logger.Info("previous flight snapshot loaded",
				slog.Int("traces", len(snap.Traces)), slog.Time("saved_at", snap.SavedAt))
		}
	}
	if rc.traceSample > 0 {
		d.obs.SetTracing(otrace.New(otrace.Config{SampleRate: rc.traceSample, Seed: rc.traceSeed, Recorder: rc.flight}))
	}
	srv, err := d.listen(rc.listen, rc.serveCfg)
	if err != nil {
		return err
	}
	defer srv.Close()
	obsSrv, err := serveObs(rc, d.obs, logger, d.ready, d.fleet)
	if err != nil {
		return err
	}
	stop, err := d.up(srv.Addr())
	if err != nil {
		return err
	}
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
	<-ch
	logger.Info("shutting down")
	if obsSrv != nil {
		// Drain in-flight /metrics, pprof and /traces responses before the
		// listener closes, so a scrape racing the SIGTERM completes.
		ctx, cancel := context.WithTimeout(context.Background(), obsDrainTimeout)
		if err := obsSrv.Shutdown(ctx); err != nil {
			logger.Warn("obs drain incomplete", slog.String("err", err.Error()))
		}
		cancel()
	}
	stopErr := stop()
	if d.persist != nil {
		if err := d.persist.Flush(); err != nil {
			return fmt.Errorf("final durable snapshot: %w", err)
		}
		logger.Info("durable state flushed", slog.String("dir", rc.dataDir))
	}
	if rc.dataDir != "" {
		if err := otrace.SaveFlight(flightPath, rc.flight, time.Now()); err != nil {
			logger.Warn("flight snapshot not saved", slog.String("err", err.Error()))
		}
	}
	return stopErr
}

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
