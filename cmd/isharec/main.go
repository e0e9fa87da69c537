// Command isharec is the iShare client: it discovers published host nodes,
// queries their temporal reliability for a prospective guest job, and
// submits the job to the most reliable machine.
//
// -registry names a registry or any live peer of a federated control plane
// (ishared -peers); every call goes through it, so the machine-scoped
// commands (status, kill) need -machine. -gateway talks to one node directly.
//
//	isharec -registry localhost:7000 rank -work 2h -mem 100
//	isharec -registry localhost:7000 submit -name sim1 -work 2h -mem 100
//	isharec -registry localhost:7000 status -machine lab-01 -job lab-01-job-1
//	isharec -gateway localhost:7070 stats
//	isharec -gateway localhost:7070 traces -limit 5
//
// Each flag's meaning is its usage string (isharec -help, or README's
// generated tables).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"sort"
	"strings"
	"time"

	"fgcs/internal/ishare"
	"fgcs/internal/obs"
	"fgcs/internal/otrace"
)

func main() {
	var g globals
	registerGlobals(flag.CommandLine, &g)
	flag.Parse()
	logger := otrace.NewLogger(os.Stderr, otrace.ParseLevel(g.logLevel), g.logJSON, nil)
	if flag.NArg() < 1 {
		fmt.Fprintf(os.Stderr, "usage: isharec [flags] %s [subflags]\n", strings.Join(commands, "|"))
		os.Exit(2)
	}
	cl := client{
		registry: g.registry,
		gateway:  g.gateway,
		timeout:  g.timeout,
		caller:   &ishare.Caller{Pool: &ishare.Pool{}, Retry: ishare.RetryPolicy{MaxAttempts: g.retries, BaseDelay: g.retryBase}},
		logger:   logger,
	}
	defer cl.caller.Pool.Close()
	if g.brkThresh > 0 {
		cl.breakers = ishare.NewBreakerSet(ishare.BreakerConfig{Threshold: g.brkThresh, Cooldown: g.brkCool}, nil)
	}
	if g.traced {
		cl.flight = otrace.NewRecorder(otrace.DefaultCapacity)
		cl.tracer = otrace.New(otrace.Config{SampleRate: 1, Seed: g.traceSeed, Recorder: cl.flight})
	}
	err := run(cl, flag.Arg(0), flag.Args()[1:])
	if err != nil {
		logger.Error("command failed", slog.String("command", flag.Arg(0)), slog.String("err", err.Error()))
		os.Exit(1)
	}
}

// globals are the flags given before the subcommand.
type globals struct {
	registry, gateway  string
	timeout, retryBase time.Duration
	retries, brkThresh int
	brkCool            time.Duration
	traced, logJSON    bool
	traceSeed          uint64
	logLevel           string
}

// registerGlobals registers the flags given before the subcommand on fs,
// into g. Their usage strings, and those of registerCommand, are the
// operator reference: README's isharec tables are generated from them
// (TestFlagTables).
func registerGlobals(fs *flag.FlagSet, g *globals) {
	fs.StringVar(&g.registry, "registry", "", "Registry (or any federation peer) that discovers the machines and routes every call to them.")
	fs.StringVar(&g.gateway, "gateway", "", "Direct gateway address of one node (bypasses the registry).")
	fs.DurationVar(&g.timeout, "timeout", 5*time.Second, "Per-request timeout.")
	fs.IntVar(&g.retries, "retries", 3, "Attempts for idempotent RPCs (1 = no retry; submits are retried under an idempotency key).")
	fs.DurationVar(&g.retryBase, "retry-base", 50*time.Millisecond, "First retry backoff delay.")
	fs.IntVar(&g.brkThresh, "breaker-threshold", 3, "Consecutive transport failures before a machine is quarantined (0 = no breaker).")
	fs.DurationVar(&g.brkCool, "breaker-cooldown", 30*time.Second, "Quarantine duration before a probe is allowed.")
	fs.BoolVar(&g.traced, "trace", false, "Trace this command and print the client-side span tree to stderr.")
	fs.Uint64Var(&g.traceSeed, "trace-seed", 0, "Seed for client trace IDs (0 = fixed default).")
	fs.StringVar(&g.logLevel, "log-level", "warn", "Log level: debug, info, warn or error.")
	fs.BoolVar(&g.logJSON, "log-json", false, "Emit logs as JSON instead of text.")
}

// commands are isharec's subcommands, in the order usage lists them.
var commands = []string{"rank", "submit", "run", "status", "kill", "stats", "alerts", "traces"}

// options are the flags given after a subcommand; each subcommand sets the
// ones registerCommand registers for it.
type options struct {
	name, job, machine, id                                   string
	work, resume, poll, grace                                time.Duration
	mem                                                      float64
	migrations, alertLimit, limit                            int
	calib, verbose, fleet, asJSON, events, timings, previous bool
}

// registerCommand registers the flags of subcommand cmd on fs, into o.
func registerCommand(cmd string, fs *flag.FlagSet, o *options) {
	switch cmd {
	case "rank", "submit", "run":
		fs.StringVar(&o.name, "name", "guest-job", "Job name.")
		fs.DurationVar(&o.work, "work", time.Hour, "Estimated compute time.")
		fs.Float64Var(&o.mem, "mem", 100, "Working set in MB.")
	case "status", "kill":
		fs.StringVar(&o.job, "job", "", "Job id (required).")
		fs.StringVar(&o.machine, "machine", "", "Machine hosting the job (required with -registry: the ring routes by machine name).")
	case "stats":
		fs.BoolVar(&o.calib, "calibration", false, "Include the per-predictor calibration tables.")
		fs.BoolVar(&o.verbose, "verbose", false, "Include wire-protocol details: the server's connection and shed counters.")
		fs.BoolVar(&o.fleet, "fleet", false, "Print the fleet-wide merged observability view instead (requires -registry: the peer fans query-obs out over the ring).")
		fs.IntVar(&o.alertLimit, "alert-limit", 20, "With -fleet: newest merged alerts to keep (0 = all).")
	case "alerts":
		fs.IntVar(&o.limit, "limit", 20, "Newest alerts to print (0 = all retained).")
	case "traces":
		fs.IntVar(&o.limit, "limit", 10, "Most recent traces to fetch (ignored with -id).")
		fs.StringVar(&o.id, "id", "", "Fetch one trace by id.")
		fs.BoolVar(&o.events, "events", false, "Include retained WARN/ERROR log events.")
		fs.BoolVar(&o.timings, "timings", false, "Include span durations (wall-clock; disable for run-to-run comparison).")
		fs.BoolVar(&o.previous, "previous", false, "Serve the flight snapshot the node persisted on its last shutdown (-data-dir).")
	}
	switch cmd {
	case "rank", "submit":
		fs.DurationVar(&o.resume, "resume", 0, "Progress to resume from a checkpoint.")
	case "run":
		fs.DurationVar(&o.poll, "poll", 6*time.Second, "Status poll interval.")
		fs.IntVar(&o.migrations, "migrations", 5, "Maximum recoveries after kills.")
		fs.DurationVar(&o.grace, "grace", 18*time.Second, "Tolerate unreachable gateways this long before migrating (0 = migrate on first failed poll).")
	case "stats", "alerts", "traces":
		fs.BoolVar(&o.asJSON, "json", false, "Print the raw JSON response.")
	}
}

// client bundles the fault-tolerance knobs every subcommand shares.
type client struct {
	registry, gateway string
	timeout           time.Duration
	caller            *ishare.Caller
	breakers          *ishare.BreakerSet
	tracer            *otrace.Tracer
	flight            *otrace.Recorder
	logger            *slog.Logger
}

// startRoot opens the command's client-side root span when -trace is set;
// otherwise it leaves the context untraced.
func (c client) startRoot(name string) (context.Context, *otrace.Span) {
	if c.tracer == nil {
		return context.Background(), nil
	}
	return c.tracer.Start(context.Background(), name)
}

// finishRoot ends the root span and prints the client-side span tree(s) to
// stderr, so the job's stdout output stays parseable.
func (c client) finishRoot(span *otrace.Span, err error) {
	if span == nil {
		return
	}
	span.SetError(err)
	id := span.Trace()
	span.End()
	if recs, ok := c.flight.Snapshot(time.Time{}).Trace(id); ok {
		fmt.Fprint(os.Stderr, otrace.RenderTraceString(recs, otrace.RenderOptions{Timings: true}))
	}
}

// direct is the -gateway node's client.
func (c client) direct() ishare.RemoteGateway {
	return ishare.RemoteGateway{Addr: c.gateway, Timeout: c.timeout, Caller: c.caller}
}

// fedClient is the -registry client: every call is routed through it.
func (c client) fedClient() ishare.FedClient {
	return ishare.FedClient{Addr: c.registry, Timeout: c.timeout, Caller: c.caller}
}

// scheduler ranks the -gateway node alone, or every machine the -registry
// discovers.
func (c client) scheduler(ctx context.Context) (*ishare.Scheduler, error) {
	var sched *ishare.Scheduler
	switch {
	case c.gateway != "":
		sched = &ishare.Scheduler{Candidates: []ishare.Candidate{{MachineID: c.gateway, API: c.direct()}}}
	case c.registry == "":
		return nil, fmt.Errorf("need -registry or -gateway")
	default:
		var err error
		if sched, err = c.fedClient().Scheduler(ctx); err != nil {
			return nil, err
		}
	}
	sched.Breakers = c.breakers
	return sched, nil
}

// observed is the address the observability commands (stats, alerts,
// traces) ask: the -gateway node, or else the -registry peer, which answers
// them for itself.
func (c client) observed(cmd string) (ishare.RemoteGateway, error) {
	api := c.direct()
	if api.Addr == "" {
		api.Addr = c.registry
	}
	if api.Addr == "" {
		return api, fmt.Errorf("%s needs -gateway or -registry", cmd)
	}
	return api, nil
}

func run(cl client, cmd string, args []string) error {
	var o options
	fs := flag.NewFlagSet(cmd, flag.ExitOnError)
	registerCommand(cmd, fs, &o)
	if err := fs.Parse(args); err != nil {
		return err
	}
	switch cmd {
	case "run":
		ctx, root := cl.startRoot("client.run")
		sched, err := cl.scheduler(ctx)
		if err != nil {
			cl.finishRoot(root, err)
			return err
		}
		sv := &ishare.Supervisor{Sched: sched, PollInterval: o.poll, MaxMigrations: &o.migrations, UnreachableGrace: o.grace}
		fmt.Printf("supervising %s (%v of compute)...\n", o.name, o.work)
		run, err := sv.Run(ctx, ishare.SubmitReq{Name: o.name, WorkSeconds: o.work.Seconds(), MemMB: o.mem})
		cl.finishRoot(root, err)
		for _, pl := range run.Placements {
			fmt.Printf("  %s on %s (TR %.3f): %s", pl.JobID, pl.MachineID, pl.TR, pl.Outcome)
			if pl.Reason != "" {
				fmt.Printf(" — %s", pl.Reason)
			}
			fmt.Println()
		}
		if err != nil {
			return err
		}
		fmt.Printf("completed after %d migration(s)\n", run.Migrations)
		return nil
	case "rank", "submit":
		ctx, root := cl.startRoot("client." + cmd)
		job := ishare.SubmitReq{
			Name:                   o.name,
			WorkSeconds:            o.work.Seconds(),
			MemMB:                  o.mem,
			InitialProgressSeconds: o.resume.Seconds(),
		}
		sched, err := cl.scheduler(ctx)
		if err != nil {
			cl.finishRoot(root, err)
			return err
		}
		if cmd == "rank" {
			ranked, fails, err := sched.Rank(ctx, job)
			cl.finishRoot(root, err)
			if err != nil {
				return err
			}
			printRanking(ranked, fails)
			return nil
		}
		best, resp, err := sched.SubmitBest(ctx, job)
		cl.finishRoot(root, err)
		if err != nil {
			return err
		}
		fmt.Printf("submitted %s to %s (TR %.4f): job id %s\n", o.name, best.MachineID, best.TR, resp.JobID)
		return nil
	case "status", "kill":
		if o.job == "" {
			return fmt.Errorf("%s needs -job", cmd)
		}
		var api ishare.GatewayAPI = cl.direct()
		if cl.gateway == "" {
			if cl.registry == "" {
				return fmt.Errorf("%s needs -gateway or -registry", cmd)
			}
			if o.machine == "" {
				return fmt.Errorf("%s -registry needs -machine (the ring routes by machine name)", cmd)
			}
			api = cl.fedClient().Gateway(o.machine)
		}
		ctx, root := cl.startRoot("client." + cmd)
		var st ishare.JobStatusResp
		var err error
		if cmd == "status" {
			st, err = api.JobStatus(ctx, ishare.JobStatusReq{JobID: o.job})
		} else {
			st, err = api.Kill(ctx, ishare.JobStatusReq{JobID: o.job})
		}
		cl.finishRoot(root, err)
		if err != nil {
			return err
		}
		fmt.Printf("job %s: %s (%.0f/%.0f s done)", st.JobID, st.State, st.ProgressSeconds, st.WorkSeconds)
		if st.Reason != "" {
			fmt.Printf(" — %s", st.Reason)
		}
		fmt.Println()
		return nil
	case "stats":
		if o.fleet && cl.registry == "" {
			return fmt.Errorf("stats -fleet needs -registry (only a federation peer can merge the ring)")
		}
		// A federation peer answers query-stats too (with its ring view).
		api, err := cl.observed(cmd)
		if err != nil {
			return err
		}
		if o.fleet {
			api.Addr = cl.registry
		}
		ctx, root := cl.startRoot("client.stats")
		if o.fleet {
			resp, err := api.QueryObs(ctx, ishare.QueryObsReq{MaxAlerts: o.alertLimit})
			cl.finishRoot(root, err)
			if err != nil {
				return err
			}
			if resp.Fleet == nil {
				return fmt.Errorf("peer %s returned no fleet view (not a federation peer?)", resp.Peer)
			}
			if o.asJSON {
				return printJSON(resp.Fleet)
			}
			printFleet(resp.Peer, resp.Fleet)
			return nil
		}
		st, err := api.QueryStats(ctx, ishare.QueryStatsReq{Calibration: o.calib})
		cl.finishRoot(root, err)
		if err != nil {
			return err
		}
		if o.asJSON {
			return printJSON(st)
		}
		printStats(st)
		if o.verbose {
			printWire(st.Wire)
		}
		return nil
	case "alerts":
		api, err := cl.observed(cmd)
		if err != nil {
			return err
		}
		resp, err := api.QueryObs(context.Background(), ishare.QueryObsReq{Local: true})
		if err != nil {
			return err
		}
		po, err := obs.DecodeObsSnapshot(resp.Snapshot)
		if err != nil {
			return fmt.Errorf("peer %s sent an undecodable obs snapshot: %w", resp.Peer, err)
		}
		alerts := po.Alerts
		if o.limit > 0 && len(alerts) > o.limit {
			alerts = alerts[len(alerts)-o.limit:]
		}
		if o.asJSON {
			return printJSON(alerts)
		}
		fmt.Printf("node %s: %d alert(s) retained\n", resp.Peer, len(po.Alerts))
		printAlerts(alerts)
		return nil
	case "traces":
		api, err := cl.observed(cmd)
		if err != nil {
			return err
		}
		resp, err := api.QueryTraces(context.Background(), ishare.QueryTracesReq{Limit: o.limit, TraceID: o.id, Events: o.events, Previous: o.previous})
		if err != nil {
			return err
		}
		if o.asJSON {
			return printJSON(resp)
		}
		printTraces(resp, otrace.RenderOptions{Timings: o.timings})
		return nil
	default:
		return fmt.Errorf("unknown command %q", cmd)
	}
}

// printJSON writes v to stdout as indented JSON (the -json form of a command).
func printJSON(v interface{}) error {
	out, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

// printRanking renders a TR ranking, best machine first, then the machines
// that could not be ranked.
func printRanking(ranked []ishare.Ranked, fails []ishare.RankFailure) {
	fmt.Printf("%-12s %-8s %-8s %s\n", "machine", "TR", "state", "history")
	for _, r := range ranked {
		fmt.Printf("%-12s %-8.4f %-8s %d days\n", r.MachineID, r.TR, r.CurrentState, r.HistoryWindows)
	}
	for _, f := range fails {
		kind := "rejected"
		if f.Transient() {
			kind = "unreachable"
		}
		fmt.Printf("%-12s %-8s %v\n", f.MachineID, kind, f.Err)
	}
}

// printTraces renders a flight-recorder snapshot: records are grouped by
// trace ID (a distributed trace leaves one record per local root) and each
// group prints as one merged span tree.
func printTraces(resp ishare.QueryTracesResp, opts otrace.RenderOptions) {
	fmt.Printf("node %s: %d traces recorded\n", resp.MachineID, resp.TotalRecorded)
	byID := make(map[otrace.TraceID][]otrace.TraceRecord)
	var order []otrace.TraceID
	for _, rec := range resp.Traces {
		if _, seen := byID[rec.TraceID]; !seen {
			order = append(order, rec.TraceID)
		}
		byID[rec.TraceID] = append(byID[rec.TraceID], rec)
	}
	for _, id := range order {
		fmt.Print(otrace.RenderTraceString(byID[id], opts))
	}
	if len(resp.Events) > 0 {
		fmt.Println("recent events:")
		for _, ev := range resp.Events {
			fmt.Printf("  %s %s %s", ev.Time.Format(time.RFC3339), ev.Level, ev.Msg)
			for _, a := range ev.Attrs {
				fmt.Printf(" %s=%s", a.Key, a.Value)
			}
			fmt.Println()
		}
	}
}

// printWire renders the wire-protocol line of `stats -verbose`: the
// server's view of its connection mix and admission-control sheds.
func printWire(w *ishare.WireStats) {
	if w == nil {
		fmt.Println("wire: server reported no wire stats (observability disabled or pre-binary build)")
		return
	}
	fmt.Printf("wire: server speaks binary v%d; conns binary=%d json=%d; shed accept-queue=%d inflight=%d per-conn=%d\n",
		w.ProtoVersion, w.BinaryConns, w.JSONConns, w.ShedAcceptQueue, w.ShedInflight, w.ShedPerConn)
}

// printRing renders a federation peer's ring view: membership, per-peer
// breaker and anti-entropy state, and this peer's shard counters.
func printRing(r *ishare.RingStats) {
	fmt.Printf("federation ring: self=%s vnodes=%d replicas=%d\n", r.Self, r.Vnodes, r.Replicas)
	fmt.Printf("shard: %d entries (%d owned, %d replicated); served=%d forwarded=%d sync_pushed=%d sync_accepted=%d\n",
		r.Entries, r.Owned, r.Replicated, r.Served, r.Forwarded, r.SyncPushed, r.SyncAccepted)
	fmt.Printf("%-10s %-22s %-9s %-10s %s\n", "peer", "addr", "breaker", "last-sync", "owned-here")
	for _, p := range r.Peers {
		if p.Self {
			fmt.Printf("%-10s %-22s %-9s %-10s %d\n", p.ID+"*", p.Addr, "-", "-", p.OwnedEntries)
			continue
		}
		sync := "never"
		if p.LastSyncAgeSeconds >= 0 {
			sync = fmt.Sprintf("%.0fs ago", p.LastSyncAgeSeconds)
		}
		fmt.Printf("%-10s %-22s %-9s %-10s %d\n", p.ID, p.Addr, p.Breaker, sync, p.OwnedEntries)
	}
}

// printAlerts renders an alert list, oldest first.
func printAlerts(alerts []obs.Alert) {
	for _, a := range alerts {
		scope := a.Machine
		if a.Predictor != "" {
			scope += "/" + a.Predictor
		}
		if a.Peer != "" {
			scope = a.Peer + ":" + scope
		}
		fmt.Printf("  %s %-16s %-24s %s\n", a.Time.Format(time.RFC3339), a.Kind, scope, a.Message)
	}
}

// printSLO renders serving-path SLO verdicts.
func printSLO(statuses []obs.SLOStatus) {
	for _, st := range statuses {
		verdict := "ok"
		if !st.OK {
			verdict = "VIOLATED: " + st.Reason
		}
		fmt.Printf("slo %s: %s (qps %.2f, p99 %.1fms, burn short %.2fx long %.2fx, budget used %.1f%%)\n",
			st.Name, verdict, st.Short.QPS, 1000*st.Short.P99Seconds,
			st.Short.BurnRate, st.Long.BurnRate, 100*st.BudgetConsumed)
	}
}

// printFleet renders the merged fleet observability view an entry peer
// assembled by fanning query-obs out over its ring.
func printFleet(entry string, v *obs.FleetView) {
	ok, stale, unreachable := 0, 0, 0
	for _, p := range v.Peers {
		switch p.Status {
		case obs.PeerStale:
			stale++
		case obs.PeerUnreachable:
			unreachable++
		default:
			ok++
		}
	}
	fmt.Printf("fleet via %s: %d peer(s) — %d ok, %d stale, %d unreachable\n",
		entry, len(v.Peers), ok, stale, unreachable)
	for _, p := range v.Peers {
		switch p.Status {
		case obs.PeerStale:
			fmt.Printf("  %-10s stale (%.0fs old): %s\n", p.Peer, p.AgeSeconds, p.Err)
		case obs.PeerUnreachable:
			fmt.Printf("  %-10s unreachable: %s\n", p.Peer, p.Err)
		default:
			fmt.Printf("  %-10s ok\n", p.Peer)
		}
	}
	if len(v.Counters) > 0 {
		lines := make([]string, 0, len(v.Counters))
		for id, n := range v.Counters {
			lines = append(lines, fmt.Sprintf("  %s %d", id, n))
		}
		sort.Strings(lines) // the order of the ids: a space sorts below whatever can extend an id
		fmt.Println("merged counters:\n" + strings.Join(lines, "\n"))
	}
	fmt.Printf("alerts: %d total", v.AlertsTotal)
	if len(v.Alerts) < v.AlertsTotal {
		fmt.Printf(" (newest %d shown)", len(v.Alerts))
	}
	fmt.Println()
	printAlerts(v.Alerts)
}

// printStats renders the observability snapshot as an operator summary: the
// engine cache effectiveness, the served request mix, and the paper's online
// predictor comparison (SMP vs the linear baselines).
func printStats(st ishare.QueryStatsResp) {
	fmt.Printf("node %s: %d samples recorded, %d predictions pending\n",
		st.MachineID, st.MonitorSamples, st.PendingPredictions)
	if st.Ring != nil {
		printRing(st.Ring)
	}
	if len(st.SLO) > 0 {
		printSLO(st.SLO)
	}
	hitRate := 0.0
	if total := st.Engine.Hits + st.Engine.Misses; total > 0 {
		hitRate = 100 * float64(st.Engine.Hits) / float64(total)
	}
	fmt.Printf("engine cache: %d hits / %d misses (%.1f%% hit rate), %d entries, %d evictions\n",
		st.Engine.Hits, st.Engine.Misses, hitRate, st.Engine.Entries, st.Engine.Evictions)
	if len(st.Requests) > 0 {
		types := make([]string, 0, len(st.Requests))
		for typ := range st.Requests {
			types = append(types, typ)
		}
		sort.Strings(types)
		fmt.Printf("requests:")
		for _, typ := range types {
			fmt.Printf(" %s=%d", typ, st.Requests[typ])
			if e := st.Errors[typ]; e > 0 {
				fmt.Printf(" (%d errors)", e)
			}
		}
		fmt.Println()
	}
	if len(st.Accuracy) == 0 {
		fmt.Println("no resolved predictions yet")
		return
	}
	fmt.Printf("%-12s %-9s %9s %9s %8s %8s %8s %8s\n",
		"machine", "predictor", "resolved", "survived", "meanTR", "empir", "brier", "acc")
	for _, a := range st.Accuracy {
		fmt.Printf("%-12s %-9s %9d %9d %8.4f %8.4f %8.4f %8.4f\n",
			a.Machine, a.Predictor, a.Resolved, a.Survived, a.MeanTR, a.Empirical, a.Brier, a.Accuracy)
		for _, b := range a.Calibration {
			if b.Count == 0 {
				continue
			}
			fmt.Printf("    [%.1f,%.1f) n=%d meanTR=%.3f empirical=%.3f\n",
				b.Lo, b.Hi, b.Count, b.MeanTR, b.Empirical)
		}
	}
}
