// Command isharec is the iShare client: it discovers published host nodes,
// queries their temporal reliability for a prospective guest job, and
// submits the job to the most reliable machine.
//
//	isharec -registry localhost:7000 rank -work 2h -mem 100
//	isharec -registry localhost:7000 submit -name sim1 -work 2h -mem 100
//	isharec -gateway localhost:7070 status -job lab-01-job-1
//	isharec -gateway localhost:7070 stats
//	isharec -gateway localhost:7070 traces -limit 5
//
// Against a federated control plane (ishared -peers), -fed names ANY live
// peer: the entry peer resolves each machine through the consistent-hash
// ring and forwards as needed, so the client never learns the sharding.
// Machine-scoped commands (status, kill) then need -machine; stats shows
// the entry peer's ring view.
//
//	isharec -fed localhost:7000 rank -work 2h -mem 100
//	isharec -fed localhost:7000 submit -name sim1 -work 2h -mem 100
//	isharec -fed localhost:7000 status -machine lab-01 -job lab-01-job-1
//	isharec -fed localhost:7000 stats
//
// With -trace, the command runs under a client-side root span whose context
// rides the request headers, so the server's flight recorder stitches the
// client's retry attempts to its own dispatch spans; the client-side half of
// the trace is printed to stderr when the command finishes. `traces` fetches
// the server-side halves from a gateway's flight recorder.
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
	var (
		registry  = flag.String("registry", "", "registry address for discovery")
		gateway   = flag.String("gateway", "", "direct gateway address (bypasses discovery)")
		fed       = flag.String("fed", "", "federation entry-peer address (any live peer of an ishared -peers ring)")
		timeout   = flag.Duration("timeout", 5*time.Second, "request timeout")
		retries   = flag.Int("retries", 3, "attempts for idempotent RPCs (1 = no retry; submits are retried under an idempotency key)")
		retryBase = flag.Duration("retry-base", 50*time.Millisecond, "first retry backoff delay")
		brkThresh = flag.Int("breaker-threshold", 3, "consecutive failures before a machine is quarantined (0 = no breaker)")
		brkCool   = flag.Duration("breaker-cooldown", 30*time.Second, "quarantine duration before a probe is allowed")
		traced    = flag.Bool("trace", false, "trace this command and print the client-side span tree to stderr")
		traceSeed = flag.Uint64("trace-seed", 0, "seed for client trace IDs (0 = fixed default)")
		logLevel  = flag.String("log-level", "warn", "log level: debug, info, warn or error")
		logJSON   = flag.Bool("log-json", false, "emit logs as JSON instead of text")
	)
	flag.Parse()
	logger := otrace.NewLogger(os.Stderr, otrace.ParseLevel(*logLevel), *logJSON, nil)
	if flag.NArg() < 1 {
		fmt.Fprintln(os.Stderr, "usage: isharec [flags] rank|submit|run|status|kill|stats|alerts|traces [subflags]")
		os.Exit(2)
	}
	cl := client{
		registry: *registry,
		gateway:  *gateway,
		fed:      *fed,
		timeout:  *timeout,
		caller:   &ishare.Caller{Pool: &ishare.Pool{}, Retry: ishare.RetryPolicy{MaxAttempts: *retries, BaseDelay: *retryBase}},
		logger:   logger,
	}
	defer cl.caller.Pool.Close()
	if *brkThresh > 0 {
		cl.breakers = ishare.NewBreakerSet(ishare.BreakerConfig{Threshold: *brkThresh, Cooldown: *brkCool}, nil)
	}
	if *traced {
		cl.flight = otrace.NewRecorder(otrace.DefaultCapacity)
		cl.tracer = otrace.New(otrace.Config{SampleRate: 1, Seed: *traceSeed, Recorder: cl.flight})
	}
	err := run(cl, flag.Arg(0), flag.Args()[1:])
	if err != nil {
		logger.Error("command failed", slog.String("command", flag.Arg(0)), slog.String("err", err.Error()))
		os.Exit(1)
	}
}

// client bundles the fault-tolerance knobs every subcommand shares.
type client struct {
	registry, gateway string
	fed               string
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

// fedClient builds the any-peer federation client when -fed is set.
func (c client) fedClient() ishare.FedClient {
	return ishare.FedClient{Addr: c.fed, Timeout: c.timeout, Caller: c.caller}
}

func (c client) scheduler(ctx context.Context) (*ishare.Scheduler, error) {
	if c.fed != "" {
		sched, err := c.fedClient().Scheduler(ctx)
		if err != nil {
			return nil, err
		}
		sched.Breakers = c.breakers
		return sched, nil
	}
	if c.gateway != "" {
		return &ishare.Scheduler{
			Candidates: []ishare.Candidate{{
				MachineID: c.gateway,
				API:       ishare.RemoteGateway{Addr: c.gateway, Timeout: c.timeout, Caller: c.caller},
			}},
			Breakers: c.breakers,
		}, nil
	}
	if c.registry == "" {
		return nil, fmt.Errorf("need -registry or -gateway")
	}
	sched, err := ishare.FromRegistryWith(ctx, c.caller, c.registry, c.timeout)
	if err != nil {
		return nil, err
	}
	sched.Breakers = c.breakers
	return sched, nil
}

func run(cl client, cmd string, args []string) error {
	gateway, timeout := cl.gateway, cl.timeout
	switch cmd {
	case "run":
		fs := flag.NewFlagSet(cmd, flag.ExitOnError)
		name := fs.String("name", "guest-job", "job name")
		work := fs.Duration("work", time.Hour, "estimated compute time")
		mem := fs.Float64("mem", 100, "working set in MB")
		poll := fs.Duration("poll", 6*time.Second, "status poll interval")
		migrations := fs.Int("migrations", 5, "maximum recoveries after kills")
		grace := fs.Duration("grace", 18*time.Second, "tolerate unreachable gateways this long before migrating (0 = migrate on first failed poll)")
		if err := fs.Parse(args); err != nil {
			return err
		}
		ctx, root := cl.startRoot("client.run")
		sched, err := cl.scheduler(ctx)
		if err != nil {
			cl.finishRoot(root, err)
			return err
		}
		sv := &ishare.Supervisor{Sched: sched, PollInterval: *poll, MaxMigrations: migrations, UnreachableGrace: *grace}
		fmt.Printf("supervising %s (%v of compute)...\n", *name, *work)
		run, err := sv.Run(ctx, ishare.SubmitReq{Name: *name, WorkSeconds: work.Seconds(), MemMB: *mem})
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
		fs := flag.NewFlagSet(cmd, flag.ExitOnError)
		name := fs.String("name", "guest-job", "job name")
		work := fs.Duration("work", time.Hour, "estimated compute time")
		mem := fs.Float64("mem", 100, "working set in MB")
		resume := fs.Duration("resume", 0, "progress to resume from a checkpoint")
		if err := fs.Parse(args); err != nil {
			return err
		}
		ctx, root := cl.startRoot("client." + cmd)
		job := ishare.SubmitReq{
			Name:                   *name,
			WorkSeconds:            work.Seconds(),
			MemMB:                  *mem,
			InitialProgressSeconds: resume.Seconds(),
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
		fmt.Printf("submitted %s to %s (TR %.4f): job id %s\n", *name, best.MachineID, best.TR, resp.JobID)
		return nil
	case "status", "kill":
		fs := flag.NewFlagSet(cmd, flag.ExitOnError)
		jobID := fs.String("job", "", "job id (required)")
		machine := fs.String("machine", "", "machine hosting the job (required with -fed)")
		if err := fs.Parse(args); err != nil {
			return err
		}
		if *jobID == "" {
			return fmt.Errorf("%s needs -job", cmd)
		}
		if cl.fed != "" && *machine == "" {
			return fmt.Errorf("%s -fed needs -machine (the ring routes by machine name)", cmd)
		}
		if cl.fed == "" && gateway == "" {
			return fmt.Errorf("%s needs -gateway or -fed", cmd)
		}
		ctx, root := cl.startRoot("client." + cmd)
		var api ishare.GatewayAPI
		if cl.fed != "" {
			api = cl.fedClient().Gateway(*machine)
		} else {
			api = ishare.RemoteGateway{Addr: gateway, Timeout: timeout, Caller: cl.caller}
		}
		var st ishare.JobStatusResp
		var err error
		if cmd == "status" {
			st, err = api.JobStatus(ctx, ishare.JobStatusReq{JobID: *jobID})
		} else {
			st, err = api.Kill(ctx, ishare.JobStatusReq{JobID: *jobID})
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
		fs := flag.NewFlagSet(cmd, flag.ExitOnError)
		calib := fs.Bool("calibration", false, "include the per-predictor calibration tables")
		verbose := fs.Bool("verbose", false, "include wire-protocol details: the server's connection and shed counters")
		fleet := fs.Bool("fleet", false, "print the fleet-wide merged observability view instead (requires -fed: the entry peer fans query-obs out over the ring)")
		alertLimit := fs.Int("alert-limit", 20, "with -fleet: newest merged alerts to keep (0 = all)")
		asJSON := fs.Bool("json", false, "print the raw JSON snapshot")
		if err := fs.Parse(args); err != nil {
			return err
		}
		// A federation peer answers query-stats too (with its ring view), so
		// -fed doubles as the stats target.
		if gateway == "" {
			gateway = cl.fed
		}
		if gateway == "" {
			return fmt.Errorf("stats needs -gateway or -fed")
		}
		if *fleet && cl.fed == "" {
			return fmt.Errorf("stats -fleet needs -fed (only a federation peer can merge the ring)")
		}
		ctx, root := cl.startRoot("client.stats")
		api := ishare.RemoteGateway{Addr: gateway, Timeout: timeout, Caller: cl.caller}
		if *fleet {
			resp, err := api.QueryObs(ctx, ishare.QueryObsReq{MaxAlerts: *alertLimit})
			cl.finishRoot(root, err)
			if err != nil {
				return err
			}
			if resp.Fleet == nil {
				return fmt.Errorf("peer %s returned no fleet view (not a federation peer?)", resp.Peer)
			}
			if *asJSON {
				return printJSON(resp.Fleet)
			}
			printFleet(resp.Peer, resp.Fleet)
			return nil
		}
		st, err := api.QueryStats(ctx, ishare.QueryStatsReq{Calibration: *calib})
		cl.finishRoot(root, err)
		if err != nil {
			return err
		}
		if *asJSON {
			return printJSON(st)
		}
		printStats(st)
		if *verbose {
			printWire(st.Wire)
		}
		return nil
	case "alerts":
		fs := flag.NewFlagSet(cmd, flag.ExitOnError)
		limit := fs.Int("limit", 20, "newest alerts to print (0 = all retained)")
		asJSON := fs.Bool("json", false, "print the raw JSON alerts")
		if err := fs.Parse(args); err != nil {
			return err
		}
		if gateway == "" {
			gateway = cl.fed
		}
		if gateway == "" {
			return fmt.Errorf("alerts needs -gateway or -fed")
		}
		api := ishare.RemoteGateway{Addr: gateway, Timeout: timeout, Caller: cl.caller}
		resp, err := api.QueryObs(context.Background(), ishare.QueryObsReq{Local: true})
		if err != nil {
			return err
		}
		po, err := obs.DecodeObsSnapshot(resp.Snapshot)
		if err != nil {
			return fmt.Errorf("peer %s sent an undecodable obs snapshot: %w", resp.Peer, err)
		}
		alerts := po.Alerts
		if *limit > 0 && len(alerts) > *limit {
			alerts = alerts[len(alerts)-*limit:]
		}
		if *asJSON {
			return printJSON(alerts)
		}
		fmt.Printf("node %s: %d alert(s) retained\n", resp.Peer, len(po.Alerts))
		printAlerts(alerts)
		return nil
	case "traces":
		fs := flag.NewFlagSet(cmd, flag.ExitOnError)
		limit := fs.Int("limit", 10, "most recent traces to fetch (ignored with -id)")
		id := fs.String("id", "", "fetch one trace by id")
		events := fs.Bool("events", false, "include retained WARN/ERROR log events")
		timings := fs.Bool("timings", false, "include span durations (wall-clock; disable for run-to-run comparison)")
		previous := fs.Bool("previous", false, "serve the flight snapshot the node persisted on its last shutdown (-data-dir)")
		asJSON := fs.Bool("json", false, "print the raw JSON snapshot")
		if err := fs.Parse(args); err != nil {
			return err
		}
		if gateway == "" {
			gateway = cl.fed
		}
		if gateway == "" {
			return fmt.Errorf("traces needs -gateway or -fed")
		}
		api := ishare.RemoteGateway{Addr: gateway, Timeout: timeout, Caller: cl.caller}
		resp, err := api.QueryTraces(context.Background(), ishare.QueryTracesReq{Limit: *limit, TraceID: *id, Events: *events, Previous: *previous})
		if err != nil {
			return err
		}
		if *asJSON {
			return printJSON(resp)
		}
		printTraces(resp, otrace.RenderOptions{Timings: *timings})
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
