package main

import "encoding/json"

// This file is the benchmark's definition: the workloads, the end-to-end
// metrics with their regression bounds, and the per-layer metrics with the
// workload whose ladder measures each and the end-to-end metric each should
// move. BENCHMARK.json at the repository root is the same definition in the
// driver's contract form (`-print-benchmark-json` regenerates it; a test
// holds the two together).

// workloadSpec names one workload and records why it exists.
type workloadSpec struct {
	Name string
	Why  string
	// setup builds the workload's fixture from the seed; a traced fixture
	// additionally meters what its per-layer counts need.
	setup func(seed uint64, traced bool) (fixture, error)
	// opsPerSecond is the nominal closed-loop rate on the reference box in
	// its fast mode (host.calib_spin_ms about 122). It only sizes a
	// repetition — ops = opsPerSecond × seconds ÷ maxReps — so the operation
	// count is fixed by the arguments, never by how fast the host happens to
	// be running.
	opsPerSecond float64
	// minOps keeps every repetition large enough for the reported
	// percentiles (see supportedPercentile) and a whole number of the
	// workload's schedule cycles.
	minOps int
	// cycle is the schedule period in ops; a repetition is whole cycles.
	cycle int
	// ladderOps is how many requests of the stream each rung of the traced
	// run's ladder is timed on, a multiple of ladderCycle.
	ladderOps, ladderCycle int
}

// metricSpec is one end-to-end metric. Bound is the share of the parent's
// median by which the metric may get worse before a change is rejected.
type metricSpec struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
}

// layerSpec is one per-layer metric. Workload names the ladder that
// measures it ("" = every traced run); Moves names the end-to-end metrics it
// is expected to move on that workload; How says what is timed.
type layerSpec struct {
	Name     string
	Unit     string
	Better   string
	Workload string
	Moves    string
	How      string
}

const (
	wServeHot      = "serve-hot"
	wFitChurn      = "fit-churn"
	wIngestRecover = "ingest-recover"
	wFedLive       = "fed-live"
)

// maxReps is the number of timed repetitions of a run; fewer are made when
// the host is so slow that the run would overshoot its time budget (the
// repetition count shrinks before the repetition length does).
const maxReps = 4

// setupRuns is how many times a run builds its fixture; setup_s is the
// median.
const setupRuns = 5

var workloads = []workloadSpec{
	{
		Name:         wServeHot,
		setup:        setupServeHot,
		Why:          "one gateway behind the real Server on loopback TCP, 2 pooled clients, one repeated query-tr: the wire path does the work, predict/smp almost none",
		opsPerSecond: 36000, minOps: 2000, cycle: 2, ladderOps: 4000, ladderCycle: 1,
	},
	{
		Name:         wFitChurn,
		setup:        setupFitChurn,
		Why:          "in process, a sample then a QueryTR on a moved window (1h x5, 5h, 10h x2 cycle): every op is an engine miss, so predict/smp/avail/timeseries do the work and the wire none",
		opsPerSecond: 20, minOps: 104, cycle: 8, ladderOps: 24, ladderCycle: 8,
	},
	{
		Name:         wIngestRecover,
		setup:        setupIngestRecover,
		Why:          "one node over durable.MemFS ingesting virtual hours with a snapshot every 24th op and a close+recover every 96th: the state layer is only written and durable does the work",
		opsPerSecond: 140, minOps: 192, cycle: 96, ladderOps: 48, ladderCycle: 1,
	},
	{
		Name:         wFedLive,
		setup:        setupFedLive,
		Why:          "6 federation peers and 48 machine gateways on an in-memory network, 15 FedClient.QueryTR to 1 heartbeat: ring routing, the peer hop and dial-per-RPC JSON do the work",
		opsPerSecond: 20000, minOps: 1600, cycle: 32, ladderOps: 3000, ladderCycle: 1,
	},
}

// endToEnd are the metrics a change is gated on.
var endToEnd = []metricSpec{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "alloc_kb_per_op", Unit: "KB", Better: "lower", Bound: 0.03},
	{Name: "live_heap_mb", Unit: "MB", Better: "lower", Bound: 0.05},
}

// timingMetrics are the four timing metrics of a run. They were proposed as
// end-to-end metrics with these bounds and could not hold them: two sets of
// runs of identical code disagreed by 12-70 % whenever the host changed its
// speed mode between or within the sets, which it does every few minutes
// (see README, "Repeatability, and the host"). A metric that cannot meet the
// contract's 25 % ceiling is not shipped as a gate; every run still measures
// and prints all four, -aa still judges them against these bounds, and a
// traced run reports them beside the per-layer metrics.
var timingMetrics = []metricSpec{
	{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.10},
	{Name: "op_p50_us", Unit: "us", Better: "lower", Bound: 0.10},
	{Name: "op_p90_us", Unit: "us", Better: "lower", Bound: 0.15},
	{Name: "cpu_us_per_op", Unit: "us", Better: "lower", Bound: 0.10},
}

var perLayer = []layerSpec{
	// the run's workload, measured untraced: see `timingMetrics`.
	{"ops_per_s", "1/s", "higher", "", "", "measured ops / wall time of the fastest untraced repetition of the run's workload"},
	{"op_p50_us", "us", "lower", "", "", "median op latency of the same repetition"},
	{"op_p90_us", "us", "lower", "", "", "p90 op latency of the same repetition: the highest percentile with 10 samples beyond it on the smallest workload"},
	{"cpu_us_per_op", "us", "lower", "", "", "process user+system time (getrusage) over the same repetition / ops"},

	// serve-hot: client.call = wire.self + dispatch.self + state.query_self + engine.hit + tracker.record.
	{"ishare.client.call_us", "us", "lower", wServeHot, "ops_per_s op_p50_us cpu_us_per_op", "Caller.Call over the Pool, per op of the traced repetition (top rung)"},
	{"ishare.wire.self_us", "us", "lower", wServeHot, "ops_per_s op_p50_us cpu_us_per_op", "top rung minus Gateway.Handler() called in process: frames, pool, admission, sockets, response marshal"},
	{"ishare.frame.codec_us", "us", "lower", wServeHot, "op_p50_us cpu_us_per_op", "AppendRequestFrame+DecodeFrame+AppendResponseFrame+DecodeFrame on the op's real payloads (part of wire.self)"},
	{"ishare.dispatch.self_us", "us", "lower", wServeHot, "op_p50_us cpu_us_per_op", "Gateway.Handler() minus Gateway.QueryTR: payload JSON decode, switch, RPC metrics"},
	{"ishare.state.query_self_us", "us", "lower", wServeHot, "op_p50_us cpu_us_per_op", "StateManager.QueryTR minus engine hits minus tracker records"},
	{"predict.engine.hit_us", "us", "lower", wServeHot, "op_p50_us", "the three warm lookups one query makes: Engine.PredictFromCtx (SMP) and Engine.PredictPluginCtx (FFT, PCT)"},
	{"obs.tracker.record_us", "us", "lower", wServeHot, "op_p50_us alloc_kb_per_op", "Tracker.RecordPrediction once per predictor of a query, on a saturated pending queue"},
	{"ishare.wire.bytes_per_op", "bytes", "lower", wServeHot, "ops_per_s", "request+response bytes through a counting conn on the pool's Dialer"},
	{"ishare.wire.writes_per_op", "count", "lower", wServeHot, "ops_per_s cpu_us_per_op", "client-side Write calls per op on the same conn (batching shows here)"},
	{"predict.engine.hit_ratio", "ratio", "higher", wServeHot, "op_p50_us", "EngineStats hits / (hits+misses) over the traced repetition"},

	// fit-churn: state.query ≈ engine misses + plugins + baselines.
	{"ishare.state.query_us", "us", "lower", wFitChurn, "ops_per_s", "StateManager.QueryTR per op of the traced repetition (top rung, mean over the 1h/5h/10h mix)"},
	{"ishare.state.record_us", "us", "lower", wFitChurn, "ops_per_s", "StateManager.Record per op of the traced repetition"},
	{"predict.engine.miss_1h_us", "us", "lower", wFitChurn, "op_p50_us", "Engine.PredictFromCtx on a cold key, 1 h windows of the stream"},
	{"predict.engine.miss_10h_us", "us", "lower", wFitChurn, "op_p90_us", "Engine.PredictFromCtx on a cold key, 10 h windows of the stream"},
	{"avail.extract_us", "us", "lower", wFitChurn, "ops_per_s op_p90_us", "Extractor.Reset + AddWindow over the pooled days (stream mean)"},
	{"smp.estimate_us", "us", "lower", wFitChurn, "ops_per_s op_p90_us", "Estimator.Estimate on the extracted sequences (stream mean)"},
	{"smp.solve_us", "us", "lower", wFitChurn, "ops_per_s op_p90_us", "Kernel.ReliabilitiesWS, the Equation (3) recursion (stream mean)"},
	{"predict.plugin.fft_us", "us", "lower", wFitChurn, "ops_per_s op_p50_us", "Engine.PredictPluginCtx with the spectral plugin on a cold key (stream mean)"},
	{"predict.plugin.pct_us", "us", "lower", wFitChurn, "ops_per_s op_p50_us", "Engine.PredictPluginCtx with the percentile plugin on a cold key (stream mean)"},
	{"timeseries.baselines_us", "us", "lower", wFitChurn, "ops_per_s op_p90_us", "TimeSeries.PredictWindow for the five reference fitters (stream mean)"},
	{"monitor.daywindow_us", "us", "lower", wFitChurn, "alloc_kb_per_op", "Recorder.DayWindow copy of the window preceding the query window (stream mean)"},
	{"predict.engine.miss_ratio", "ratio", "lower", wFitChurn, "ops_per_s", "EngineStats misses / (hits+misses) over the traced repetition"},

	// ingest-recover.
	{"ishare.persist.record_ns", "ns", "lower", wIngestRecover, "op_p50_us op_p90_us", "Persister.Record per sample of the traced repetition (top rung)"},
	{"durable.codec.encode_ns", "ns", "lower", wIngestRecover, "op_p50_us", "SampleCoder.Encode on the ingested sample stream"},
	{"durable.wal.append_ns", "ns", "lower", wIngestRecover, "op_p50_us", "Store.Append of an encoded sample record (SyncBatch over MemFS)"},
	{"monitor.recorder.record_ns", "ns", "lower", wIngestRecover, "op_p50_us", "Recorder.Record"},
	{"ishare.state.record_ns", "ns", "lower", wIngestRecover, "op_p50_us", "StateManager.Record: recorder + classification of the recent ring + tracker"},
	{"avail.classify_ns", "ns", "lower", wIngestRecover, "op_p50_us", "ClassifyInto on a full recent ring"},
	{"ishare.persist.snapshot_ms", "ms", "lower", wIngestRecover, "ops_per_s cpu_us_per_op alloc_kb_per_op", "Persister.Snapshot, mean over the traced repetition"},
	{"durable.recover.open_ms", "ms", "lower", wIngestRecover, "ops_per_s cpu_us_per_op alloc_kb_per_op", "durable.Open of the closed store: snapshot validation and WAL tail scan"},
	{"ishare.persist.replay_ms", "ms", "lower", wIngestRecover, "ops_per_s cpu_us_per_op alloc_kb_per_op", "NewPersister applying the snapshot and replaying the tail into a fresh node"},
	{"durable.wal.bytes_per_sample", "bytes", "lower", wIngestRecover, "alloc_kb_per_op live_heap_mb", "WAL bytes appended per sample record"},
	{"durable.snapshot.bytes", "bytes", "lower", wIngestRecover, "ops_per_s live_heap_mb", "size of the last snapshot of the traced repetition"},

	// fed-live.
	{"ishare.fedclient.query_us", "us", "lower", wFedLive, "ops_per_s op_p50_us cpu_us_per_op", "FedClient.QueryTR per query of the traced repetition (top rung)"},
	{"ishare.fed.served_us", "us", "lower", wFedLive, "op_p50_us", "FedGateway.FedQueryTR in process at the owning peer"},
	{"ishare.fed.forwarded_us", "us", "lower", wFedLive, "op_p50_us op_p90_us", "FedGateway.FedQueryTR in process at a non-owning peer"},
	{"ishare.fed.hop_us", "us", "lower", wFedLive, "op_p50_us cpu_us_per_op", "forwarded minus served: the peer hop"},
	{"ishare.ring.lookup_ns", "ns", "lower", wFedLive, "op_p50_us", "Ring.Owner + Ring.Successors for the op's machine"},
	{"ishare.caller.dial_rpc_us", "us", "lower", wFedLive, "op_p50_us cpu_us_per_op", "one Caller.CallRetry JSON round trip to a machine gateway, dialled per RPC"},
	{"ishare.fed.register_us", "us", "lower", wFedLive, "cpu_us_per_op", "RegisterWithTTL heartbeat per call of the traced repetition (owner routing + replication)"},
	{"ishare.fed.forward_ratio", "ratio", "lower", wFedLive, "op_p50_us", "RingStats forwarded queries / queries over the traced repetition"},
	{"ishare.fed.dials_per_op", "count", "lower", wFedLive, "ops_per_s cpu_us_per_op", "connections dialled on the in-memory network per query"},
	{"ishare.fed.bytes_per_op", "bytes", "lower", wFedLive, "ops_per_s", "bytes written on the in-memory network per query"},

	// every traced run.
	{"bench.trace_overhead_frac", "ratio", "lower", "", "", "traced repetition wall / untraced repetition wall - 1, on the run's workload"},
	{"host.calib_spin_ms", "ms", "lower", "", "", "fixed 2e8-step integer loop, min of before and after: which speed mode the host was in"},
}

func findWorkload(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}

// benchmarkJSON renders the definition in the driver's contract form.
func benchmarkJSON(runSeconds int) []byte {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []layer  `json:"per_layer"`
	}{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloads {
		doc.Workloads = append(doc.Workloads, wl{w.Name, w.Why})
	}
	for _, m := range endToEnd {
		doc.EndToEnd = append(doc.EndToEnd, e2e{m.Name, m.Unit, m.Better, m.Bound})
	}
	for _, l := range perLayer {
		doc.PerLayer = append(doc.PerLayer, layer{l.Name, l.Unit, l.Better})
	}
	out, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		panic(err) // plain strings and numbers: cannot fail
	}
	return append(out, '\n')
}
