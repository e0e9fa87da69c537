package ishare

import (
	"fmt"
	"sync"
	"time"

	"fgcs/internal/monitor"
	"fgcs/internal/obs"
	"fgcs/internal/otrace"
	"fgcs/internal/predict"
)

// ServerMetrics counts a server's wire-protocol and admission-control
// activity: connections per negotiated protocol and requests shed per
// reason. The zero ServerMetrics — what a server configured with none gets —
// records nothing: its counters are nil. Each count lives once, in its
// registry counter; QueryStats reads the same counters a scrape does.
type ServerMetrics struct {
	cBinary, cJSON                  *obs.Counter
	cShedAccept, cShedInfl, cShedPC *obs.Counter
}

// newServerMetrics registers the serving-path counter families on r (nil: the
// counters still count, for QueryStats alone).
func newServerMetrics(r *obs.Registry) *ServerMetrics {
	conns := func(proto string) *obs.Counter {
		return r.Counter("fgcs_server_conns_total", "Connections accepted, by negotiated protocol.", obs.Label{Key: "proto", Value: proto})
	}
	shed := func(reason string) *obs.Counter {
		return r.Counter("fgcs_server_shed_total", "Requests or connections shed by admission control, by reason.", obs.Label{Key: "reason", Value: reason})
	}
	return &ServerMetrics{
		cBinary: conns("binary"), cJSON: conns("json"),
		cShedAccept: shed("accept-queue"), cShedInfl: shed("inflight"), cShedPC: shed("per-conn"),
	}
}

// wireStats returns the wire-stats view of the counters, stamped with the
// binary protocol version this build speaks.
func (m *ServerMetrics) wireStats() WireStats {
	if m == nil {
		return WireStats{ProtoVersion: frameVersion}
	}
	return WireStats{
		ProtoVersion:    frameVersion,
		BinaryConns:     m.cBinary.Value(),
		JSONConns:       m.cJSON.Value(),
		ShedAcceptQueue: m.cShedAccept.Value(),
		ShedInflight:    m.cShedInfl.Value(),
		ShedPerConn:     m.cShedPC.Value(),
	}
}

// NodeObs bundles one host node's observability: the metrics registry every
// component records into, and the online accuracy tracker that scores issued
// TR predictions against observed availability outcomes. A nil *NodeObs is
// inert (every method no-ops), so lightweight simulations can opt out.
type NodeObs struct {
	Registry *obs.Registry
	Tracker  *obs.Tracker
	// Engine and Monitor are the pre-registered metric families handed to
	// the prediction engine and the resource monitor.
	Engine  *predict.EngineMetrics
	Monitor *monitor.Metrics
	// Caller instruments the node's outbound RPCs (registry heartbeats).
	Caller *CallerMetrics
	// Server instruments the node's serving path: connection protocol mix
	// and admission-control sheds.
	Server *ServerMetrics
	// Tracer mints request traces for the node's served RPCs. nil (the
	// default) disables tracing entirely — the serving path then pays two
	// pointer reads and nothing else. Install one with SetTracing.
	Tracer *otrace.Tracer
	// Alerts is the node's bounded alert ring: accuracy-drift and
	// serving-path ops alerts land here and are served over /alerts and
	// query-obs. Drift is the watcher feeding it; replace it before
	// StepObs starts running to retune its alarm threshold.
	Alerts *obs.AlertRing
	Drift  *obs.DriftWatcher

	sloMu sync.Mutex
	slos  []*obs.SLOMonitor

	// breakerOpens is the breaker-open transition counter instrumentBreakers
	// registered (nil, reading zero, on a node without breakers).
	breakerOpens *obs.Counter

	// ops-alert cursors, advanced only by StepObs (single caller).
	opsPrevShed  uint64
	opsPrevReqs  uint64
	opsPrevOpens uint64

	// Served-RPC series by request type: one entry per row of the route
	// tables (gatewayRPCTypes) plus rpcOther for every type no row serves.
	requests   map[string]*obs.Counter
	errors     map[string]*obs.Counter
	rpcSeconds map[string]*obs.Histogram

	// prevFlight is the flight snapshot the previous process saved on
	// shutdown (nil = none found). Installed once at boot, before serving.
	prevFlight *otrace.FlightSnapshot
}

// NewNodeObs registers a host node's full metric surface on a fresh
// registry.
func NewNodeObs() *NodeObs {
	r := obs.NewRegistry()
	o := &NodeObs{
		Registry:   r,
		Tracker:    obs.NewTracker(),
		Engine:     predict.NewEngineMetrics(r),
		Monitor:    monitor.NewMetrics(r),
		requests:   make(map[string]*obs.Counter, len(gatewayRPCTypes)+1),
		errors:     make(map[string]*obs.Counter, len(gatewayRPCTypes)+1),
		rpcSeconds: make(map[string]*obs.Histogram, len(gatewayRPCTypes)+1),
	}
	o.Caller = &CallerMetrics{
		Attempts:        r.Counter("fgcs_client_rpc_attempts_total", "Outbound RPC attempts (first tries and retries)."),
		Retries:         r.Counter("fgcs_client_rpc_retries_total", "Outbound RPC attempts beyond the first."),
		TransportErrors: r.Counter("fgcs_client_rpc_transport_errors_total", "Outbound RPC attempts that failed below the application."),
		Overloaded:      r.Counter("fgcs_client_rpc_overloaded_total", "Outbound RPC attempts shed by the server's admission control."),
	}
	o.Server = newServerMetrics(r)
	o.Alerts = obs.NewAlertRing(0)
	o.Drift = obs.NewDriftWatcher(o.Tracker, o.Alerts, 0)
	register := func(typ string) {
		l := obs.Label{Key: "type", Value: typ}
		o.requests[typ] = r.Counter("fgcs_gateway_requests_total", "Gateway RPCs served, by request type.", l)
		o.errors[typ] = r.Counter("fgcs_gateway_errors_total", "Gateway RPCs that returned an application error, by request type.", l)
		o.rpcSeconds[typ] = r.Histogram("fgcs_gateway_rpc_seconds", "Gateway RPC handling latency, by request type.", nil, l)
	}
	for _, typ := range gatewayRPCTypes {
		register(typ)
	}
	register(rpcOther)
	return o
}

// SetTracing installs the node's tracer (and through it the flight
// recorder). Call before the gateway starts serving; pass nil to disable.
func (o *NodeObs) SetTracing(t *otrace.Tracer) {
	if o == nil {
		return
	}
	o.Tracer = t
}

// SetPrevFlight installs the flight snapshot the previous process saved on
// shutdown, served by query-traces with Previous set. Call at boot, before
// serving.
func (o *NodeObs) SetPrevFlight(s *otrace.FlightSnapshot) {
	if o == nil {
		return
	}
	o.prevFlight = s
}

// queryTraces answers query-traces for a host gateway and a federation peer
// alike: the recent-trace listing, or every retained record of one trace when
// the request names a trace ID, from the live flight recorder or — with
// Previous set — from the flight the previous process saved on shutdown. With
// tracing disabled (nil live recorder) it returns an empty snapshot rather
// than an error, so operator tooling degrades gracefully. The previous flight
// is o's (o may be nil).
func queryTraces(id string, live *otrace.Recorder, o *NodeObs, req QueryTracesReq) (QueryTracesResp, error) {
	var flight *otrace.FlightSnapshot
	if o != nil {
		flight = o.prevFlight
	}
	missing := "in the previous flight"
	if !req.Previous {
		flight, missing = live.Snapshot(time.Time{}), "retained"
	} else if flight == nil {
		return QueryTracesResp{}, fmt.Errorf("no previous flight snapshot (node not started with -data-dir, or first run)")
	}
	resp := QueryTracesResp{MachineID: id, TotalRecorded: flight.Total}
	if req.TraceID != "" {
		tid, err := otrace.ParseTraceID(req.TraceID)
		if err != nil {
			return QueryTracesResp{}, fmt.Errorf("bad trace id %q", req.TraceID)
		}
		records, ok := flight.Trace(tid)
		if !ok {
			return QueryTracesResp{}, fmt.Errorf("trace %s not %s", req.TraceID, missing)
		}
		resp.Traces = records
	} else {
		resp.Traces = flight.TracesLimit(req.Limit)
	}
	if req.Events {
		resp.Events = flight.EventsLimit(req.Limit)
	}
	return resp, nil
}

// instrumentBreakers registers per-edge transition counters and an
// open-breaker gauge on the node's registry and installs them as the set's
// onTransition hook; StepObs watches the open counter for flapping. Call
// before the set is shared across goroutines.
func (o *NodeObs) instrumentBreakers(bs *BreakerSet) {
	r := o.Registry
	transitions := map[breakerState]*obs.Counter{
		breakerClosed:   r.Counter("fgcs_breaker_transitions_total", "Circuit breaker state changes, by target state.", obs.Label{Key: "to", Value: "closed"}),
		breakerOpen:     r.Counter("fgcs_breaker_transitions_total", "Circuit breaker state changes, by target state.", obs.Label{Key: "to", Value: "open"}),
		breakerHalfOpen: r.Counter("fgcs_breaker_transitions_total", "Circuit breaker state changes, by target state.", obs.Label{Key: "to", Value: "half-open"}),
	}
	o.breakerOpens = transitions[breakerOpen]
	open := r.Gauge("fgcs_breaker_open", "Machines currently quarantined by an open breaker.")
	var openCount int64
	bs.onTransition = func(_ string, from, to breakerState) {
		transitions[to].Inc()
		if to == breakerOpen {
			openCount++
		} else if from == breakerOpen {
			openCount--
		}
		open.Set(float64(openCount))
	}
}

// observeRPC records one served gateway request.
func (o *NodeObs) observeRPC(typ string, err error, dur time.Duration) {
	if o == nil {
		return
	}
	served, ok := o.requests[typ]
	if !ok {
		typ = rpcOther
		served = o.requests[typ]
	}
	served.Inc()
	if err != nil {
		o.errors[typ].Inc()
	}
	o.rpcSeconds[typ].Observe(dur.Seconds())
}

// servingStats fills the part of a query-stats answer a host gateway and a
// federation peer both report: served and failed RPCs by type (only types with
// at least one request appear), the wire snapshot and the SLO verdicts.
// Without observability the fields stay absent on the wire.
func (o *NodeObs) servingStats(resp *QueryStatsResp) {
	if o == nil {
		return
	}
	resp.Requests, resp.Errors = make(map[string]uint64), make(map[string]uint64)
	for typ, c := range o.requests {
		if v := c.Value(); v > 0 {
			resp.Requests[typ] = v
		}
		if v := o.errors[typ].Value(); v > 0 {
			resp.Errors[typ] = v
		}
	}
	if o.Server != nil {
		w := o.Server.wireStats()
		resp.Wire = &w
	}
	resp.SLO = o.sloStatuses()
}
