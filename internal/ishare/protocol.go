// Package ishare implements the FGCS runtime of Section 5 (Figure 2): the
// iShare gateway that controls guest processes on a host node, the state
// manager that stores history logs and answers temporal-reliability queries,
// the resource-publication registry (standing in for the paper's P2P
// network), and the client-side job scheduler that selects machines by
// predicted availability and submits guest jobs.
//
// Daemons speak a length-prefixed binary protocol (frame.go) over pooled,
// long-lived, multiplexed TCP connections, with a line-delimited JSON compat
// mode negotiated by first-byte sniff for debugging and old tooling; all
// components can also be wired in-process for simulations and tests.
package ishare

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"fgcs/internal/obs"
	"fgcs/internal/otrace"
)

// Message types.
const (
	msgRegister    = "register"     // gateway -> registry
	msgDiscover    = "discover"     // client -> registry
	MsgQueryTR     = "query-tr"     // client -> gateway
	MsgSubmit      = "submit"       // client -> gateway
	msgJobStatus   = "job-status"   // client -> gateway
	msgKillJob     = "kill-job"     // client -> gateway
	msgQueryStats  = "query-stats"  // client -> gateway
	msgQueryTraces = "query-traces" // client -> gateway
	msgQueryObs    = "query-obs"    // client/peer -> gateway (obs plane)
)

// TraceHeader is the optional trace-context carried in a request envelope:
// the wire form of an otrace.Link. It is strictly additive — peers that
// predate it ignore the field, and its absence means "untraced request" —
// so old and new daemons interoperate in either direction.
type TraceHeader struct {
	// TraceID and SpanID are fixed-width hex (otrace ID string form).
	TraceID string `json:"trace_id"`
	SpanID  string `json:"span_id,omitempty"`
	// Sampled tells the server whether to record its side of the trace.
	Sampled bool `json:"sampled,omitempty"`
}

// link decodes the header into an otrace link. Malformed IDs degrade to the
// zero link (untraced) rather than failing the request.
func (h *TraceHeader) link() otrace.Link {
	if h == nil {
		return otrace.Link{}
	}
	tid, err := otrace.ParseTraceID(h.TraceID)
	if err != nil {
		return otrace.Link{}
	}
	sid, _ := otrace.ParseSpanID(h.SpanID)
	return otrace.Link{TraceID: tid, SpanID: sid, Sampled: h.Sampled}
}

// headerFromLink encodes a span link as a wire header (nil for the zero
// link, which keeps untraced requests byte-identical to the old protocol).
func headerFromLink(link otrace.Link) *TraceHeader {
	if link.TraceID == 0 {
		return nil
	}
	return &TraceHeader{
		TraceID: link.TraceID.String(),
		SpanID:  link.SpanID.String(),
		Sampled: link.Sampled,
	}
}

// Request is the protocol envelope: one request per connection, one
// response back.
type Request struct {
	Type string `json:"type"`
	// Payload is the request's JSON payload. On a server it is valid only
	// until the handler returns: the server reuses its buffer for a later
	// request. A handler that keeps the bytes copies them.
	Payload json.RawMessage `json:"payload,omitempty"`
	// Trace is the optional trace-context header of a JSON request (absent
	// on untraced requests and on requests from peers that predate
	// tracing). The server reads link, not Trace.
	Trace *TraceHeader `json:"trace,omitempty"`
	// link is the request's trace context: a binary frame's link as it came
	// off the wire, or the link a JSON line's Trace header names, both set
	// by the server before the request is served.
	link otrace.Link
	// pooled is set by Server.respond: a route row may answer it with a
	// pooledResp, which only respond knows to encode and release.
	pooled bool
}

// response is the reply envelope.
type response struct {
	OK    bool   `json:"ok"`
	Error string `json:"error,omitempty"`
	// Code is a machine-readable error class (codeOverloaded for requests
	// shed by admission control); empty for ordinary application errors.
	Code    string          `json:"code,omitempty"`
	Payload json.RawMessage `json:"payload,omitempty"`
}

// registerReq announces a host node to the registry.
type registerReq struct {
	MachineID string `json:"machine_id"`
	Addr      string `json:"addr"`
	// TTLSeconds makes the registration expire unless refreshed within
	// the TTL (0 = never expires). Gateways heartbeat by re-registering.
	TTLSeconds float64 `json:"ttl_seconds,omitempty"`
	// Forwarded marks a registration already routed once by a federation
	// peer: the receiver must store it rather than re-forward (plain
	// registries ignore it).
	Forwarded bool `json:"forwarded,omitempty"`
}

// discoverReq is the optional discover payload. Plain registries ignore
// it; federation peers use Local to scope the answer to their own shard
// (the peer-to-peer fan-out) instead of the merged federation-wide view
// served to clients.
type discoverReq struct {
	Local bool `json:"local,omitempty"`
}

// resource is one published host node.
type resource struct {
	MachineID string `json:"machine_id"`
	Addr      string `json:"addr"`
}

// discoverResp lists the published resources.
type discoverResp struct {
	Resources []resource `json:"resources"`
}

// QueryTRReq asks a gateway for the temporal reliability of running a guest
// job of the given length starting now.
type QueryTRReq struct {
	// LengthSeconds is the estimated job execution time (T).
	LengthSeconds float64 `json:"length_seconds"`
	// GuestMemMB is the job's estimated working set, used as the S4
	// threshold.
	GuestMemMB float64 `json:"guest_mem_mb"`
}

// QueryTRResp returns the prediction.
type QueryTRResp struct {
	TR float64 `json:"tr"`
	// HistoryWindows reports how much history backed the estimate.
	HistoryWindows int `json:"history_windows"`
	// CurrentState is the machine's current availability state (S1/S2
	// string form).
	CurrentState string `json:"current_state"`
	// CacheHits and CacheMisses are the node's cumulative prediction-engine
	// cache counters after this query, so clients can observe how much of
	// the query load is served from memoized kernels.
	CacheHits   uint64 `json:"cache_hits"`
	CacheMisses uint64 `json:"cache_misses"`
	// Predictor is always empty: SMP produces every TR. It stays because
	// bench/ compares it between answers and fleetsim folds it into its
	// query transcript.
	Predictor string `json:"predictor,omitempty"`
}

// SubmitReq launches a guest job.
type SubmitReq struct {
	Name string `json:"name"`
	// WorkSeconds is the pure compute time the job needs.
	WorkSeconds float64 `json:"work_seconds"`
	MemMB       float64 `json:"mem_mb"`
	// InitialProgressSeconds resumes from a checkpoint.
	InitialProgressSeconds float64 `json:"initial_progress_seconds,omitempty"`
	// IdempotencyKey, when set, makes the submit replay-safe: a gateway
	// that already launched a job for this key returns the original job
	// ID instead of launching a second guest. This is what lets a client
	// retry a submit whose ACK was lost in the network.
	IdempotencyKey string `json:"idempotency_key,omitempty"`
}

// remainingSeconds is the compute a placement of the job still has to run:
// its length less the checkpointed progress it resumes from. It is the length
// a scheduler ranks machines over and the range check a gateway admits a
// submit by, so a checkpoint no gateway would accept fails before any query.
func (r SubmitReq) remainingSeconds() (float64, error) {
	if r.WorkSeconds <= 0 {
		return 0, fmt.Errorf("ishare: job needs positive work")
	}
	if r.InitialProgressSeconds < 0 || r.InitialProgressSeconds >= r.WorkSeconds {
		return 0, fmt.Errorf("ishare: checkpoint progress out of range")
	}
	return r.WorkSeconds - r.InitialProgressSeconds, nil
}

// SubmitResp acknowledges a launch.
type SubmitResp struct {
	JobID string `json:"job_id"`
}

// JobStatusReq queries a job.
type JobStatusReq struct {
	JobID string `json:"job_id"`
}

// JobStatusResp reports job state.
type JobStatusResp struct {
	JobID           string  `json:"job_id"`
	State           string  `json:"state"` // running | reniced | suspended | completed | killed
	Reason          string  `json:"reason,omitempty"`
	ProgressSeconds float64 `json:"progress_seconds"`
	WorkSeconds     float64 `json:"work_seconds"`
}

// QueryStatsReq asks a gateway for its observability snapshot.
type QueryStatsReq struct {
	// Calibration includes the per-predictor calibration tables in the
	// accuracy summaries (they are verbose, so off by default).
	Calibration bool `json:"calibration,omitempty"`
}

// EngineCacheStats mirrors the prediction engine's cache counters on the
// wire.
type EngineCacheStats struct {
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Evictions uint64 `json:"evictions"`
	Entries   int    `json:"entries"`
}

// QueryStatsResp is a host node's observability snapshot: engine cache
// effectiveness, per-type RPC counts, monitor throughput, and the online
// accuracy scores per predictor — the paper's Section 5 comparison served
// live over the wire.
type QueryStatsResp struct {
	MachineID string           `json:"machine_id"`
	Engine    EngineCacheStats `json:"engine"`
	// Requests and Errors count gateway RPCs by request type (only types
	// seen at least once appear).
	Requests map[string]uint64 `json:"requests,omitempty"`
	Errors   map[string]uint64 `json:"errors,omitempty"`
	// MonitorSamples counts samples recorded by the state manager.
	MonitorSamples uint64 `json:"monitor_samples"`
	// PendingPredictions is the number of issued TR predictions still
	// awaiting their window outcome.
	PendingPredictions int `json:"pending_predictions"`
	// Accuracy holds one summary per (machine, predictor) resolved on
	// this node; machine "_all" aggregates.
	Accuracy []obs.AccuracyStats `json:"accuracy,omitempty"`
	// Ring is present when the answering node is a federation peer: its
	// view of the peer ring, shard placement, and replication counters.
	Ring *RingStats `json:"ring,omitempty"`
	// Wire is the node's serving-path snapshot: negotiated protocol
	// version, connection mix, and admission-control sheds.
	Wire *WireStats `json:"wire,omitempty"`
	// SLO reports the node's serving-path objectives (QPS floor, p99
	// ceiling, error-budget burn rates), present when SLO monitors are
	// configured.
	SLO []obs.SLOStatus `json:"slo,omitempty"`
}

// WireStats is a server's wire-protocol and admission-control snapshot,
// served inside QueryStatsResp so `isharec stats -verbose` can show which
// protocol a node negotiates and how hard it is shedding.
type WireStats struct {
	// ProtoVersion is the binary protocol version this server speaks.
	ProtoVersion int `json:"proto_version"`
	// BinaryConns and JSONConns count connections accepted per negotiated
	// protocol.
	BinaryConns uint64 `json:"binary_conns"`
	JSONConns   uint64 `json:"json_conns"`
	// ShedAcceptQueue counts connections dropped because the accept queue
	// was full; ShedInflight counts requests shed by the global in-flight
	// cap; ShedPerConn counts requests shed by the per-connection
	// pipelining cap.
	ShedAcceptQueue uint64 `json:"shed_accept_queue"`
	ShedInflight    uint64 `json:"shed_inflight"`
	ShedPerConn     uint64 `json:"shed_per_conn"`
}

// QueryTracesReq asks a gateway for its flight recorder's recent traces.
type QueryTracesReq struct {
	// Limit bounds how many traces come back (0 = server default).
	Limit int `json:"limit,omitempty"`
	// TraceID, when set, selects every retained record of one trace
	// instead of the recent listing.
	TraceID string `json:"trace_id,omitempty"`
	// Events includes recent captured WARN/ERROR log events.
	Events bool `json:"events,omitempty"`
	// Previous serves the flight snapshot the node persisted on its last
	// shutdown (ishared -data-dir) instead of the live recorder — the black
	// box of the run that just ended.
	Previous bool `json:"previous,omitempty"`
}

// QueryTracesResp returns flight-recorder contents.
type QueryTracesResp struct {
	MachineID string `json:"machine_id"`
	// TotalRecorded counts traces ever recorded, including displaced ones.
	TotalRecorded uint64               `json:"total_recorded"`
	Traces        []otrace.TraceRecord `json:"traces,omitempty"`
	Events        []otrace.LogEvent    `json:"events,omitempty"`
}

// errMessageTooLarge reports a wire message that exceeded the decoder's byte
// cap.
var errMessageTooLarge = errors.New("ishare: message too large")

// maxResponseBytes caps what a client will buffer for one response envelope.
// Responses can carry discovery lists and accuracy tables, so the cap is
// larger than the server-side request cap.
const maxResponseBytes = 8 << 20

// requestEnvelope is Request as a client writes it: the payload is
// marshalled in place, so one appendJSON encodes the whole message. Its
// field tags are Request's, which keeps the bytes on the wire identical.
type requestEnvelope struct {
	Type    string       `json:"type"`
	Payload interface{}  `json:"payload,omitempty"`
	Trace   *TraceHeader `json:"trace,omitempty"`
}

// responseEnvelope is Response as a client reads it: the payload decodes
// straight into the caller's out, in the same decodeJSON as the envelope.
type responseEnvelope struct {
	OK      bool        `json:"ok"`
	Error   string      `json:"error,omitempty"`
	Code    string      `json:"code,omitempty"`
	Payload interface{} `json:"payload,omitempty"`
}

// exchange runs the request/response protocol over an established
// connection: one write of the request line, one read of the response line
// through a pooled reader. Failures to send or receive are transport errors
// (the request may or may not have executed remotely); a decoded
// response{OK: false} is a remoteError (the request definitely executed and
// was rejected). A sampled link is encoded as the envelope's optional trace
// header; the zero link leaves the envelope exactly as the pre-tracing
// protocol sent it.
func exchange(conn net.Conn, link otrace.Link, typ string, payload, out interface{}) error {
	jc := jsonConns.Get().(*jsonConn)
	defer jc.release()
	msg, err := appendJSON(jc.line[:0], requestEnvelope{Type: typ, Payload: payload, Trace: headerFromLink(link)})
	if err != nil {
		return err
	}
	jc.line = append(msg, '\n')
	if _, err := conn.Write(jc.line); err != nil {
		return &transportError{fmt.Errorf("ishare: send: %w", err)}
	}
	br := connReaders.Get().(*bufio.Reader)
	br.Reset(conn)
	defer func() {
		br.Reset(nil)
		connReaders.Put(br)
	}()
	line, err := readLineCapped(br, maxResponseBytes)
	if err != nil {
		return &transportError{fmt.Errorf("ishare: receive: %w", err)}
	}
	resp := responseEnvelope{Payload: out}
	if err := decodeJSON(line, &resp); err != nil {
		return &transportError{fmt.Errorf("ishare: receive: %w", err)}
	}
	if !resp.OK {
		return &remoteError{Msg: resp.Error, Code: resp.Code}
	}
	return nil
}

// Handler processes one decoded request and returns the response payload.
// req.Payload is valid only until the handler returns (see Request).
type Handler func(req Request) (payload interface{}, err error)

// ServerConfig bounds per-connection resource use and tunes admission
// control. The zero value gives the defaults documented per field.
type ServerConfig struct {
	// ConnDeadline bounds the protocol sniff and, in JSON compat mode, how
	// long one message may take to arrive and drain (default 30 s). JSON
	// clients are short-lived, so a tight deadline is right for them.
	ConnDeadline time.Duration
	// IdleDeadline bounds the gap between frames on a long-lived binary
	// connection (default 5 min). It is re-armed before every frame read,
	// so an idle-but-healthy multiplexed connection is not killed by the
	// absolute deadline the short-lived JSON design used.
	IdleDeadline time.Duration
	// MaxRequestBytes caps the request size read from a connection, so a
	// malformed or hostile client cannot balloon server memory
	// (default 1 MiB).
	MaxRequestBytes int64
	// AcceptBackoffMax caps the exponential backoff applied when Accept
	// fails transiently (default 1 s).
	AcceptBackoffMax time.Duration
	// MaxConns bounds concurrently served connections (default 1024).
	MaxConns int
	// AcceptQueue bounds connections accepted but not yet dispatched
	// (default 128); beyond it new connections are dropped at accept.
	AcceptQueue int
	// MaxInflight bounds requests executing in handlers across all
	// connections (default 256).
	MaxInflight int
	// PerConnInflight bounds pipelined requests in flight on one binary
	// connection (default 32); excess frames are answered overloaded
	// without queueing.
	PerConnInflight int
	// MaxQueuedWaiters bounds requests queued for an in-flight slot across
	// all connections (default MaxInflight); beyond it requests are shed
	// with the typed overloaded error.
	MaxQueuedWaiters int
	// Metrics, when non-nil, counts connections per protocol and sheds per
	// reason.
	Metrics *ServerMetrics
}

func (c ServerConfig) connDeadline() time.Duration {
	if c.ConnDeadline <= 0 {
		return 30 * time.Second
	}
	return c.ConnDeadline
}

func (c ServerConfig) idleDeadline() time.Duration {
	if c.IdleDeadline <= 0 {
		return 5 * time.Minute
	}
	return c.IdleDeadline
}

func (c ServerConfig) maxRequestBytes() int64 {
	if c.MaxRequestBytes <= 0 {
		return 1 << 20
	}
	return c.MaxRequestBytes
}

func (c ServerConfig) acceptBackoffMax() time.Duration {
	if c.AcceptBackoffMax <= 0 {
		return time.Second
	}
	return c.AcceptBackoffMax
}

func (c ServerConfig) maxConns() int {
	if c.MaxConns <= 0 {
		return 1024
	}
	return c.MaxConns
}

func (c ServerConfig) acceptQueue() int {
	if c.AcceptQueue <= 0 {
		return 128
	}
	return c.AcceptQueue
}

func (c ServerConfig) maxInflight() int {
	if c.MaxInflight <= 0 {
		return 256
	}
	return c.MaxInflight
}

func (c ServerConfig) perConnInflight() int {
	if c.PerConnInflight <= 0 {
		return 32
	}
	return c.PerConnInflight
}

func (c ServerConfig) maxQueuedWaiters() int {
	if c.MaxQueuedWaiters <= 0 {
		return c.maxInflight()
	}
	return c.MaxQueuedWaiters
}

// Server is the shared TCP server of the registry and the gateway. Each
// accepted connection is sniffed by its first byte: the binary frame magic
// selects the multiplexed pipelined loop, anything else the line-delimited
// JSON compat loop. Admission control (bounded accept queue, global
// in-flight cap with per-connection fair dequeue, per-connection pipelining
// cap) sheds excess load with the typed overloaded error instead of
// queueing without bound.
type Server struct {
	ln        net.Listener
	handler   Handler
	cfg       ServerConfig
	admit     *admitter
	queue     chan net.Conn
	sem       chan struct{}
	done      chan struct{}
	closeOnce sync.Once

	mu    sync.Mutex
	conns map[net.Conn]struct{}
}

// NewServerConfig starts listening on addr (use "127.0.0.1:0" for tests) and
// serving requests with the handler under cfg's bounds (the zero ServerConfig
// selects every default).
func NewServerConfig(addr string, handler Handler, cfg ServerConfig) (*Server, error) {
	if handler == nil {
		return nil, fmt.Errorf("ishare: nil handler")
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	return ServeListener(ln, handler, cfg), nil
}

// ServeListener serves the protocol on an already-open listener. A nil ln
// gives a server with no listener that serves only the connections handed
// to ServeConn, for a transport that has no accept loop (faultnet's
// in-memory network, which fleetsim and the chaos tests run on).
func ServeListener(ln net.Listener, handler Handler, cfg ServerConfig) *Server {
	if cfg.Metrics == nil {
		cfg.Metrics = &ServerMetrics{}
	}
	s := &Server{
		ln:      ln,
		handler: handler,
		cfg:     cfg,
		admit:   newAdmitter(cfg.maxInflight(), cfg.maxQueuedWaiters()),
	}
	if ln != nil {
		s.queue = make(chan net.Conn, cfg.acceptQueue())
		s.sem = make(chan struct{}, cfg.maxConns())
		s.done = make(chan struct{})
		s.conns = make(map[net.Conn]struct{})
		go s.acceptLoop()
		go s.dispatchLoop()
	}
	return s
}

// Addr returns the bound address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close stops the server and severs every open connection it accepted, so
// pooled clients observe the death instead of talking to a ghost. Safe to
// call more than once: chaos harnesses kill servers mid-run and shared
// cleanup paths close them again. A server without a listener has nothing
// to stop.
func (s *Server) Close() error {
	if s.ln == nil {
		return nil
	}
	err := error(nil)
	s.closeOnce.Do(func() {
		close(s.done)
		err = s.ln.Close()
		// Drain connections parked in the accept queue.
		for {
			select {
			case c := <-s.queue:
				c.Close()
				continue
			default:
			}
			break
		}
		s.mu.Lock()
		for c := range s.conns {
			c.Close()
		}
		s.mu.Unlock()
	})
	return err
}

func (s *Server) track(conn net.Conn) {
	s.mu.Lock()
	s.conns[conn] = struct{}{}
	s.mu.Unlock()
}

func (s *Server) untrack(conn net.Conn) {
	s.mu.Lock()
	delete(s.conns, conn)
	s.mu.Unlock()
}

func (s *Server) acceptLoop() {
	var backoff time.Duration
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			select {
			case <-s.done:
				return
			default:
			}
			// Transient accept failure (EMFILE, ECONNABORTED, ...):
			// back off with a capped exponential delay instead of
			// hot-spinning the CPU against a persistent error.
			if backoff == 0 {
				backoff = 5 * time.Millisecond
			} else {
				backoff *= 2
			}
			if max := s.cfg.acceptBackoffMax(); backoff > max {
				backoff = max
			}
			select {
			case <-s.done:
				return
			case <-time.After(backoff):
			}
			continue
		}
		backoff = 0
		select {
		case s.queue <- conn:
		default:
			// Accept queue full: shed at the door rather than buffering
			// connections without bound.
			s.cfg.Metrics.cShedAccept.Inc()
			conn.Close()
		}
	}
}

// dispatchLoop moves accepted connections into service as MaxConns slots
// free up.
func (s *Server) dispatchLoop() {
	for {
		select {
		case <-s.done:
			return
		case conn := <-s.queue:
			select {
			case s.sem <- struct{}{}:
			case <-s.done:
				conn.Close()
				return
			}
			s.track(conn)
			go func(c net.Conn) {
				defer func() { <-s.sem }()
				defer s.untrack(c)
				s.ServeConn(c)
			}(conn)
		}
	}
}

// connReaders recycles the read buffers of ServeConn and of the
// dial-per-RPC JSON client: such a client costs one connection per request
// on both ends, and a fresh 4 KiB reader for each was half of what such a
// request allocated.
var connReaders = sync.Pool{New: func() interface{} { return bufio.NewReader(nil) }}

// ServeConn serves one connection: it sniffs the protocol by the first byte
// and runs the matching loop, under s's admission control, until the
// connection closes, then closes it. The accept path hands it every
// accepted connection; a transport without a listener (faultnet's
// in-memory network, on a ServeListener(nil, ...) server) hands it its own.
// Close severs only accepted connections: one handed in directly is its
// caller's to sever.
func (s *Server) ServeConn(conn net.Conn) {
	defer conn.Close()
	_ = conn.SetReadDeadline(time.Now().Add(s.cfg.connDeadline()))
	br := connReaders.Get().(*bufio.Reader)
	br.Reset(conn)
	// Runs once the protocol loop has returned — for serveBinary, after its
	// last handler — and both loops copy what they keep out of br's buffer.
	defer func() {
		br.Reset(nil)
		connReaders.Put(br)
	}()
	first, err := br.Peek(1)
	if err != nil {
		return
	}
	if first[0] == frameMagic0 {
		s.cfg.Metrics.cBinary.Inc()
		s.serveBinary(conn, br)
		return
	}
	s.cfg.Metrics.cJSON.Inc()
	s.serveJSON(conn, br)
}

// serveJSON runs the line-delimited JSON compat loop: one envelope per
// line, responses in arrival order, connection kept alive between messages.
// The short ConnDeadline is re-armed per message — JSON clients are
// expected to be short-lived dial-per-RPC tools.
func (s *Server) serveJSON(conn net.Conn, br *bufio.Reader) {
	key := interface{}(conn)
	connDone := make(chan struct{})
	defer s.admit.forget(key)
	defer close(connDone)
	jc := jsonConns.Get().(*jsonConn)
	defer jc.release()
	send := func(resp response) error {
		_ = conn.SetWriteDeadline(time.Now().Add(s.cfg.connDeadline()))
		return jc.send(conn, resp)
	}
	for {
		_ = conn.SetReadDeadline(time.Now().Add(s.cfg.connDeadline()))
		line, err := readLineCapped(br, s.cfg.maxRequestBytes())
		if err != nil {
			if errors.Is(err, errMessageTooLarge) {
				_ = send(response{OK: false, Error: "request too large"})
			}
			return
		}
		if len(line) == 0 {
			continue
		}
		req, err := jc.decode(line)
		if err != nil {
			_ = send(response{OK: false, Error: "malformed request"})
			return
		}
		if !s.admit.acquire(key, connDone) {
			s.cfg.Metrics.cShedInfl.Inc()
			_ = send(response{OK: false, Error: "server overloaded", Code: codeOverloaded})
			continue
		}
		resp := s.respond(req, jc.out)
		s.admit.release()
		if resp.Payload != nil {
			jc.out = resp.Payload
		}
		if err := send(resp); err != nil {
			return
		}
	}
}

// jsonConn holds the buffers of one JSON connection, recycled across
// connections. In the JSON loop the request payload decodes into in, the
// response payload encodes into out and the response line into line; a
// dial-per-RPC exchange encodes its request line into line. req and resp
// are what decodeJSON and appendJSON are handed, held here so handing them
// over allocates nothing.
type jsonConn struct {
	req           Request
	resp          response
	in, out, line []byte
}

var jsonConns = sync.Pool{New: func() interface{} { return new(jsonConn) }}

// decode decodes one request line. Its payload lands in jc's buffer and is
// valid until the next decode.
func (jc *jsonConn) decode(line []byte) (Request, error) {
	jc.req = Request{Payload: jc.in[:0]}
	err := decodeJSON(line, &jc.req)
	req := jc.req
	req.link = req.Trace.link()
	if cap(req.Payload) > 0 {
		jc.in = req.Payload[:0]
	}
	// A request without a payload left the buffer empty: it has none.
	if len(req.Payload) == 0 {
		req.Payload = nil
	}
	return req, err
}

// send writes resp as one line in one Write.
func (jc *jsonConn) send(conn net.Conn, resp response) error {
	jc.resp = resp
	line, err := appendJSON(jc.line[:0], &jc.resp)
	jc.resp = response{}
	if err != nil {
		return err
	}
	jc.line = append(line, '\n')
	_, err = conn.Write(jc.line)
	return err
}

// release recycles jc, dropping any buffer grown past poolBufMax.
func (jc *jsonConn) release() {
	jc.req = Request{}
	for _, b := range []*[]byte{&jc.in, &jc.out, &jc.line} {
		if cap(*b) > poolBufMax {
			*b = nil
		}
	}
	jsonConns.Put(jc)
}

// binaryConn is one connection of the binary loop, shared by the
// goroutines serving its frames.
type binaryConn struct {
	s        *Server
	key      interface{} // the connection, as admission control knows it
	done     chan struct{}
	bw       *batchWriter
	wg       sync.WaitGroup
	inflight atomic.Int32
}

// frameTask is one request frame on its way through a handler. Tasks are
// recycled: the request payload is read into the task's buffer, the
// response payload is encoded into another, and both are free again once
// the batch writer has copied the response frame.
type frameTask struct {
	id   uint64
	typ  string // a route table's own string when a table serves it
	link otrace.Link
	req  []byte // request payload; valid until the handler returns
	resp []byte // response payload
	head []byte // response frame head
}

var frameTasks = sync.Pool{New: func() interface{} { return new(frameTask) }}

// serveBinary runs the multiplexed binary loop: frames are decoded
// sequentially, handled concurrently up to the pipelining cap, and
// responses are written whole (one frame per write) as handlers finish —
// possibly out of request order, which is what the request IDs are for. A
// frame whose payload is over MaxRequestBytes is answered "request too
// large" and skipped; the connection keeps serving.
func (s *Server) serveBinary(conn net.Conn, br *bufio.Reader) {
	c := &binaryConn{s: s, key: conn, done: make(chan struct{})}
	defer s.admit.forget(c.key)
	defer c.wg.Wait()
	defer close(c.done)

	// Responses coalesce through the connection's batching flusher: handlers
	// finishing while a flush syscall is in flight ride the next batch. A
	// write failure closes the connection, which pops the decode loop below.
	c.bw = newBatchWriter(conn, s.cfg.connDeadline(), func(error) { _ = conn.Close() })
	defer c.bw.close()

	for {
		// Satellite of the multiplexed design: the read deadline re-arms
		// per frame, so a healthy idle connection survives while a stalled
		// one is still collected.
		_ = conn.SetReadDeadline(time.Now().Add(s.cfg.idleDeadline()))
		f, err := decodeFrameHead(br)
		if err != nil || f.Kind != frameRequest {
			return
		}
		t := frameTasks.Get().(*frameTask)
		t.id, t.typ, t.link = f.ID, f.Type, f.Trace
		n, err := readLen(br, s.cfg.maxRequestBytes(), "payload")
		if errors.Is(err, errMessageTooLarge) {
			if c.finish(t, false, false, "request too large", nil) != nil || discardN(br, n) != nil {
				return
			}
			continue
		}
		if err == nil {
			t.req, err = readN(br, t.req[:0], n, "payload")
		}
		if err != nil {
			t.release()
			return
		}
		if c.inflight.Add(1) > int32(s.cfg.perConnInflight()) {
			c.inflight.Add(-1)
			s.cfg.Metrics.cShedPC.Inc()
			if c.finish(t, false, true, "server overloaded", nil) != nil {
				return
			}
			continue
		}
		c.wg.Add(1)
		go c.serve(t)
	}
}

// serve runs one frame's handler under admission control and queues its
// response. A request stops counting against the pipelining cap before its
// response is queued: a client that has its answer may send the next
// request at once, and must not find the slot still taken.
func (c *binaryConn) serve(t *frameTask) {
	defer c.wg.Done()
	s := c.s
	if !s.admit.acquire(c.key, c.done) {
		c.inflight.Add(-1)
		s.cfg.Metrics.cShedInfl.Inc()
		_ = c.finish(t, false, true, "server overloaded", nil)
		return
	}
	req := Request{Type: t.typ, link: t.link}
	if len(t.req) > 0 {
		req.Payload = t.req
	}
	resp := s.respond(req, t.resp)
	s.admit.release()
	c.inflight.Add(-1)
	if resp.Payload != nil {
		t.resp = resp.Payload
	}
	_ = c.finish(t, resp.OK, false, resp.Error, resp.Payload)
}

// finish queues t's response frame and recycles t; the batch writer has
// copied the frame by the time enqueue returns.
func (c *binaryConn) finish(t *frameTask, ok, overloaded bool, errMsg string, payload []byte) error {
	t.head = appendResponseHead(t.head[:0], t.id, ok, overloaded, errMsg, len(payload))
	_, err := c.bw.enqueue(t.head, payload)
	t.release()
	return err
}

// release recycles t, dropping any buffer grown past poolBufMax.
func (t *frameTask) release() {
	for _, b := range []*[]byte{&t.req, &t.resp, &t.head} {
		if cap(*b) > poolBufMax {
			*b = nil
		}
	}
	t.typ, t.link = "", otrace.Link{}
	frameTasks.Put(t)
}

// respond runs the handler for one decoded request and shapes the reply
// envelope, shared by both protocol loops. The response payload is encoded
// onto buf[:0], so it is buf's array when it fits; a pooledResp is released
// once encoded.
func (s *Server) respond(req Request, buf []byte) response {
	req.pooled = true
	payload, err := s.handler(req)
	if err != nil {
		return response{Error: err.Error()}
	}
	var raw []byte
	if b, ok := payload.(pooledResp); ok {
		raw, err = b.appendTo(buf[:0])
		b.release()
	} else if payload != nil {
		raw, err = appendJSON(buf[:0], payload)
	}
	if err != nil {
		return response{Error: "marshal response"}
	}
	return response{OK: true, Payload: raw}
}

// readLineCapped reads one newline-terminated message, rejecting lines over
// the cap with errMessageTooLarge. EOF with buffered partial data returns
// the data (a client that writes a final unterminated message and closes
// still gets served). Blank lines come back empty for the caller to skip.
// A line that fits br's buffer is returned in place, without a copy: it is
// valid until br's next read, which every caller's json.Unmarshal, copying
// what it keeps, is done with by then.
func readLineCapped(br *bufio.Reader, max int64) ([]byte, error) {
	line, err := br.ReadSlice('\n')
	if err == bufio.ErrBufferFull {
		line = append([]byte(nil), line...)
		for err == bufio.ErrBufferFull && int64(len(line)) <= max {
			var chunk []byte
			chunk, err = br.ReadSlice('\n')
			line = append(line, chunk...)
		}
	}
	if int64(len(line)) > max {
		return nil, errMessageTooLarge
	}
	if err == nil {
		// Strip the terminator (and a CR, for telnet-style debugging).
		line = line[:len(line)-1]
		if len(line) > 0 && line[len(line)-1] == '\r' {
			line = line[:len(line)-1]
		}
		return line, nil
	}
	if err == io.EOF && len(line) > 0 {
		return line, nil
	}
	return nil, err
}
