package ishare

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"fgcs/internal/obs"
	"fgcs/internal/otrace"
	"fgcs/internal/rng"
	"fgcs/internal/simclock"
)

// countingDialer fails the first failN dials with a transport-level error
// and passes the rest through to the real network, counting dials in total
// and per address.
type countingDialer struct {
	mu     sync.Mutex
	dials  int
	failN  int
	byAddr map[string]int
}

func (d *countingDialer) DialTimeout(network, addr string, timeout time.Duration) (net.Conn, error) {
	d.mu.Lock()
	d.dials++
	if d.byAddr == nil {
		d.byAddr = make(map[string]int)
	}
	d.byAddr[addr]++
	n := d.dials
	d.mu.Unlock()
	if n <= d.failN {
		return nil, fmt.Errorf("synthetic dial failure %d", n)
	}
	return net.DialTimeout(network, addr, timeout)
}

func (d *countingDialer) count() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.dials
}

func (d *countingDialer) countTo(addr string) int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.byAddr[addr]
}

func echoHandler(req Request) (interface{}, error) { return map[string]string{"ok": "yes"}, nil }

func TestCallerRetriesTransportErrors(t *testing.T) {
	srv, err := NewServerConfig("127.0.0.1:0", echoHandler, ServerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	d := &countingDialer{failN: 2}
	c := &Caller{
		Dialer: d,
		Retry:  RetryPolicy{MaxAttempts: 4, BaseDelay: time.Millisecond, MaxDelay: 2 * time.Millisecond},
	}
	if err := c.CallRetry(context.Background(), srv.Addr(), msgDiscover, nil, nil, time.Second); err != nil {
		t.Fatalf("CallRetry = %v, want success on 3rd attempt", err)
	}
	if d.count() != 3 {
		t.Fatalf("dials = %d, want 3 (2 failures + 1 success)", d.count())
	}
}

func TestCallerExhaustsAttempts(t *testing.T) {
	d := &countingDialer{failN: 100}
	c := &Caller{
		Dialer: d,
		Retry:  RetryPolicy{MaxAttempts: 3, BaseDelay: time.Millisecond, MaxDelay: 2 * time.Millisecond},
	}
	err := c.CallRetry(context.Background(), "127.0.0.1:1", msgDiscover, nil, nil, 100*time.Millisecond)
	if err == nil {
		t.Fatal("exhausted retries reported success")
	}
	if !isTransport(err) {
		t.Fatalf("err = %v, want transport", err)
	}
	if d.count() != 3 {
		t.Fatalf("dials = %d, want exactly MaxAttempts", d.count())
	}
	if !strings.Contains(err.Error(), "3 attempts") {
		t.Fatalf("err = %v, want attempt count surfaced", err)
	}
}

func TestCallerDoesNotRetryRemoteErrors(t *testing.T) {
	srv, err := NewServerConfig("127.0.0.1:0", func(Request) (interface{}, error) {
		return nil, fmt.Errorf("application says no")
	}, ServerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	d := &countingDialer{}
	c := &Caller{Dialer: d, Retry: RetryPolicy{MaxAttempts: 5, BaseDelay: time.Millisecond}}
	err = c.CallRetry(context.Background(), srv.Addr(), msgDiscover, nil, nil, time.Second)
	if err == nil {
		t.Fatal("remote error reported success")
	}
	var re *remoteError
	if !errors.As(err, &re) || isTransport(err) {
		t.Fatalf("err = %v, want a non-transport remoteError", err)
	}
	if d.count() != 1 {
		t.Fatalf("dials = %d: remote application errors must not be retried", d.count())
	}
}

func TestNilCallerMatchesPlainCall(t *testing.T) {
	srv, err := NewServerConfig("127.0.0.1:0", echoHandler, ServerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	var c *Caller
	if err := c.CallRetry(context.Background(), srv.Addr(), msgDiscover, nil, nil, time.Second); err != nil {
		t.Fatalf("nil caller CallRetry = %v", err)
	}
	if err := c.Call(context.Background(), srv.Addr(), msgDiscover, nil, nil, time.Second); err != nil {
		t.Fatalf("nil caller Call = %v", err)
	}
}

// TestObserveSuccessAllocatesNothing pins that counting a successful
// attempt is free: isTransport and isOverloaded return on a nil error
// before their errors.As target, which escapes, is declared.
func TestObserveSuccessAllocatesNothing(t *testing.T) {
	reg := obs.NewRegistry()
	m := &CallerMetrics{
		Attempts:        reg.Counter("attempts", "attempts"),
		Retries:         reg.Counter("retries", "retries"),
		TransportErrors: reg.Counter("transport", "transport errors"),
		Overloaded:      reg.Counter("overloaded", "overloaded"),
	}
	if n := testing.AllocsPerRun(100, func() { m.observe(1, nil) }); n != 0 {
		t.Fatalf("observe(1, nil) allocates %.1f times, want 0", n)
	}
}

func TestRetryPolicyBackoff(t *testing.T) {
	p := RetryPolicy{BaseDelay: 100 * time.Millisecond, MaxDelay: 400 * time.Millisecond}
	jitter := rng.New(1)
	prevMax := time.Duration(0)
	for n := 1; n <= 5; n++ {
		d := p.delay(n, jitter)
		// Full delay for attempt n is min(base*mult^(n-1), max); the
		// jittered value lies in [full/2, full).
		full := 100 * time.Millisecond
		for i := 1; i < n; i++ {
			full *= 2
			if full >= 400*time.Millisecond {
				full = 400 * time.Millisecond
				break
			}
		}
		if d < full/2 || d >= full {
			t.Fatalf("delay(%d) = %v, want in [%v, %v)", n, d, full/2, full)
		}
		if full < prevMax {
			t.Fatalf("backoff cap not monotone")
		}
		prevMax = full
	}
}

// ackLossConn delivers the request but kills every read, simulating a lost
// response ACK: the server executes the RPC, the client never learns.
type ackLossConn struct{ net.Conn }

func (c *ackLossConn) Read(p []byte) (int, error) {
	// Give the server a moment to process the delivered request before
	// surfacing the loss.
	time.Sleep(10 * time.Millisecond)
	return 0, fmt.Errorf("synthetic ACK loss")
}

// ackLossDialer drops the response of the first lossN exchanges.
type ackLossDialer struct {
	mu    sync.Mutex
	dials int
	lossN int
}

func (d *ackLossDialer) DialTimeout(network, addr string, timeout time.Duration) (net.Conn, error) {
	c, err := net.DialTimeout(network, addr, timeout)
	if err != nil {
		return nil, err
	}
	d.mu.Lock()
	d.dials++
	lossy := d.dials <= d.lossN
	d.mu.Unlock()
	if lossy {
		return &ackLossConn{Conn: c}, nil
	}
	return c, nil
}

// TestSubmitIdempotentUnderAckLoss is the acceptance test for idempotency
// keys: the first submit executes on the gateway but its ACK is lost; the
// retried submit must return the original job ID and no second guest may
// ever be launched.
func TestSubmitIdempotentUnderAckLoss(t *testing.T) {
	clock := simclock.NewVirtual(monday)
	node := testNode(t, clock, nil)
	srv, err := node.Gateway.ServeConfig("127.0.0.1:0", ServerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	caller := &Caller{
		Dialer: &ackLossDialer{lossN: 1},
		Retry:  RetryPolicy{MaxAttempts: 3, BaseDelay: time.Millisecond, MaxDelay: 5 * time.Millisecond},
	}
	api := RemoteGateway{Addr: srv.Addr(), Timeout: time.Second, Caller: caller}
	resp, err := api.Submit(context.Background(), SubmitReq{Name: "idem", WorkSeconds: 600, MemMB: 10})
	if err != nil {
		t.Fatalf("submit with retry = %v", err)
	}
	if resp.JobID == "" {
		t.Fatal("no job id")
	}
	// Exactly one guest launched: the gateway accepts a fresh submission
	// only after the current one terminates, so a double launch would have
	// surfaced as an "already runs a guest" error on the retry. Verify the
	// job counter directly too.
	st, err := node.Gateway.JobStatus(context.Background(), JobStatusReq{JobID: resp.JobID})
	if err != nil {
		t.Fatal(err)
	}
	if st.State != "running" {
		t.Fatalf("job state = %s", st.State)
	}
	if resp.JobID != "lab-01-job-1" {
		t.Fatalf("job id = %s, want the first and only job", resp.JobID)
	}
	// A second logical submit (fresh key) is properly rejected while the
	// guest runs — proving the dedup keyed on the idempotency key, not on
	// blanket submit suppression.
	if _, err := api.Submit(context.Background(), SubmitReq{Name: "other", WorkSeconds: 60}); err == nil {
		t.Fatal("second logical submit accepted while a guest runs")
	}
}

// TestSubmitSingleAttemptWithoutKey pins the default: without a retrying
// caller, a submit gets exactly one attempt and a transport failure is
// surfaced, never silently retried.
func TestSubmitSingleAttemptWithoutKey(t *testing.T) {
	d := &countingDialer{failN: 100}
	api := RemoteGateway{Addr: "127.0.0.1:1", Timeout: 100 * time.Millisecond,
		Caller: &Caller{Dialer: d}}
	if _, err := api.Submit(context.Background(), SubmitReq{Name: "x", WorkSeconds: 60}); err == nil {
		t.Fatal("submit succeeded against dead dialer")
	}
	if d.count() != 1 {
		t.Fatalf("dials = %d, want 1 (no retry without idempotency protection)", d.count())
	}
}

func TestServerMaxRequestBytes(t *testing.T) {
	srv, err := NewServerConfig("127.0.0.1:0", echoHandler, ServerConfig{MaxRequestBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// A request far over the cap: the server must answer with a bounded
	// error instead of buffering it.
	huge := `{"type":"discover","payload":"` + strings.Repeat("x", 4096) + `"}` + "\n"
	if _, err := conn.Write([]byte(huge)); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 256)
	n, err := conn.Read(buf)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(buf[:n]), "request too large") {
		t.Fatalf("response = %q, want request-too-large", buf[:n])
	}
}

// TestDecodeRequestByteCap pins the cap of the envelope reader both JSON
// loops use: a message that fits decodes, one byte more is
// errMessageTooLarge — also for a line longer than the reader's buffer — and
// a message cut short inside the cap is malformed.
func TestDecodeRequestByteCap(t *testing.T) {
	msg := `{"type":"discover","payload":"` + strings.Repeat("x", 5000) + `"}`
	var req Request
	if err := readMessage([]byte(msg), int64(len(msg)), &req); err != nil || req.Type != "discover" {
		t.Fatalf("message of exactly the cap: %+v, %v", req.Type, err)
	}
	if err := readMessage([]byte(msg+"\n"), int64(len(msg)), &req); !errors.Is(err, errMessageTooLarge) {
		t.Fatalf("message one byte over the cap: %v, want errMessageTooLarge", err)
	}
	var resp response
	if err := readMessage([]byte(msg[:40]), 64, &resp); err == nil || errors.Is(err, errMessageTooLarge) {
		t.Fatalf("truncated message under the cap: %v, want a malformed-message error", err)
	}
}

func TestServerConnDeadlineConfigurable(t *testing.T) {
	srv, err := NewServerConfig("127.0.0.1:0", echoHandler, ServerConfig{ConnDeadline: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// A slow client that sends nothing: the server must hang up at the
	// deadline rather than holding the connection open.
	deadline := time.Now().Add(2 * time.Second)
	buf := make([]byte, 64)
	_ = conn.SetReadDeadline(deadline)
	if _, err := conn.Read(buf); err == nil {
		// The server wrote something without a request — also a close
		// signal; drain to EOF.
		if _, err := conn.Read(buf); err == nil {
			t.Fatal("connection still open well past the configured deadline")
		}
	}
	if time.Now().After(deadline) {
		t.Fatal("server held the connection past the configured deadline")
	}
}

// errListener fails the first failN accepts, then hands out one real
// connection from the inner listener.
type errListener struct {
	net.Listener
	mu      sync.Mutex
	fails   int
	failN   int
	accepts []time.Time
}

func (l *errListener) Accept() (net.Conn, error) {
	l.mu.Lock()
	l.accepts = append(l.accepts, time.Now())
	fail := l.fails < l.failN
	if fail {
		l.fails++
	}
	l.mu.Unlock()
	if fail {
		return nil, fmt.Errorf("synthetic accept failure")
	}
	return l.Listener.Accept()
}

// TestAcceptLoopBacksOff pins the fix for accept-loop hot-spinning: repeated
// transient Accept errors must be paced by a growing delay, and the server
// must still serve once Accept recovers.
func TestAcceptLoopBacksOff(t *testing.T) {
	inner, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	el := &errListener{Listener: inner, failN: 4}
	srv := ServeListener(el, echoHandler, ServerConfig{AcceptBackoffMax: 20 * time.Millisecond})
	defer srv.Close()

	start := time.Now()
	if err := (*Caller)(nil).Call(context.Background(), srv.Addr(), msgDiscover, nil, nil, 2*time.Second); err != nil {
		t.Fatalf("call after transient accept failures = %v", err)
	}
	// 4 failures with backoff 5,10,20,20 ms = at least ~55 ms of pacing.
	if elapsed := time.Since(start); elapsed < 40*time.Millisecond {
		t.Fatalf("accept loop recovered in %v: transient errors were not backed off", elapsed)
	}
	el.mu.Lock()
	defer el.mu.Unlock()
	if len(el.accepts) < 5 {
		t.Fatalf("accepts = %d, want the loop to keep trying", len(el.accepts))
	}
}

// TestNextKeyDistinctAcrossCallers is the regression test for a live bug:
// gateways remember idempotency keys for their whole lifetime, so two
// client processes with bare-counter keys would collide and the second
// would silently receive the first one's job.
func TestNextKeyDistinctAcrossCallers(t *testing.T) {
	a := (&Caller{}).nextKey("gw:1")
	b := (&Caller{}).nextKey("gw:1")
	if a == b {
		t.Fatalf("two fresh callers produced the same key %q", a)
	}
	// With a pinned seed the sequence is reproducible (chaos-test runs
	// depend on this) and key lengths match the random form.
	s1 := (&Caller{JitterSeed: 9}).nextKey("gw:1")
	s2 := (&Caller{JitterSeed: 9}).nextKey("gw:1")
	if s1 != s2 {
		t.Fatalf("seeded callers diverged: %q vs %q", s1, s2)
	}
	if len(s1) != len(a) {
		t.Fatalf("seeded key %q and random key %q differ in length", s1, a)
	}
}

// TestExchangeEnvelopeBytes pins the dial-per-RPC request line to what a
// json.Encoder writes for the Request envelope with a pre-marshalled
// payload — the line every daemon has always sent — for payloads with and
// without a trace header, an empty payload and strings the encoder escapes.
func TestExchangeEnvelopeBytes(t *testing.T) {
	link := otrace.Link{TraceID: 0x7a5, SpanID: 0xdeadbeefcafef00d, Sampled: true}
	cases := []struct {
		payload interface{}
		link    otrace.Link
	}{
		{nil, otrace.Link{}},
		{QueryTRReq{LengthSeconds: 3600, GuestMemMB: 100}, otrace.Link{}},
		{QueryTRReq{LengthSeconds: 60}, link},
		{SubmitReq{Name: "<a&b>", WorkSeconds: 7200, MemMB: 100, IdempotencyKey: "fed/m1/x-k1"}, link},
		{json.RawMessage(nil), otrace.Link{}},
	}
	for i, tc := range cases {
		var raw json.RawMessage
		if tc.payload != nil {
			b, err := json.Marshal(tc.payload)
			if err != nil {
				t.Fatal(err)
			}
			raw = b
		}
		var want bytes.Buffer
		if err := json.NewEncoder(&want).Encode(Request{Type: MsgQueryTR, Payload: raw, Trace: headerFromLink(tc.link)}); err != nil {
			t.Fatal(err)
		}
		client, server := net.Pipe()
		got := make(chan []byte, 1)
		go func() {
			line, _ := bufio.NewReader(server).ReadBytes('\n')
			got <- line
			server.Write([]byte("{\"ok\":true}\n"))
			server.Close()
		}()
		if err := exchange(client, tc.link, MsgQueryTR, tc.payload, nil); err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		client.Close()
		if line := <-got; !bytes.Equal(line, want.Bytes()) {
			t.Errorf("case %d: request line\n%s\nwant\n%s", i, line, want.Bytes())
		}
	}
}
