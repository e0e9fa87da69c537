package ishare

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fgcs/internal/obs"
	"fgcs/internal/otrace"
	"fgcs/internal/simclock"
)

type echoReq struct {
	N int `json:"n"`
}

// echoServer serves a doubling handler over the full server stack with the
// given config and returns the server plus its metrics. A non-nil block
// channel makes every handler invocation signal entry on entered (when set)
// and park until block closes.
func echoServer(t *testing.T, cfg ServerConfig, block <-chan struct{}, entered chan<- struct{}) (*Server, *ServerMetrics) {
	t.Helper()
	sm := newServerMetrics(obs.NewRegistry())
	cfg.Metrics = sm
	srv, err := NewServerConfig("127.0.0.1:0", func(req Request) (interface{}, error) {
		if block != nil {
			if entered != nil {
				entered <- struct{}{}
			}
			<-block
		}
		var in echoReq
		if err := json.Unmarshal(req.Payload, &in); err != nil {
			return nil, err
		}
		return echoReq{N: in.N * 2}, nil
	}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv, sm
}

// TestPoolReusesAndPipelines drives sequential and concurrent calls through
// one pooled connection: the server must see exactly one binary connection,
// and every pipelined response must land on its own request.
func TestPoolReusesAndPipelines(t *testing.T) {
	srv, sm := echoServer(t, ServerConfig{}, nil, nil)
	pool := &Pool{}
	defer pool.Close()
	caller := &Caller{Pool: pool}

	for i := 1; i <= 20; i++ {
		var out echoReq
		if err := caller.Call(context.Background(), srv.Addr(), "echo", echoReq{N: i}, &out, time.Second); err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
		if out.N != 2*i {
			t.Fatalf("call %d returned %d, want %d", i, out.N, 2*i)
		}
	}
	var wg sync.WaitGroup
	errs := make(chan error, 32)
	for i := 1; i <= 32; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var out echoReq
			if err := caller.Call(context.Background(), srv.Addr(), "echo", echoReq{N: i}, &out, 2*time.Second); err != nil {
				errs <- fmt.Errorf("concurrent call %d: %w", i, err)
				return
			}
			if out.N != 2*i {
				errs <- fmt.Errorf("concurrent call %d returned %d", i, out.N)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	if got := sm.wireStats(); got.BinaryConns != 1 || got.JSONConns != 0 {
		t.Fatalf("server saw %d binary / %d json conns, want exactly 1 pooled binary conn", got.BinaryConns, got.JSONConns)
	}
}

// TestServerShedsTypedOverloaded saturates a one-slot server through one
// pooled connection: the in-flight holder plus one queued waiter fill the
// admission budget, the third concurrent request must come back as the typed
// overloaded error — immediately, not after a timeout — and the held
// requests must still complete once the slot frees.
func TestServerShedsTypedOverloaded(t *testing.T) {
	block := make(chan struct{})
	entered := make(chan struct{}, 8)
	srv, sm := echoServer(t, ServerConfig{MaxInflight: 1, MaxQueuedWaiters: 1}, block, entered)
	pool := &Pool{}
	defer pool.Close()
	caller := &Caller{Pool: pool}

	call := func(i int, res chan<- error) {
		var out echoReq
		err := caller.Call(context.Background(), srv.Addr(), "echo", echoReq{N: i}, &out, 5*time.Second)
		if err == nil && out.N != 2*i {
			err = fmt.Errorf("call %d returned %d", i, out.N)
		}
		res <- err
	}
	held := make(chan error, 2)
	go call(1, held)
	<-entered // first request holds the slot inside the handler
	go call(2, held)
	// Wait until the second request is queued for the slot.
	deadline := time.Now().Add(5 * time.Second)
	for {
		srv.admit.mu.Lock()
		w := srv.admit.waiting
		srv.admit.mu.Unlock()
		if w == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("second request never queued")
		}
		time.Sleep(100 * time.Microsecond)
	}

	start := time.Now()
	var out echoReq
	err := caller.Call(context.Background(), srv.Addr(), "echo", echoReq{N: 3}, &out, 5*time.Second)
	if !isOverloaded(err) {
		t.Fatalf("third request returned %v, want typed overloaded", err)
	}
	if isTransport(err) {
		t.Fatal("overloaded error must not classify as a transport fault")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("shed took %v; load shedding must be immediate", elapsed)
	}
	if got := sm.wireStats(); got.ShedInflight != 1 {
		t.Fatalf("ShedInflight = %d, want 1 (snapshot %+v)", got.ShedInflight, got)
	}

	close(block)
	for i := 0; i < 2; i++ {
		if err := <-held; err != nil {
			t.Fatalf("held request failed after release: %v", err)
		}
	}
}

// TestServerShedsPerConnCap pins the per-connection pipelining cap: with one
// slot per connection, a second concurrent request on the same pooled
// connection is shed before it ever reaches the global admission queue.
func TestServerShedsPerConnCap(t *testing.T) {
	block := make(chan struct{})
	entered := make(chan struct{}, 8)
	srv, sm := echoServer(t, ServerConfig{PerConnInflight: 1, MaxInflight: 8}, block, entered)
	pool := &Pool{}
	defer pool.Close()
	caller := &Caller{Pool: pool}

	held := make(chan error, 1)
	go func() {
		var out echoReq
		held <- caller.Call(context.Background(), srv.Addr(), "echo", echoReq{N: 1}, &out, 5*time.Second)
	}()
	// The per-connection slot is consumed before the handler parks.
	<-entered

	var out echoReq
	err := caller.Call(context.Background(), srv.Addr(), "echo", echoReq{N: 2}, &out, 5*time.Second)
	if !isOverloaded(err) {
		t.Fatalf("second pipelined request returned %v, want typed overloaded", err)
	}
	if got := sm.wireStats(); got.ShedPerConn != 1 {
		t.Fatalf("ShedPerConn = %d, want 1 (snapshot %+v)", got.ShedPerConn, got)
	}
	close(block)
	if err := <-held; err != nil {
		t.Fatalf("held request failed: %v", err)
	}
}

// TestCallRetryBacksOffOnOverloaded pins the retry semantics of the typed
// overloaded error on the JSON compat path: sheds are retryable, so a caller
// with retries configured rides out a transient overload.
func TestCallRetryBacksOffOnOverloaded(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	var attempts int64
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func(conn net.Conn) {
				defer conn.Close()
				br := bufio.NewReader(conn)
				if _, err := br.ReadString('\n'); err != nil {
					return
				}
				var resp response
				if atomic.AddInt64(&attempts, 1) <= 2 {
					resp = response{Error: "server overloaded", Code: codeOverloaded}
				} else {
					resp = response{OK: true, Payload: json.RawMessage(`{"n":42}`)}
				}
				b, _ := json.Marshal(resp)
				conn.Write(append(b, '\n'))
			}(conn)
		}
	}()

	caller := &Caller{
		Retry:      RetryPolicy{MaxAttempts: 4, BaseDelay: time.Millisecond, MaxDelay: 2 * time.Millisecond},
		JitterSeed: 1,
	}
	var out echoReq
	if err := caller.CallRetry(context.Background(), ln.Addr().String(), "echo", nil, &out, time.Second); err != nil {
		t.Fatalf("CallRetry over transient overload: %v", err)
	}
	if out.N != 42 {
		t.Fatalf("out.N = %d, want 42", out.N)
	}
	if got := atomic.LoadInt64(&attempts); got != 3 {
		t.Fatalf("server saw %d attempts, want 3 (two sheds, one success)", got)
	}
}

// TestServerShedsAtAcceptQueue fills a one-connection server whose accept
// queue holds one: the first connection holds the only MaxConns slot inside
// the handler, the dispatcher parks the second waiting for that slot, the
// third fills the queue, and the fourth has nowhere to go — it is closed at
// the door and counted under reason="accept-queue".
func TestServerShedsAtAcceptQueue(t *testing.T) {
	reg := obs.NewRegistry()
	sm := newServerMetrics(reg)
	block := make(chan struct{})
	entered := make(chan struct{}, 1)
	srv, err := NewServerConfig("127.0.0.1:0", func(Request) (interface{}, error) {
		entered <- struct{}{}
		<-block
		return nil, nil
	}, ServerConfig{MaxConns: 1, AcceptQueue: 1, Metrics: sm})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	defer close(block)

	held := make(chan error, 1)
	go func() {
		held <- (*Caller)(nil).Call(context.Background(), srv.Addr(), msgDiscover, nil, nil, 5*time.Second)
	}()
	<-entered // the only slot is held inside the handler
	for i := 0; i < 3; i++ {
		conn, err := net.Dial("tcp", srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
	}
	deadline := time.Now().Add(5 * time.Second)
	for reg.Snapshot().Find("fgcs_server_shed_total", obs.Label{Key: "reason", Value: "accept-queue"}).Count == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("no connection shed at a full accept queue (snapshot %+v)", sm.wireStats())
		}
		time.Sleep(100 * time.Microsecond)
	}
	if got := sm.wireStats().ShedAcceptQueue; got < 1 {
		t.Fatalf("WireStats.ShedAcceptQueue = %d, want >= 1", got)
	}
}

// TestBreakerCountsShedsSeparately pins that admission sheds do not trip
// breakers: a shed server is alive and telling us to back off, which is not
// the machine-fault signal breakers quarantine on.
func TestBreakerCountsShedsSeparately(t *testing.T) {
	bs := NewBreakerSet(BreakerConfig{Threshold: 1, Cooldown: time.Hour}, &stepClock{now: time.Unix(0, 0)})
	shed := &remoteError{Msg: "server overloaded", Code: codeOverloaded}
	for i := 0; i < 5; i++ {
		bs.report("m1", shed)
	}
	if !bs.allow("m1") {
		t.Fatal("sheds tripped the breaker; only transport faults may")
	}
	bs.report("m1", &transportError{err: fmt.Errorf("connection refused")})
	if bs.allow("m1") {
		t.Fatal("transport fault at threshold 1 did not open the breaker")
	}
}

// TestPoolNoLeakedGoroutines closes the pool and server after a workload
// with both completed and shed requests, then checks the goroutine count
// settles back to the baseline: no read loops, handlers or admission waiters
// may outlive their connections.
func TestPoolNoLeakedGoroutines(t *testing.T) {
	baseline := runtime.NumGoroutine()

	block := make(chan struct{})
	srv, _ := echoServer(t, ServerConfig{MaxInflight: 2, MaxQueuedWaiters: 1}, block, nil)
	pool := &Pool{}
	caller := &Caller{Pool: pool}
	var wg sync.WaitGroup
	for i := 1; i <= 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var out echoReq
			// Successes, sheds and timeouts are all fine; the invariant
			// under test is cleanup, not outcome.
			_ = caller.Call(context.Background(), srv.Addr(), "echo", echoReq{N: i}, &out, 200*time.Millisecond)
		}(i)
	}
	time.Sleep(50 * time.Millisecond)
	close(block)
	wg.Wait()
	pool.Close()
	srv.Close()

	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= baseline+1 {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines leaked: baseline %d, now %d\n%s",
				baseline, runtime.NumGoroutine(), truncateStack(string(buf[:n])))
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestIdleDeadlineResetsPerFrame pins the keep-alive contract of long-lived
// connections: each frame pushes the idle deadline forward, so a connection
// trickling requests slower than the deadline-from-accept stays up, while a
// truly idle one is reaped — and the pool transparently redials after the
// reap.
func TestIdleDeadlineResetsPerFrame(t *testing.T) {
	srv, sm := echoServer(t, ServerConfig{IdleDeadline: 800 * time.Millisecond}, nil, nil)
	pool := &Pool{}
	defer pool.Close()
	caller := &Caller{
		Pool: pool,
		// The post-reap call races the client noticing the server-side
		// close; a retry absorbs either interleaving.
		Retry: RetryPolicy{MaxAttempts: 3, BaseDelay: time.Millisecond, MaxDelay: 4 * time.Millisecond},
	}

	call := func(i int) error {
		var out echoReq
		return caller.CallRetry(context.Background(), srv.Addr(), "echo", echoReq{N: i}, &out, time.Second)
	}
	// Four calls 400 ms apart: total span ~1.6 s, far beyond the deadline,
	// but each frame resets it, so the single pooled connection survives.
	for i := 1; i <= 4; i++ {
		if err := call(i); err != nil {
			t.Fatalf("keep-alive call %d: %v", i, err)
		}
		time.Sleep(400 * time.Millisecond)
	}
	if got := sm.wireStats().BinaryConns; got != 1 {
		t.Fatalf("server saw %d connections during keep-alive, want 1", got)
	}

	// Go fully idle past the deadline: the server reaps the connection, and
	// the next call succeeds over a fresh dial.
	time.Sleep(2 * time.Second)
	if err := call(6); err != nil {
		t.Fatalf("call after idle reap: %v", err)
	}
	if got := sm.wireStats().BinaryConns; got != 2 {
		t.Fatalf("server saw %d connections after idle reap, want 2 (reap + redial)", got)
	}
}

func truncateStack(s string) string {
	if len(s) > 8000 {
		return s[:8000] + "\n...[truncated]"
	}
	return s
}

// TestPoolConcurrentFirstUseDialsOnce starts 32 calls at once on a fresh
// pool: they must share one dial and one connection, not each dial and
// leave the pool holding every connection past MaxPerHost.
func TestPoolConcurrentFirstUseDialsOnce(t *testing.T) {
	srv, sm := echoServer(t, ServerConfig{}, nil, nil)
	d := &countingDialer{}
	pool := &Pool{Dialer: d}
	defer pool.Close()
	caller := &Caller{Pool: pool}

	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := 1; i <= 32; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			var out echoReq
			if err := caller.Call(context.Background(), srv.Addr(), "echo", echoReq{N: i}, &out, 5*time.Second); err != nil || out.N != 2*i {
				t.Errorf("call %d: %v (got %d)", i, err, out.N)
			}
		}(i)
	}
	close(start)
	wg.Wait()
	pool.mu.Lock()
	pooled := len(pool.conns[srv.Addr()])
	pool.mu.Unlock()
	if n := d.count(); n != 1 || pooled != 1 {
		t.Fatalf("32 concurrent first calls dialed %d times and left %d pooled connections, want 1 and 1", n, pooled)
	}
	if got := sm.wireStats().BinaryConns; got != 1 {
		t.Fatalf("server saw %d binary conns, want 1", got)
	}
}

// slowEcho serves the doubling echo over loopback after the delay its
// request names in milliseconds; N == -1 blocks until release closes.
func slowEcho(t *testing.T, release <-chan struct{}) *Server {
	t.Helper()
	srv, err := NewServerConfig("127.0.0.1:0", func(req Request) (interface{}, error) {
		var in struct {
			N       int `json:"n"`
			DelayMS int `json:"delay_ms"`
		}
		if err := json.Unmarshal(req.Payload, &in); err != nil {
			return nil, err
		}
		if in.N == -1 {
			<-release
		}
		time.Sleep(time.Duration(in.DelayMS) * time.Millisecond)
		return echoReq{N: 2 * in.N}, nil
	}, ServerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv
}

type slowReq struct {
	N       int `json:"n"`
	DelayMS int `json:"delay_ms"`
}

// TestPoolLateResponseNeverReachesNextCall times out a call, lets its
// response arrive while the next call on the same connection is waiting,
// and checks that the next call gets its own answer: the timed-out call's
// reply slot is never handed to a later call.
func TestPoolLateResponseNeverReachesNextCall(t *testing.T) {
	release := make(chan struct{})
	srv := slowEcho(t, release)
	pool := &Pool{}
	defer pool.Close()
	caller := &Caller{Pool: pool}
	ctx := context.Background()

	var out echoReq
	if err := caller.Call(ctx, srv.Addr(), "echo", slowReq{N: -1}, &out, 50*time.Millisecond); !isTransport(err) {
		t.Fatalf("blocked call returned %v, want a timeout", err)
	}
	for i := 1; i <= 20; i++ {
		if i == 1 {
			// The late response (-2) is written while this call waits.
			close(release)
		}
		out = echoReq{}
		if err := caller.Call(ctx, srv.Addr(), "echo", slowReq{N: i, DelayMS: 20}, &out, 2*time.Second); err != nil {
			t.Fatalf("call %d after the timeout: %v", i, err)
		}
		if out.N != 2*i {
			t.Fatalf("call %d got %d, want %d: a late response reached it", i, out.N, 2*i)
		}
	}
}

// TestPoolCallAfterTimeoutGetsFullDeadline races replies against their
// deadlines, so recycled timers are stopped both before and after firing,
// then checks that every later call still gets its full timeout: a stale
// tick on a reused timer would fail it at once.
func TestPoolCallAfterTimeoutGetsFullDeadline(t *testing.T) {
	srv := slowEcho(t, nil)
	pool := &Pool{}
	defer pool.Close()
	caller := &Caller{Pool: pool}
	ctx := context.Background()
	for i := 0; i < 200; i++ {
		var out echoReq
		_ = caller.Call(ctx, srv.Addr(), "echo", slowReq{N: i, DelayMS: 1}, &out, time.Millisecond)
	}
	for i := 1; i <= 10; i++ {
		var out echoReq
		start := time.Now()
		if err := caller.Call(ctx, srv.Addr(), "echo", slowReq{N: i, DelayMS: 30}, &out, 2*time.Second); err != nil {
			t.Fatalf("call %d failed after %v: %v", i, time.Since(start), err)
		}
		if out.N != 2*i {
			t.Fatalf("call %d got %d, want %d", i, out.N, 2*i)
		}
	}
}

// pipeNet is an in-memory transport: every dial is a net.Pipe whose far
// end is served by the current server. restart swaps in a new server and
// leaves the old connections half-dead, the way a restarted peer's look
// before the reader has noticed: writes fail, reads just wait.
type pipeNet struct {
	mu    sync.Mutex
	srv   *Server
	conns []*staleConn
	dials int
}

type staleConn struct {
	net.Conn
	dead atomic.Bool
}

func (c *staleConn) Write(p []byte) (int, error) {
	if c.dead.Load() {
		return 0, net.ErrClosed
	}
	return c.Conn.Write(p)
}

func (p *pipeNet) DialTimeout(network, addr string, timeout time.Duration) (net.Conn, error) {
	client, server := net.Pipe()
	p.mu.Lock()
	defer p.mu.Unlock()
	p.dials++
	go p.srv.ServeConn(server)
	c := &staleConn{Conn: client}
	p.conns = append(p.conns, c)
	return c, nil
}

func (p *pipeNet) restart(srv *Server) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, c := range p.conns {
		c.dead.Store(true)
	}
	p.srv = srv
}

// TestPoolRedialsStaleConnWithinOneAttempt restarts the server behind a
// pooled connection: the next single-attempt call finds the connection dead
// before its frame could be written, redials and succeeds, in one attempt.
func TestPoolRedialsStaleConnWithinOneAttempt(t *testing.T) {
	echo := func(req Request) (interface{}, error) {
		var in echoReq
		if err := json.Unmarshal(req.Payload, &in); err != nil {
			return nil, err
		}
		return echoReq{N: 2 * in.N}, nil
	}
	pn := &pipeNet{srv: ServeListener(nil, echo, ServerConfig{})}
	pool := &Pool{Dialer: pn}
	defer pool.Close()
	caller := &Caller{Pool: pool}
	ctx := context.Background()
	var out echoReq
	if err := caller.Call(ctx, "peer", "echo", echoReq{N: 1}, &out, time.Second); err != nil {
		t.Fatal(err)
	}
	pn.restart(ServeListener(nil, echo, ServerConfig{}))
	if err := caller.Call(ctx, "peer", "echo", echoReq{N: 2}, &out, time.Second); err != nil || out.N != 4 {
		t.Fatalf("call after the restart: %v (got %d), want 4 from the redialed connection", err, out.N)
	}
	if pn.dials != 2 {
		t.Fatalf("dials = %d, want 2 (first use, redial)", pn.dials)
	}
}

// TestPoolDoesNotResendWrittenKill has a server read a kill's frame whole
// and then drop the connection: the frame left, so it may have run, and the
// call must fail rather than send the kill a second time.
func TestPoolDoesNotResendWrittenKill(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	frames := make(chan Frame, 4)
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			f, err := DecodeFrame(bufio.NewReader(conn), 0)
			if err == nil {
				frames <- f
			}
			conn.Close()
		}
	}()
	d := &countingDialer{}
	caller := &Caller{Pool: &Pool{Dialer: d}}
	defer caller.Pool.Close()
	err = caller.Call(context.Background(), ln.Addr().String(), msgKillJob, JobStatusReq{JobID: "j1"}, nil, 2*time.Second)
	if !isTransport(err) {
		t.Fatalf("kill on a connection that died after the frame left returned %v, want a transport error", err)
	}
	if f := <-frames; f.Type != msgKillJob {
		t.Fatalf("server read %q, want %q", f.Type, msgKillJob)
	}
	if n := d.count(); n != 1 || len(frames) != 0 {
		t.Fatalf("the kill was resent: %d dials, %d more frames", n, len(frames))
	}
}

// allocEcho answers every request with a QueryTR-sized payload.
func allocEcho(Request) (interface{}, error) {
	return QueryTRResp{TR: 0.93, HistoryWindows: 12, CurrentState: "S1", Predictor: "SMP"}, nil
}

// TestPoolWarmCallAllocCeiling is the tripwire for the pooled call's
// per-message setup: a warm call over an in-memory connection, client and
// server together, must not go back to a fresh request frame, response
// frame, reply channel, timer, frame task or JSON decoder state per call.
// Measured on linux/amd64 with go 1.24: 11 allocations per call, 13 while
// each end read its frame head through io.ReadFull, against 23
// with a json.Marshal and a json.Unmarshal at each end and a closure, a
// payload and a type string per served frame, and 35 before frames, reply
// slots and timers were recycled.
func TestPoolWarmCallAllocCeiling(t *testing.T) {
	if raceDetector {
		t.Skip("sync.Pool drops reused slots under -race")
	}
	pn := &pipeNet{srv: ServeListener(nil, allocEcho, ServerConfig{})}
	caller := &Caller{Pool: &Pool{Dialer: pn}}
	defer caller.Pool.Close()
	ctx := context.Background()
	req := QueryTRReq{LengthSeconds: 3600, GuestMemMB: 100}
	var out QueryTRResp
	call := func() {
		if err := caller.Call(ctx, "peer", MsgQueryTR, req, &out, 5*time.Second); err != nil {
			t.Fatal(err)
		}
	}
	call()
	if n := testing.AllocsPerRun(500, call); n > 14 {
		t.Fatalf("a warm pooled call allocates %.1f times, want <= 14", n)
	}
}

// pipeNets routes each dial to the pipeNet serving its address.
type pipeNets map[string]*pipeNet

func (m pipeNets) DialTimeout(network, addr string, timeout time.Duration) (net.Conn, error) {
	pn, ok := m[addr]
	if !ok {
		return nil, fmt.Errorf("no server at %q", addr)
	}
	return pn.DialTimeout(network, addr, timeout)
}

// warmQueryAllocs runs call until a node's accuracy tracker has filled its
// pending ring (4 096 entries, eight a query), as on any node that has served
// for a while, and then counts the allocations of one more call.
func warmQueryAllocs(call func()) float64 {
	for i := 0; i < 600; i++ {
		call()
	}
	return testing.AllocsPerRun(200, call)
}

// TestServedQueryTRAllocCeiling is the tripwire for a served query-tr: a
// warm pooled call to a gateway behind Gateway.Handler() — client, frame,
// serving shell, route row, cached answer and encode together. The row's
// request and response come from its pools, so the served side allocates
// only the goroutine closure per frame. Measured on linux/amd64 with go
// 1.24: 9 allocations per call, six of them net.Pipe's deadline timers,
// against 13 with the row's request and boxed response on the heap and the
// frame head read through io.ReadFull.
func TestServedQueryTRAllocCeiling(t *testing.T) {
	if raceDetector {
		t.Skip("sync.Pool drops reused slots under -race")
	}
	clock := simclock.NewVirtual(time.Date(2005, 9, 16, 8, 30, 0, 0, time.UTC))
	node := testNode(t, clock, historyMachine("lab-01", 25, 9))
	node.Gateway.Record(clock.Now(), sample(5, 400))
	pn := &pipeNet{srv: ServeListener(nil, node.Gateway.Handler(), ServerConfig{})}
	caller := &Caller{Pool: &Pool{Dialer: pn}}
	defer caller.Pool.Close()
	ctx := context.Background()
	req := QueryTRReq{LengthSeconds: 3600, GuestMemMB: 100}
	var out QueryTRResp
	n := warmQueryAllocs(func() {
		if err := caller.Call(ctx, "lab-01", MsgQueryTR, req, &out, 5*time.Second); err != nil {
			t.Fatal(err)
		}
	})
	if n > 12 {
		t.Fatalf("a warm served query-tr allocates %.1f times, want <= 12", n)
	}
}

// TestServedTracedQueryTRAllocCeiling is TestServedQueryTRAllocCeiling for
// a frame that carries a sampled trace link, served by a node that records
// no spans of its own: carrying the link from the frame to the serving shell
// must cost nothing. Measured on linux/amd64 with go 1.24: 9 allocations per
// call, as untraced, against 14 when the server turned the frame's 16-byte
// link into a TraceHeader of two hex strings and the shell parsed them back.
func TestServedTracedQueryTRAllocCeiling(t *testing.T) {
	if raceDetector {
		t.Skip("sync.Pool drops reused slots under -race")
	}
	clock := simclock.NewVirtual(time.Date(2005, 9, 16, 8, 30, 0, 0, time.UTC))
	node := testNode(t, clock, historyMachine("lab-01", 25, 9))
	node.Gateway.Record(clock.Now(), sample(5, 400))
	pn := &pipeNet{srv: ServeListener(nil, node.Gateway.Handler(), ServerConfig{})}
	pool := &Pool{Dialer: pn}
	defer pool.Close()
	link := otrace.Link{TraceID: 0x5eed, SpanID: 0xfeed, Sampled: true}
	req := QueryTRReq{LengthSeconds: 3600, GuestMemMB: 100}
	var out QueryTRResp
	n := warmQueryAllocs(func() {
		if err := pool.call(link, "lab-01", MsgQueryTR, req, &out, 5*time.Second); err != nil {
			t.Fatal(err)
		}
	})
	if n > 9 {
		t.Fatalf("a warm traced query-tr allocates %.1f times, want <= 9", n)
	}
}

// TestForwardedFedQueryTRAllocCeiling is the same tripwire one hop further:
// a fed-query-tr entering a peer that does not hold the machine, forwarded
// to its owner and served by the machine's gateway, every hop on a warm
// pooled connection. Measured on linux/amd64 with go 1.24: 27 allocations
// per call, against 45 with each row's request and response on the heap,
// the forward's three interface boxes and a fresh candidate slice.
func TestForwardedFedQueryTRAllocCeiling(t *testing.T) {
	if raceDetector {
		t.Skip("sync.Pool drops reused slots under -race")
	}
	clock := simclock.NewVirtual(time.Date(2005, 9, 16, 8, 30, 0, 0, time.UTC))
	node := testNode(t, clock, historyMachine("lab-01", 25, 9))
	node.Gateway.Record(clock.Now(), sample(5, 400))
	nets := pipeNets{"lab-01": {srv: ServeListener(nil, node.Gateway.Handler(), ServerConfig{})}}
	ring := []Peer{{ID: "fed0", Addr: "fed0"}, {ID: "fed1", Addr: "fed1"}}
	peers := make(map[string]*FedGateway)
	for _, self := range ring {
		gw, err := NewFedGateway(FedConfig{Self: self, Peers: ring, Replicas: -1, Caller: &Caller{Dialer: nets}, Clock: clock})
		if err != nil {
			t.Fatal(err)
		}
		peers[self.ID] = gw
		nets[self.Addr] = &pipeNet{srv: ServeListener(nil, gw.Handler(), ServerConfig{})}
	}
	owner := peers["fed0"].Candidates("lab-01")[0].ID
	entry := "fed0"
	if owner == entry {
		entry = "fed1"
	}
	regTTL(t, peers[owner], "lab-01", "lab-01", 0)
	caller := &Caller{Pool: &Pool{Dialer: nets}}
	defer caller.Pool.Close()
	ctx := context.Background()
	req := FedQueryTRReq{Machine: "lab-01", Query: QueryTRReq{LengthSeconds: 3600, GuestMemMB: 100}}
	var out QueryTRResp
	n := warmQueryAllocs(func() {
		if err := caller.Call(ctx, entry, msgFedQueryTR, req, &out, 5*time.Second); err != nil {
			t.Fatal(err)
		}
	})
	if st := peers[entry].RingStats(); st.Forwarded == 0 {
		t.Fatalf("entry peer %s forwarded nothing: %+v", entry, st)
	}
	if n > 30 {
		t.Fatalf("a warm forwarded fed-query-tr allocates %.1f times, want <= 30", n)
	}
}

// TestDialRPCExchangeAllocCeiling is the tripwire for one dial-per-RPC JSON
// exchange, the in-memory dial and the server included: the request line is
// encoded into a recycled buffer and goes out in one Write, the response
// line is read through the pooled reader, and both ends decode and encode
// through the recycled JSON codec into recycled buffers. Measured on
// linux/amd64 with go 1.24: 35 allocations per call, against 50-55 with a
// json.Marshal and a json.Unmarshal at each end, and 63-65 with a
// json.Encoder per request and a json.Decoder per response.
func TestDialRPCExchangeAllocCeiling(t *testing.T) {
	if raceDetector {
		t.Skip("sync.Pool drops pooled readers under -race")
	}
	pn := &pipeNet{srv: ServeListener(nil, allocEcho, ServerConfig{})}
	caller := &Caller{Dialer: pn}
	ctx := context.Background()
	req := QueryTRReq{LengthSeconds: 3600, GuestMemMB: 100}
	var out QueryTRResp
	call := func() {
		if err := caller.Call(ctx, "machine", MsgQueryTR, req, &out, 5*time.Second); err != nil {
			t.Fatal(err)
		}
	}
	call()
	if n := testing.AllocsPerRun(500, call); n > 45 {
		t.Fatalf("a dial-per-RPC exchange allocates %.1f times, want <= 45", n)
	}
}

// TestOversizedFrameAnsweredNotFatal sends a request frame over the
// server's MaxRequestBytes on a pooled connection that also carries a call
// in progress. The oversized call must get one non-retryable "request too
// large" answer, the other call must still succeed, and the connection must
// survive: one dial in all.
func TestOversizedFrameAnsweredNotFatal(t *testing.T) {
	block, entered := make(chan struct{}), make(chan struct{}, 1)
	srv, _ := echoServer(t, ServerConfig{MaxRequestBytes: 1 << 10}, block, entered)
	d := &countingDialer{}
	reg := obs.NewRegistry()
	attempts := reg.Counter("attempts", "attempts")
	caller := &Caller{
		Pool:    &Pool{Dialer: d},
		Retry:   RetryPolicy{MaxAttempts: 3, BaseDelay: time.Millisecond},
		Metrics: &CallerMetrics{Attempts: attempts},
	}
	defer caller.Pool.Close()
	ctx := context.Background()

	parked := make(chan error, 1)
	go func() {
		var out echoReq
		err := caller.Call(ctx, srv.Addr(), "echo", echoReq{N: 21}, &out, 5*time.Second)
		if err == nil && out.N != 42 {
			err = fmt.Errorf("echo answered %d, want 42", out.N)
		}
		parked <- err
	}()
	<-entered
	before := attempts.Value()

	big := map[string]string{"pad": strings.Repeat("x", 4<<10)}
	err := caller.CallRetry(ctx, srv.Addr(), "echo", big, nil, 2*time.Second)
	var re *remoteError
	if !errors.As(err, &re) || re.Msg != "request too large" || re.Code != "" {
		t.Fatalf("an oversized frame returned %v, want the remote error \"request too large\"", err)
	}
	if n := attempts.Value() - before; n != 1 {
		t.Fatalf("the oversized call took %d attempts, want 1", n)
	}
	close(block)
	if err := <-parked; err != nil {
		t.Fatalf("the call pipelined beside the oversized frame failed: %v", err)
	}
	var out echoReq
	if err := caller.Call(ctx, srv.Addr(), "echo", echoReq{N: 2}, &out, 5*time.Second); err != nil || out.N != 4 {
		t.Fatalf("a call after the oversized frame returned %v (%d), want 4", err, out.N)
	}
	if n := d.count(); n != 1 {
		t.Fatalf("%d dials, want 1: the oversized frame cost the connection", n)
	}
}

// ownedReq is a request whose reply must come back byte for byte: its ID
// and a pad of varying length, a few of them past poolBufMax.
type ownedReq struct {
	ID  int    `json:"id"`
	Pad string `json:"pad"`
}

// TestRequestPayloadOwnership sends many concurrent calls with distinct
// payloads to a handler that echoes its request payload after yielding, over
// one pooled binary connection and over the JSON loop (a connection per
// call). Every reply must equal its own request: no payload buffer may be
// reused while its handler runs or before its response is encoded.
func TestRequestPayloadOwnership(t *testing.T) {
	srv, err := NewServerConfig("127.0.0.1:0", func(req Request) (interface{}, error) {
		runtime.Gosched()
		return json.RawMessage(append([]byte(nil), req.Payload...)), nil
	}, ServerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	pool := &Pool{}
	defer pool.Close()
	for _, tc := range []struct {
		name   string
		caller *Caller
	}{{"binary", &Caller{Pool: pool}}, {"json", &Caller{}}} {
		t.Run(tc.name, func(t *testing.T) {
			const workers, calls = 16, 40
			var wg sync.WaitGroup
			errs := make(chan error, workers)
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := 0; i < calls; i++ {
						id := w*calls + i
						in := ownedReq{ID: id, Pad: strings.Repeat(string(rune('a'+id%26)), (id*97)%(5<<10))}
						var out ownedReq
						if err := tc.caller.Call(context.Background(), srv.Addr(), "echo", in, &out, 5*time.Second); err != nil {
							errs <- err
							return
						}
						if out != in {
							errs <- fmt.Errorf("call %d got the reply of call %d (pad %d bytes, want %d)", id, out.ID, len(out.Pad), len(in.Pad))
							return
						}
					}
				}(w)
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Error(err)
			}
		})
	}
}

// addrNet is an in-memory transport for the pool-bound tests: every dial is
// a net.Pipe served by one Server, counted per address.
type addrNet struct {
	srv   *Server
	mu    sync.Mutex
	dials map[string]int
}

func (n *addrNet) DialTimeout(network, addr string, timeout time.Duration) (net.Conn, error) {
	n.mu.Lock()
	if n.dials == nil {
		n.dials = make(map[string]int)
	}
	n.dials[addr]++
	n.mu.Unlock()
	client, server := net.Pipe()
	go n.srv.ServeConn(server)
	return client, nil
}

func (n *addrNet) dialsTo(addr string) int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.dials[addr]
}

// boundPool returns a Caller over a Pool timed on a virtual clock, as a
// FedGateway builds it, dialing an addrNet whose handler parks "park"
// requests until release closes.
func boundPool(t *testing.T) (*Caller, *simclock.Virtual, *addrNet, chan struct{}) {
	t.Helper()
	release := make(chan struct{})
	srv := ServeListener(nil, func(req Request) (interface{}, error) {
		if req.Type == "park" {
			<-release
		}
		return echoReq{N: 1}, nil
	}, ServerConfig{})
	n := &addrNet{srv: srv}
	clk := simclock.NewVirtual(time.Date(2005, 9, 2, 8, 30, 0, 0, time.UTC))
	caller := &Caller{Pool: &Pool{Dialer: n, clock: clk}}
	t.Cleanup(func() { caller.Pool.Close(); srv.Close() })
	return caller, clk, n, release
}

// pooledConn returns the pool's connection to addr, nil when it holds none.
func pooledConn(p *Pool, addr string) *muxConn {
	p.mu.Lock()
	defer p.mu.Unlock()
	if list := p.conns[addr]; len(list) > 0 {
		return list[0]
	}
	return nil
}

// goroutinesIn counts the goroutines whose stack passes through fn.
func goroutinesIn(fn string) int {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	n := 0
	for _, g := range strings.Split(string(buf), "\n\n") {
		if strings.Contains(g, fn) {
			n++
		}
	}
	return n
}

// busy reports whether a call is pending on m.
func busy(m *muxConn) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.pending) > 0
}

func callOK(t *testing.T, c *Caller, addr, typ string) {
	t.Helper()
	var out echoReq
	if err := c.Call(context.Background(), addr, typ, nil, &out, 5*time.Second); err != nil || out.N != 1 {
		t.Fatalf("call to %s: %v (answer %d)", addr, err, out.N)
	}
}

// TestPoolClosesIdleConn lets a pooled connection sit idle past poolIdleMax
// on the pool's virtual clock: the next call, to another address,
// closes it, its reader and flusher exit, and a call back to it redials.
// One idle exactly poolIdleMax is kept.
func TestPoolClosesIdleConn(t *testing.T) {
	caller, clk, n, _ := boundPool(t)
	callOK(t, caller, "a", "echo")
	a := pooledConn(caller.Pool, "a")
	clk.Advance(poolIdleMax)
	callOK(t, caller, "b", "echo")
	if a.isDead() {
		t.Fatal("a connection idle exactly poolIdleMax was closed")
	}
	readers, flushers := goroutinesIn("(*muxConn).readLoop"), goroutinesIn("(*batchWriter).loop")
	clk.Advance(time.Second)
	callOK(t, caller, "b", "echo")
	if !a.isDead() || pooledConn(caller.Pool, "a") != nil {
		t.Fatal("a connection idle past poolIdleMax survived the next call")
	}
	// a's reader exits, and its flushers at both ends.
	deadline := time.Now().Add(5 * time.Second)
	for goroutinesIn("(*muxConn).readLoop") > readers-1 || goroutinesIn("(*batchWriter).loop") > flushers-2 {
		if time.Now().After(deadline) {
			t.Fatalf("%d pool readers and %d flushers left, want %d and %d", goroutinesIn("(*muxConn).readLoop"), goroutinesIn("(*batchWriter).loop"), readers-1, flushers-2)
		}
		time.Sleep(time.Millisecond)
	}
	callOK(t, caller, "a", "echo")
	if got := n.dialsTo("a"); got != 2 {
		t.Fatalf("%d dials to a, want 2: the idle close and one redial", got)
	}
}

// TestPoolEvictsLeastRecentlyUsed fills a pool to poolMaxConns, uses the
// first connection again, and dials one more: the second connection, now
// the least recently used, is the one closed.
func TestPoolEvictsLeastRecentlyUsed(t *testing.T) {
	caller, _, _, _ := boundPool(t)
	p := caller.Pool
	addr := func(i int) string { return fmt.Sprintf("m%d", i) }
	conns := make([]*muxConn, poolMaxConns)
	for i := range conns {
		callOK(t, caller, addr(i), "echo")
		conns[i] = pooledConn(p, addr(i))
	}
	callOK(t, caller, addr(0), "echo")
	callOK(t, caller, addr(poolMaxConns), "echo")
	for i, m := range conns {
		if m.isDead() != (i == 1) {
			t.Errorf("connection %d dead = %v; only connection 1, the least recently used, may be closed", i, m.isDead())
		}
	}
	p.mu.Lock()
	open := p.open
	p.mu.Unlock()
	if open != poolMaxConns {
		t.Fatalf("pool holds %d connections, want %d", open, poolMaxConns)
	}
}

// TestPoolKeepsBusyConn parks a call on the pool's least recently used
// connection, then lets it fall idle and pushes the pool past its cap: the
// connection with the pending call is neither closed as idle nor evicted,
// and the call completes on it.
func TestPoolKeepsBusyConn(t *testing.T) {
	caller, clk, n, release := boundPool(t)
	p := caller.Pool
	parked := make(chan error, 1)
	go func() {
		parked <- caller.Call(context.Background(), "slow", "park", nil, nil, 5*time.Second)
	}()
	deadline := time.Now().Add(5 * time.Second)
	var slow *muxConn
	for slow == nil || !busy(slow) {
		if time.Now().After(deadline) {
			t.Fatal("the parked call never went pending")
		}
		time.Sleep(time.Millisecond)
		slow = pooledConn(p, "slow")
	}
	clk.Advance(2 * poolIdleMax)
	for i := 0; i <= poolMaxConns; i++ {
		callOK(t, caller, fmt.Sprintf("m%d", i), "echo")
	}
	if slow.isDead() || pooledConn(p, "slow") != slow {
		t.Fatal("a connection with a pending call was closed")
	}
	close(release)
	if err := <-parked; err != nil {
		t.Fatalf("the parked call failed: %v", err)
	}
	if got := n.dialsTo("slow"); got != 1 {
		t.Fatalf("%d dials to slow, want 1", got)
	}
}

// TestPoolBoundsFailNoCall runs single-attempt calls from many goroutines
// over three times poolMaxConns addresses while the clock jumps past
// poolIdleMax: the pool closes connections all the while, for idleness and
// over its cap, and never one a call has sent on, so every call succeeds.
func TestPoolBoundsFailNoCall(t *testing.T) {
	caller, clk, _, _ := boundPool(t)
	const workers, calls = 8, 150
	errs := make(chan error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < calls; i++ {
				if w == 0 && i%10 == 0 {
					clk.Advance(poolIdleMax + time.Second)
				}
				var out echoReq
				addr := fmt.Sprintf("m%d", (w*calls+i*7)%(3*poolMaxConns))
				if err := caller.Call(context.Background(), addr, "echo", nil, &out, 5*time.Second); err != nil {
					errs <- fmt.Errorf("call %d of worker %d to %s: %w", i, w, addr, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
