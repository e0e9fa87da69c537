package fleetsim

import (
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"fgcs/internal/ishare"
)

// maxLoopRequestBytes caps one in-process request. It is far above the
// production server's cap because a single anti-entropy push at fleet scale
// batches tens of thousands of entries into one request.
const maxLoopRequestBytes = 256 << 20

// loopNet is the fleet's network: an ishare.Dialer that connects callers to
// registered handlers entirely in memory. Every dial hands the server end
// of a fresh in-memory connection to Server.ServeConn on a listener-less
// ishare.Server of its own, so the production server loops — protocol
// sniff, the JSON and the binary request loops — and the full client stack
// (Caller, Pool, FedClient, federation routing) run unmodified on top of
// it, and no server outlives its connection.
//
// The transport keeps two byte meters. Request bytes are a pure function of
// the simulated traffic and therefore belong in the deterministic report;
// response bytes include cumulative cache counters (QueryTRResp) whose
// values depend on scheduling, so they are perf-only.
type loopNet struct {
	mu       sync.Mutex
	handlers map[string]ishare.Handler
	down     map[string]bool
	open     map[*memConn]struct{} // server ends not yet closed, for SetDown

	requests  atomic.Int64
	reqBytes  atomic.Int64
	respBytes atomic.Int64
}

func newLoopNet() *loopNet {
	return &loopNet{
		handlers: make(map[string]ishare.Handler),
		down:     make(map[string]bool),
		open:     make(map[*memConn]struct{}),
	}
}

// Register installs (or replaces) the handler serving addr.
func (ln *loopNet) Register(addr string, h ishare.Handler) {
	ln.mu.Lock()
	defer ln.mu.Unlock()
	ln.handlers[addr] = func(req ishare.Request) (interface{}, error) {
		ln.requests.Add(1)
		return h(req)
	}
}

// SetDown makes dials to addr fail with a connection-refused error (a
// transport error to the Caller, so routing fails over) and severs the
// connections open to it, or restores dialing.
func (ln *loopNet) SetDown(addr string, down bool) {
	ln.mu.Lock()
	defer ln.mu.Unlock()
	ln.down[addr] = down
	for c := range ln.open {
		if down && string(c.addr) == addr {
			c.Close()
		}
	}
}

// close severs every open connection, which ends the goroutines serving
// them and the pooled clients' readers on the far side.
func (ln *loopNet) close() {
	ln.mu.Lock()
	defer ln.mu.Unlock()
	for c := range ln.open {
		c.Close()
	}
}

// DialTimeout implements ishare.Dialer. The connection's server has its
// admission caps lifted out of the way: the fleet models no server
// capacity, and a shed request would make the transcript depend on
// scheduling.
func (ln *loopNet) DialTimeout(network, addr string, timeout time.Duration) (net.Conn, error) {
	ln.mu.Lock()
	h, ok := ln.handlers[addr]
	if !ok || ln.down[addr] {
		ln.mu.Unlock()
		return nil, fmt.Errorf("loopnet: connect %s: connection refused", addr)
	}
	c2s := newMemBuf(&ln.reqBytes)
	s2c := newMemBuf(&ln.respBytes)
	client := &memConn{r: s2c, w: c2s, addr: loopAddr(addr)}
	server := &memConn{r: c2s, w: s2c, addr: loopAddr(addr)}
	ln.open[server] = struct{}{}
	ln.mu.Unlock()
	srv := ishare.ServeListener(nil, h, ishare.ServerConfig{
		MaxRequestBytes: maxLoopRequestBytes,
		MaxInflight:     1 << 20,
		PerConnInflight: 1 << 20,
	})
	go func() {
		srv.ServeConn(server)
		ln.mu.Lock()
		delete(ln.open, server)
		ln.mu.Unlock()
	}()
	return client, nil
}

// RequestBytes returns the bytes written by clients (requests) so far.
func (ln *loopNet) RequestBytes() int64 { return ln.reqBytes.Load() }

// ResponseBytes returns the bytes written by servers (responses) so far.
func (ln *loopNet) ResponseBytes() int64 { return ln.respBytes.Load() }

// Requests returns the number of requests the handlers have served so far.
func (ln *loopNet) Requests() int64 { return ln.requests.Load() }

// memBuf is one direction of an in-memory connection: an unbounded buffer
// with blocking reads. Writes never block, so neither side of a
// connection ever waits on the other to make progress. A drained buffer is
// dropped, so an idle long-lived connection holds no memory.
type memBuf struct {
	mu     sync.Mutex
	cond   *sync.Cond
	data   []byte
	closed bool
	meter  *atomic.Int64
}

func newMemBuf(meter *atomic.Int64) *memBuf {
	b := &memBuf{meter: meter}
	b.cond = sync.NewCond(&b.mu)
	return b
}

func (b *memBuf) write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return 0, net.ErrClosed
	}
	b.data = append(b.data, p...)
	b.meter.Add(int64(len(p)))
	b.cond.Broadcast()
	return len(p), nil
}

func (b *memBuf) read(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for len(b.data) == 0 && !b.closed {
		b.cond.Wait()
	}
	if len(b.data) == 0 {
		return 0, io.EOF
	}
	n := copy(p, b.data)
	b.data = b.data[n:]
	if len(b.data) == 0 {
		b.data = nil
	}
	return n, nil
}

func (b *memBuf) close() {
	b.mu.Lock()
	b.closed = true
	b.cond.Broadcast()
	b.mu.Unlock()
}

// memConn is one endpoint of an in-memory connection.
type memConn struct {
	r, w *memBuf
	addr loopAddr
}

func (c *memConn) Read(p []byte) (int, error)  { return c.r.read(p) }
func (c *memConn) Write(p []byte) (int, error) { return c.w.write(p) }

func (c *memConn) Close() error {
	c.r.close()
	c.w.close()
	return nil
}

func (c *memConn) LocalAddr() net.Addr  { return c.addr }
func (c *memConn) RemoteAddr() net.Addr { return c.addr }

// Deadlines are accepted and ignored: every connection ends with one side
// closing it — a dial-per-RPC client after its exchange, a pooled one when
// its pool or SetDown severs it.
func (c *memConn) SetDeadline(time.Time) error      { return nil }
func (c *memConn) SetReadDeadline(time.Time) error  { return nil }
func (c *memConn) SetWriteDeadline(time.Time) error { return nil }

type loopAddr string

func (a loopAddr) Network() string { return "loop" }
func (a loopAddr) String() string  { return string(a) }
