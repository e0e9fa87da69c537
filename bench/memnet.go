package main

import (
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"fgcs/internal/ishare"
)

// memNet is the bench-owned in-memory network of the fed-live workload: an
// ishare.Dialer plus net.Listeners, so the real Server (framing, admission,
// pipelining) runs on it unchanged. Kernel sockets are deliberately kept out
// of that workload: with a dial per RPC, loopback TCP and unix sockets
// spread 7-9 % from run to run on this host.
//
// Connections treat deadlines as no-ops and retain nothing after Close. A
// net.Pipe would keep every closed pipe alive until its deadline timer
// fired, which makes the post-GC heap grow with the number of RPCs made,
// i.e. live_heap_mb a function of speed.
type memNet struct {
	mu        sync.Mutex
	listeners map[string]*memListener
}

func newMemNet() *memNet { return &memNet{listeners: make(map[string]*memListener)} }

type memAddr string

func (a memAddr) Network() string { return "mem" }
func (a memAddr) String() string  { return string(a) }

// Listen opens a listener on addr.
func (n *memNet) Listen(addr string) (net.Listener, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, dup := n.listeners[addr]; dup {
		return nil, fmt.Errorf("memnet: listen %s: address already in use", addr)
	}
	ln := &memListener{net: n, addr: memAddr(addr), conns: make(chan net.Conn), done: make(chan struct{})}
	n.listeners[addr] = ln
	return ln, nil
}

// DialTimeout implements ishare.Dialer. The timeout is ignored: an accept
// loop is either there to take the connection or the listener is closed.
func (n *memNet) DialTimeout(network, addr string, timeout time.Duration) (net.Conn, error) {
	n.mu.Lock()
	ln := n.listeners[addr]
	n.mu.Unlock()
	if ln == nil {
		return nil, fmt.Errorf("memnet: connect %s: connection refused", addr)
	}
	c2s, s2c := newMemPipe(), newMemPipe()
	client := &memConn{r: s2c, w: c2s, addr: ln.addr}
	server := &memConn{r: c2s, w: s2c, addr: ln.addr}
	select {
	case ln.conns <- server:
		return client, nil
	case <-ln.done:
		return nil, fmt.Errorf("memnet: connect %s: connection refused", addr)
	}
}

type memListener struct {
	net   *memNet
	addr  memAddr
	conns chan net.Conn
	done  chan struct{}
	once  sync.Once
}

func (l *memListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.conns:
		return c, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

func (l *memListener) Close() error {
	l.once.Do(func() {
		close(l.done)
		l.net.mu.Lock()
		delete(l.net.listeners, string(l.addr))
		l.net.mu.Unlock()
	})
	return nil
}

func (l *memListener) Addr() net.Addr { return l.addr }

// memPipe is one direction of a connection: an unbounded buffer with
// blocking reads. Writes never block, so a single-write/single-read exchange
// cannot deadlock.
type memPipe struct {
	mu     sync.Mutex
	cond   sync.Cond
	data   []byte
	closed bool
}

func newMemPipe() *memPipe {
	p := &memPipe{}
	p.cond.L = &p.mu
	return p
}

func (p *memPipe) write(b []byte) (int, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return 0, io.ErrClosedPipe
	}
	p.data = append(p.data, b...)
	p.cond.Broadcast()
	return len(b), nil
}

func (p *memPipe) read(b []byte) (int, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for len(p.data) == 0 && !p.closed {
		p.cond.Wait()
	}
	if len(p.data) == 0 {
		return 0, io.EOF
	}
	n := copy(b, p.data)
	p.data = p.data[n:]
	if len(p.data) == 0 {
		p.data = nil // a drained pipe holds no buffer
	}
	return n, nil
}

func (p *memPipe) close() {
	p.mu.Lock()
	p.closed = true
	p.data = nil
	p.cond.Broadcast()
	p.mu.Unlock()
}

// memConn is one endpoint. Closing either endpoint closes both directions,
// like a socket whose peer sees EOF.
type memConn struct {
	r, w *memPipe
	addr memAddr
}

func (c *memConn) Read(b []byte) (int, error)  { return c.r.read(b) }
func (c *memConn) Write(b []byte) (int, error) { return c.w.write(b) }

func (c *memConn) Close() error {
	c.r.close()
	c.w.close()
	return nil
}

func (c *memConn) LocalAddr() net.Addr              { return c.addr }
func (c *memConn) RemoteAddr() net.Addr             { return c.addr }
func (c *memConn) SetDeadline(time.Time) error      { return nil }
func (c *memConn) SetReadDeadline(time.Time) error  { return nil }
func (c *memConn) SetWriteDeadline(time.Time) error { return nil }

// countingDialer meters the connections dialled through it: how many, and
// on their client ends the Write calls and the bytes in both directions. A
// nil inner dialer is the real network.
type countingDialer struct {
	inner                ishare.Dialer
	dials, writes, bytes atomic.Int64
}

func (d *countingDialer) DialTimeout(network, addr string, timeout time.Duration) (net.Conn, error) {
	dial := net.DialTimeout
	if d.inner != nil {
		dial = d.inner.DialTimeout
	}
	c, err := dial(network, addr, timeout)
	if err != nil {
		return nil, err
	}
	d.dials.Add(1)
	return &countingConn{Conn: c, d: d}, nil
}

type countingConn struct {
	net.Conn
	d *countingDialer
}

func (c *countingConn) Write(b []byte) (int, error) {
	n, err := c.Conn.Write(b)
	c.d.writes.Add(1)
	c.d.bytes.Add(int64(n))
	return n, err
}

func (c *countingConn) Read(b []byte) (int, error) {
	n, err := c.Conn.Read(b)
	c.d.bytes.Add(int64(n))
	return n, err
}
