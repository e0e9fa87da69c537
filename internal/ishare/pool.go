package ishare

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net"
	"runtime"
	"sync"
	"time"

	"fgcs/internal/otrace"
)

// Pool holds long-lived multiplexed binary-protocol connections, one (or a
// few) per remote address, shared by every Caller routed through it. Each
// RPC is one request frame with a fresh request ID; responses are matched
// back by ID, so many calls pipeline concurrently on one connection instead
// of paying a dial + handshake each. A connection that fails is discarded
// and every call pending on it gets a transport error; the next call dials
// fresh.
type Pool struct {
	// Dialer defaults to the real network (tests inject faultnet here).
	Dialer Dialer
	// MaxPerHost bounds how many connections the pool keeps per address
	// (default 1 — pipelining makes one connection go a long way).
	MaxPerHost int

	mu     sync.Mutex
	conns  map[string][]*muxConn
	next   map[string]int // round-robin cursor per address
	closed bool
}

func (p *Pool) dialer() Dialer {
	if p.Dialer == nil {
		return netDialer{}
	}
	return p.Dialer
}

func (p *Pool) maxPerHost() int {
	if p.MaxPerHost <= 0 {
		return 1
	}
	return p.MaxPerHost
}

// batchWriter coalesces frame writes from many goroutines into few write
// syscalls: writers append whole frames to a pending buffer and a single
// flusher goroutine writes it out. While the flusher is inside one Write
// syscall, new frames accumulate and leave in the next batch, so batching
// scales with load — a lone frame still flushes immediately, a pipelined
// burst becomes one syscall.
type batchWriter struct {
	conn     net.Conn
	deadline time.Duration // write deadline per flush
	sig      chan struct{} // cap 1: pending data to flush
	done     chan struct{} // closed when the flusher exits
	stop     chan struct{}
	stopOnce sync.Once
	onError  func(error) // invoked once, from the flusher, on write failure

	mu  sync.Mutex
	buf []byte
	err error
}

// batchBacklogMax bounds the pending buffer: a peer that stops draining
// while this much queues is stuck, and the connection is poisoned rather
// than buffering without limit.
const batchBacklogMax = 8 << 20

func newBatchWriter(conn net.Conn, deadline time.Duration, onError func(error)) *batchWriter {
	w := &batchWriter{
		conn:     conn,
		deadline: deadline,
		sig:      make(chan struct{}, 1),
		done:     make(chan struct{}),
		stop:     make(chan struct{}),
		onError:  onError,
	}
	go w.loop()
	return w
}

// enqueue appends one encoded frame for the flusher. It fails fast once the
// writer has seen an error or the backlog cap is exceeded; actual write
// errors surface asynchronously through onError.
func (w *batchWriter) enqueue(frame []byte) error {
	w.mu.Lock()
	if w.err != nil {
		err := w.err
		w.mu.Unlock()
		return err
	}
	if len(w.buf)+len(frame) > batchBacklogMax {
		w.err = fmt.Errorf("ishare: write backlog over %d bytes", batchBacklogMax)
		err := w.err
		w.mu.Unlock()
		w.close()
		if w.onError != nil {
			w.onError(err)
		}
		return err
	}
	w.buf = append(w.buf, frame...)
	w.mu.Unlock()
	select {
	case w.sig <- struct{}{}:
	default:
	}
	return nil
}

func (w *batchWriter) loop() {
	defer close(w.done)
	var out []byte
	for {
		select {
		case <-w.sig:
		case <-w.stop:
			return
		}
		// Give runnable writers one scheduler round to append before the
		// buffer is grabbed: on a loaded machine this turns per-frame wakeups
		// into real batches, and on an idle one it returns immediately.
		runtime.Gosched()
		for {
			w.mu.Lock()
			if w.err != nil || len(w.buf) == 0 {
				w.mu.Unlock()
				break
			}
			out, w.buf = w.buf, out[:0]
			w.mu.Unlock()
			_ = w.conn.SetWriteDeadline(time.Now().Add(w.deadline))
			if _, err := w.conn.Write(out); err != nil {
				w.mu.Lock()
				if w.err == nil {
					w.err = err
				}
				w.mu.Unlock()
				if w.onError != nil {
					w.onError(err)
				}
				return
			}
		}
	}
}

// close stops the flusher; it does not close the connection.
func (w *batchWriter) close() {
	w.stopOnce.Do(func() { close(w.stop) })
}

// poolWriteDeadline bounds one coalesced write; per-call timeouts guard the
// round trip itself, this only collects connections with a wedged peer.
const poolWriteDeadline = 30 * time.Second

// muxConn is one multiplexed connection: frame writes coalesce through a
// batchWriter, a reader goroutine dispatches response frames to the pending
// call registered under their request ID.
type muxConn struct {
	conn net.Conn
	bw   *batchWriter

	mu      sync.Mutex
	pending map[uint64]chan Frame
	nextID  uint64
	dead    bool
	deadErr error
	version byte
}

// roundTrip sends one request frame and waits for its response frame, up to
// timeout. Transport failures poison the connection (all pending calls fail)
// so the pool retires it.
func (m *muxConn) roundTrip(typ string, link otrace.Link, payload []byte, timeout time.Duration) (Frame, error) {
	m.mu.Lock()
	if m.dead {
		err := m.deadErr
		m.mu.Unlock()
		return Frame{}, &transportError{fmt.Errorf("ishare: pooled conn dead: %w", err)}
	}
	m.nextID++
	id := m.nextID
	ch := make(chan Frame, 1)
	m.pending[id] = ch
	m.mu.Unlock()

	buf := AppendRequestFrame(nil, id, typ, link, payload)
	// The frame goes out through the connection's batching flusher; a write
	// failure there poisons the connection asynchronously and this call is
	// woken through its pending channel.
	if werr := m.bw.enqueue(buf); werr != nil {
		m.fail(fmt.Errorf("ishare: send: %w", werr))
		return Frame{}, &transportError{fmt.Errorf("ishare: send: %w", werr)}
	}

	timer := time.NewTimer(timeout)
	defer timer.Stop()
	select {
	case f, ok := <-ch:
		if !ok {
			m.mu.Lock()
			err := m.deadErr
			m.mu.Unlock()
			return Frame{}, &transportError{fmt.Errorf("ishare: receive: %w", err)}
		}
		return f, nil
	case <-timer.C:
		m.mu.Lock()
		delete(m.pending, id)
		m.mu.Unlock()
		// A response that arrives later is dropped by the reader.
		return Frame{}, &transportError{fmt.Errorf("ishare: receive: timeout after %v", timeout)}
	}
}

// readLoop dispatches response frames by request ID until the connection
// dies, then fails every pending call.
func (m *muxConn) readLoop() {
	br := bufio.NewReader(m.conn)
	for {
		f, err := DecodeFrame(br, maxResponseBytes)
		if err != nil {
			m.fail(err)
			return
		}
		m.mu.Lock()
		if m.version == 0 {
			m.version = f.Version
		}
		ch, ok := m.pending[f.ID]
		if ok {
			delete(m.pending, f.ID)
		}
		m.mu.Unlock()
		if ok {
			ch <- f
		}
	}
}

// fail marks the connection dead, closes it, and wakes every pending call
// with the error.
func (m *muxConn) fail(err error) {
	m.mu.Lock()
	if m.dead {
		m.mu.Unlock()
		return
	}
	m.dead = true
	m.deadErr = err
	pending := m.pending
	m.pending = make(map[uint64]chan Frame)
	m.mu.Unlock()
	m.bw.close()
	_ = m.conn.Close()
	for _, ch := range pending {
		close(ch)
	}
}

// isDead reports whether the connection has been poisoned.
func (m *muxConn) isDead() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.dead
}

// get returns a live connection to addr, dialing one if needed within the
// call's timeout. Dead connections are pruned on the way.
func (p *Pool) get(addr string, timeout time.Duration) (*muxConn, error) {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil, &transportError{fmt.Errorf("ishare: pool closed")}
	}
	if p.conns == nil {
		p.conns = make(map[string][]*muxConn)
		p.next = make(map[string]int)
	}
	live := p.conns[addr][:0]
	for _, m := range p.conns[addr] {
		if !m.isDead() {
			live = append(live, m)
		}
	}
	p.conns[addr] = live
	if len(live) >= p.maxPerHost() {
		m := live[p.next[addr]%len(live)]
		p.next[addr]++
		p.mu.Unlock()
		return m, nil
	}
	p.mu.Unlock()

	conn, err := p.dialer().DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, &transportError{fmt.Errorf("ishare: dial %s: %w", addr, err)}
	}
	m := &muxConn{conn: conn, pending: make(map[uint64]chan Frame)}
	m.bw = newBatchWriter(conn, poolWriteDeadline, func(err error) {
		m.fail(fmt.Errorf("ishare: send: %w", err))
	})
	go m.readLoop()

	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		m.fail(fmt.Errorf("ishare: pool closed"))
		return nil, &transportError{fmt.Errorf("ishare: pool closed")}
	}
	p.conns[addr] = append(p.conns[addr], m)
	p.mu.Unlock()
	return m, nil
}

// call performs one binary-protocol RPC through the pool.
func (p *Pool) call(link otrace.Link, addr, typ string, payload, out interface{}, timeout time.Duration) error {
	var raw []byte
	if payload != nil {
		var err error
		raw, err = json.Marshal(payload)
		if err != nil {
			return err
		}
	}
	m, err := p.get(addr, timeout)
	if err != nil {
		return err
	}
	f, err := m.roundTrip(typ, link, raw, timeout)
	if err != nil {
		return err
	}
	if !f.OK {
		re := &RemoteError{Msg: f.Err}
		if f.Overloaded {
			re.Code = CodeOverloaded
		}
		return re
	}
	if out != nil && len(f.Payload) > 0 {
		if err := json.Unmarshal(f.Payload, out); err != nil {
			return &transportError{fmt.Errorf("ishare: decode payload: %w", err)}
		}
	}
	return nil
}

// Negotiated reports the binary protocol version observed on the pooled
// connection to addr (0 when no response has been seen yet or no connection
// exists).
func (p *Pool) Negotiated(addr string) byte {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, m := range p.conns[addr] {
		m.mu.Lock()
		v := m.version
		m.mu.Unlock()
		if v != 0 {
			return v
		}
	}
	return 0
}

// Close tears down every pooled connection; in-flight calls fail with a
// transport error. The pool rejects use after Close.
func (p *Pool) Close() {
	p.mu.Lock()
	p.closed = true
	conns := p.conns
	p.conns = nil
	p.mu.Unlock()
	for _, list := range conns {
		for _, m := range list {
			m.fail(fmt.Errorf("ishare: pool closed"))
		}
	}
}
