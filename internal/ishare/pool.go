package ishare

import (
	"bufio"
	"cmp"
	"fmt"
	"net"
	"runtime"
	"slices"
	"sync"
	"time"

	"fgcs/internal/otrace"
	"fgcs/internal/simclock"
)

// Pool holds long-lived multiplexed binary-protocol connections, one (or a
// few) per remote address, shared by every Caller routed through it. Each
// RPC is one request frame with a fresh request ID; responses are matched
// back by ID, so many calls pipeline concurrently on one connection instead
// of paying a dial + handshake each. A connection that fails is discarded
// and every call pending on it gets a transport error; the next call dials
// fresh. Concurrent first calls to an address share one dial.
//
// A pool bounds what it holds, from inside its calls, with no goroutine of
// its own: a call closes every connection idle for over poolIdleMax, and a
// dial past poolMaxConns open connections closes the least recently used
// one. A connection with a call pending is never closed. Idle time is read
// from the wall clock, or from the gateway's clock for a FedGateway's
// machine pool.
type Pool struct {
	// Dialer defaults to the real network (tests inject faultnet here).
	Dialer Dialer
	// MaxPerHost bounds how many connections the pool keeps per address
	// (default 1 — pipelining makes one connection go a long way).
	MaxPerHost int

	clock   simclock.Clock // a FedGateway machine pool's; nil reads the wall clock
	mu      sync.Mutex
	conns   map[string][]*muxConn
	next    map[string]int       // round-robin cursor per address
	dialing map[string]*poolDial // the dial in progress per address
	open    int                  // connections in conns
	uses    uint64               // connections handed out, the LRU order
	sweepAt time.Time            // no connection is idle for over poolIdleMax before this
	closed  bool
}

// poolIdleMax is how long a pooled connection may go unused before a call
// closes it: below the server's 5 min IdleDeadline, so the client closes
// first, and long enough that a connection in steady use is never redialed.
const poolIdleMax = 90 * time.Second

// poolMaxConns caps the connections one pool keeps open. Machines are many:
// a gateway pooling every machine it reached often would keep a
// connection, a reader and a flusher per machine, and as many at the
// machines' servers.
const poolMaxConns = 64

// poolDial is one in-progress dial that later callers to the same address
// wait on instead of dialing again.
type poolDial struct {
	done chan struct{} // closed when the dial has finished
	err  error         // the dial's error, shared with every waiter
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
	// queued counts every byte ever enqueued and sent every byte a Write
	// reported written, both from the start of the connection: a frame
	// whose end offset is past sent never fully left.
	queued, sent int64
}

// batchBacklogMax bounds the pending buffer: a peer that stops draining
// while this much queues is stuck, and the connection is poisoned rather
// than buffering without limit.
const batchBacklogMax = 8 << 20

// poolBufMax is the largest buffer kept for reuse — by a flushed batch
// writer, a recycled call slot or a server's response head. It holds
// every message of the serving path, and nothing bigger: a long-lived
// connection that once carried a bulk message (an anti-entropy push at
// fleet scale) must not keep that much memory for the rest of its life.
const poolBufMax = 4 << 10

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

// enqueue appends a copy of one encoded frame — its head, then its payload
// — for the flusher and returns the frame's end offset in the connection's
// byte stream (see wrote). It fails fast once the writer has seen an error
// or the backlog cap is exceeded; actual write errors surface
// asynchronously through onError.
func (w *batchWriter) enqueue(head, payload []byte) (end int64, err error) {
	w.mu.Lock()
	end = w.queued + int64(len(head)+len(payload))
	if w.err != nil {
		err := w.err
		w.mu.Unlock()
		return end, err
	}
	if len(w.buf)+len(head)+len(payload) > batchBacklogMax {
		w.err = fmt.Errorf("ishare: write backlog over %d bytes", batchBacklogMax)
		err := w.err
		w.mu.Unlock()
		w.close()
		if w.onError != nil {
			w.onError(err)
		}
		return end, err
	}
	w.buf = append(append(w.buf, head...), payload...)
	w.queued = end
	w.mu.Unlock()
	select {
	case w.sig <- struct{}{}:
	default:
	}
	return end, nil
}

// wrote reports whether the bytes up to end (an offset enqueue returned)
// were all written to the connection.
func (w *batchWriter) wrote(end int64) bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.sent >= end
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
			n, err := w.conn.Write(out)
			w.mu.Lock()
			w.sent += int64(n)
			if err != nil && w.err == nil {
				w.err = err
			}
			w.mu.Unlock()
			if err != nil {
				if w.onError != nil {
					w.onError(err)
				}
				return
			}
			if cap(out) > poolBufMax {
				out = nil
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

// callSlot is what one pooled call needs besides its connection: the head
// and payload of its request frame, the buffer its response payload is read
// into, the channel the reply arrives on and its deadline timer. Slots are
// recycled across calls, and a slot is released only by a call that received
// from its reply channel: a response that arrives after its call timed out
// lands on a slot no later call will ever hold.
type callSlot struct {
	head    []byte
	body    []byte
	payload []byte
	reply   chan Frame // cap 1: exactly one reply per registration
	timer   *time.Timer
}

var callSlots = sync.Pool{New: func() interface{} { return &callSlot{reply: make(chan Frame, 1)} }}

// getSlot returns a slot whose timer fires after timeout.
func getSlot(timeout time.Duration) *callSlot {
	s := callSlots.Get().(*callSlot)
	if s.timer == nil {
		s.timer = time.NewTimer(timeout)
	} else {
		s.timer.Reset(timeout)
	}
	return s
}

// release stops the timer and recycles the slot. A timer that fired unread
// is drained here, so Reset starts the next call on a clean channel. One
// that fired with nothing to drain may still be delivering its value, which
// a Reset would let land in the next call: the slot drops it for a new one.
func (s *callSlot) release() {
	if !s.timer.Stop() {
		select {
		case <-s.timer.C:
		default:
			s.timer = nil
		}
	}
	if cap(s.body) > poolBufMax {
		s.body = nil
	}
	if cap(s.payload) > poolBufMax {
		s.payload = nil
	}
	callSlots.Put(s)
}

// muxConn is one multiplexed connection: frame writes coalesce through a
// batchWriter, a reader goroutine dispatches response frames to the pending
// call registered under their request ID.
type muxConn struct {
	conn net.Conn
	addr string
	bw   *batchWriter

	mu      sync.Mutex
	pending map[uint64]*callSlot
	nextID  uint64
	dead    bool
	deadErr error

	used time.Time // when the pool last handed it out (guarded by Pool.mu)
	use  uint64    // the pool's use count then (guarded by Pool.mu)
}

// send registers s under a fresh request ID and queues its request frame,
// returning the ID and the frame's end offset in the byte stream. On a
// connection already dead it fails with s unregistered. A failed enqueue
// poisons the connection, which hands s its dead-connection reply like
// every other pending call.
func (m *muxConn) send(s *callSlot, typ string, link otrace.Link, payload []byte) (id uint64, end int64, err error) {
	m.mu.Lock()
	if m.dead {
		err := m.deadErr
		m.mu.Unlock()
		return 0, 0, &transportError{fmt.Errorf("ishare: pooled conn dead: %w", err)}
	}
	m.nextID++
	id = m.nextID
	m.pending[id] = s
	m.mu.Unlock()
	// The batch writer copies the frame, so s.head is free again on return.
	s.head = appendRequestHead(s.head[:0], id, typ, link, len(payload))
	end, werr := m.bw.enqueue(s.head, payload)
	if werr != nil {
		m.fail(fmt.Errorf("ishare: send: %w", werr))
	}
	return id, end, nil
}

// readLoop dispatches response frames by request ID until the connection
// dies, then fails every pending call. A response's payload is read into
// its call's slot; one whose call has given up is read and dropped.
func (m *muxConn) readLoop() {
	br := bufio.NewReader(m.conn)
	for {
		f, err := decodeFrameHead(br)
		if err != nil {
			m.fail(err)
			return
		}
		m.mu.Lock()
		s := m.pending[f.ID]
		delete(m.pending, f.ID)
		m.mu.Unlock()
		var buf []byte
		if s != nil {
			buf = s.payload[:0]
		}
		f.Payload, err = readLenPrefixed(br, buf, maxResponseBytes, "payload")
		if err != nil {
			if s != nil {
				s.reply <- Frame{}
			}
			m.fail(err)
			return
		}
		if s != nil {
			s.reply <- f
		}
	}
}

// fail marks the connection dead, closes it, and wakes every pending call
// with the zero Frame, the dead-connection reply.
func (m *muxConn) fail(err error) { m.close(err, false) }

// closeIdle closes the connection unless a call is pending on it, and
// reports whether it is dead on return. The check and the close are one
// critical section: a send racing it either registers first, and the
// connection stays, or finds it dead before writing and sends again on a
// fresh one.
func (m *muxConn) closeIdle(err error) bool { return m.close(err, true) }

// close is fail, or closeIdle when idleOnly is set.
func (m *muxConn) close(err error, idleOnly bool) bool {
	m.mu.Lock()
	if m.dead {
		m.mu.Unlock()
		return true
	}
	if idleOnly && len(m.pending) > 0 {
		m.mu.Unlock()
		return false
	}
	m.dead = true
	m.deadErr = err
	pending := m.pending
	m.pending = nil
	m.mu.Unlock()
	m.bw.close()
	_ = m.conn.Close()
	for _, s := range pending {
		s.reply <- Frame{}
	}
	return true
}

// isDead reports whether the connection has been poisoned.
func (m *muxConn) isDead() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.dead
}

// get returns a live connection to addr, dialing one if needed within the
// call's timeout. Dead connections are pruned on the way, idle ones closed
// (see Pool). Only one dial per address is in flight: a caller that finds
// one waits for it instead of dialing again, and shares its error if it
// fails.
func (p *Pool) get(addr string, timeout time.Duration) (*muxConn, error) {
	now := p.now()
	p.mu.Lock()
	if p.conns == nil {
		p.conns = make(map[string][]*muxConn)
		p.next = make(map[string]int)
		p.dialing = make(map[string]*poolDial)
	}
	p.sweep(now)
	for {
		if p.closed {
			p.mu.Unlock()
			return nil, &transportError{fmt.Errorf("ishare: pool closed")}
		}
		p.drop(addr, (*muxConn).isDead)
		live := p.conns[addr]
		d := p.dialing[addr]
		if len(live) >= p.maxPerHost() || (len(live) > 0 && d != nil) {
			m := live[p.next[addr]%len(live)]
			p.next[addr]++
			p.touch(m, now)
			p.mu.Unlock()
			return m, nil
		}
		if d == nil {
			break
		}
		p.mu.Unlock()
		<-d.done
		if d.err != nil {
			return nil, d.err
		}
		p.mu.Lock()
	}
	d := &poolDial{done: make(chan struct{})}
	p.dialing[addr] = d
	p.mu.Unlock()

	m, err := p.dial(addr, timeout)
	p.mu.Lock()
	delete(p.dialing, addr)
	if err == nil && p.closed {
		m.fail(fmt.Errorf("ishare: pool closed"))
		m, err = nil, &transportError{fmt.Errorf("ishare: pool closed")}
	}
	if err == nil {
		p.touch(m, now)
		p.conns[addr] = append(p.conns[addr], m)
		if p.open++; p.open > poolMaxConns {
			p.evict(m)
		}
	}
	p.mu.Unlock()
	d.err = err
	close(d.done)
	return m, err
}

// now reads the pool's clock.
func (p *Pool) now() time.Time {
	if p.clock != nil {
		return p.clock.Now()
	}
	return time.Now()
}

// reap closes the connections idle for over poolIdleMax, as a call does,
// for a caller that passes the pool by.
func (p *Pool) reap() {
	now := p.now()
	p.mu.Lock()
	p.sweep(now)
	p.mu.Unlock()
}

// touch marks m used now, the most recently used connection. Called with
// p.mu held.
func (p *Pool) touch(m *muxConn, now time.Time) {
	p.uses++
	m.used, m.use = now, p.uses
}

// drop forgets the connections to addr that gone reports true for, closing
// none. Called with p.mu held.
func (p *Pool) drop(addr string, gone func(m *muxConn) bool) {
	list := p.conns[addr]
	live := slices.DeleteFunc(list, gone)
	p.open -= len(list) - len(live)
	if len(live) == 0 {
		delete(p.conns, addr)
		delete(p.next, addr)
		return
	}
	p.conns[addr] = live
}

// sweep closes the connections idle for over poolIdleMax once sweepAt has
// passed, then sets sweepAt to when the next one can be. Called with p.mu
// held.
func (p *Pool) sweep(now time.Time) {
	if !now.After(p.sweepAt) {
		return
	}
	p.sweepAt = now.Add(poolIdleMax)
	for addr := range p.conns {
		p.drop(addr, func(m *muxConn) bool {
			deadline := m.used.Add(poolIdleMax)
			if now.After(deadline) {
				return m.closeIdle(fmt.Errorf("ishare: pooled conn idle"))
			}
			if deadline.Before(p.sweepAt) {
				p.sweepAt = deadline
			}
			return false
		})
	}
}

// evict closes the least recently used connection with no call pending,
// other than keep, to bring the pool back to poolMaxConns. Called with p.mu
// held.
func (p *Pool) evict(keep *muxConn) {
	var lru []*muxConn
	for _, list := range p.conns {
		for _, m := range list {
			if m != keep {
				lru = append(lru, m)
			}
		}
	}
	slices.SortFunc(lru, func(a, b *muxConn) int { return cmp.Compare(a.use, b.use) })
	for _, victim := range lru {
		if victim.closeIdle(fmt.Errorf("ishare: pool over %d connections", poolMaxConns)) {
			p.drop(victim.addr, func(m *muxConn) bool { return m == victim })
			return
		}
	}
}

// dial opens one multiplexed connection to addr and starts its reader.
func (p *Pool) dial(addr string, timeout time.Duration) (*muxConn, error) {
	conn, err := p.dialer().DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, &transportError{fmt.Errorf("ishare: dial %s: %w", addr, err)}
	}
	m := &muxConn{conn: conn, addr: addr, pending: make(map[uint64]*callSlot)}
	m.bw = newBatchWriter(conn, poolWriteDeadline, func(err error) {
		m.fail(fmt.Errorf("ishare: send: %w", err))
	})
	go m.readLoop()
	return m, nil
}

// call performs one binary-protocol RPC through the pool.
func (p *Pool) call(link otrace.Link, addr, typ string, payload, out interface{}, timeout time.Duration) error {
	s := getSlot(timeout)
	var raw []byte
	if payload != nil {
		var err error
		if raw, err = appendJSON(s.body[:0], payload); err != nil {
			s.release()
			return err
		}
		s.body = raw
	}
	f, err := p.roundTrip(s, link, addr, typ, raw, timeout)
	if err != nil {
		return err
	}
	defer func() {
		s.payload = f.Payload
		s.release()
	}()
	if !f.OK {
		re := &remoteError{Msg: f.Err}
		if f.Overloaded {
			re.Code = codeOverloaded
		}
		return re
	}
	if out != nil && len(f.Payload) > 0 {
		if err := decodeJSON(f.Payload, out); err != nil {
			return &transportError{fmt.Errorf("ishare: decode payload: %w", err)}
		}
	}
	return nil
}

// roundTrip sends one request frame through s to addr and waits for its
// response until s's timer fires. A connection found dead before the frame
// was fully written is replaced and the frame sent again, once, under the
// same timer: a frame that never fully left cannot have run, so this is
// safe even for a kill, and a peer restart costs a single-attempt caller
// nothing. A frame that did leave is never resent. On success the caller
// owns s until it is done with the frame's payload; on failure s has been
// released, or dropped where a late response may still reach it.
func (p *Pool) roundTrip(s *callSlot, link otrace.Link, addr, typ string, payload []byte, timeout time.Duration) (Frame, error) {
	resent := false
	for {
		m, err := p.get(addr, timeout)
		if err != nil {
			s.release()
			return Frame{}, err
		}
		id, end, err := m.send(s, typ, link, payload)
		if err != nil {
			if !resent {
				resent = true
				continue
			}
			s.release()
			return Frame{}, err
		}
		select {
		case f := <-s.reply:
			if f.Kind != 0 {
				return f, nil
			}
			// The dead connection is closed, so its flusher stops at once;
			// after that the count of written bytes is final.
			<-m.bw.done
			if !resent && !m.bw.wrote(end) {
				resent = true
				continue
			}
			s.release()
			m.mu.Lock()
			err := m.deadErr
			m.mu.Unlock()
			return Frame{}, &transportError{fmt.Errorf("ishare: receive: %w", err)}
		case <-s.timer.C:
			m.mu.Lock()
			delete(m.pending, id)
			m.mu.Unlock()
			return Frame{}, &transportError{fmt.Errorf("ishare: receive: timeout after %v", timeout)}
		}
	}
}

// Close tears down every pooled connection; in-flight calls fail with a
// transport error. The pool rejects use after Close.
func (p *Pool) Close() {
	p.mu.Lock()
	p.closed = true
	conns := p.conns
	p.conns, p.open = nil, 0
	p.mu.Unlock()
	for _, list := range conns {
		for _, m := range list {
			m.fail(fmt.Errorf("ishare: pool closed"))
		}
	}
}
