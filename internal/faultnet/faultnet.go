// Package faultnet is the in-memory network the chaos tests and fleetsim
// run the iShare control plane on, and it fails on a seeded plan: the
// paper's premise is that FGCS resources fail constantly, and this package
// makes the network fail just as reproducibly.
//
// Handle(addr, serve) registers a per-dial server. A connection is an
// unbounded pipe each way with blocking reads; it honors deadlines in wall
// time, and once closed it keeps no timer and no goroutine. The network
// meters the bytes written by dialers and by servers.
//
// Faults: dial refusals, dial latency, mid-stream resets (the peer reads the
// reset once it has drained what came before), partial writes, one flipped
// byte, and Partition/Heal, which refuses dials and severs open connections
// on both ends. Each decision is drawn from a seeded RNG stream keyed by
// (address, operation index): "dial/<addr>" plans the dialing end and
// "accept/<addr>" the server end. Stream faults trigger at planned
// cumulative byte offsets, however the stream is chunked, so the same
// operations in the same order meet the same faults and leave a
// byte-identical Trace. The network's Config plans dialing ends only; a
// per-peer profile (SetPeerConfig) replaces it for dials to that peer and
// also plans the server ends the peer is handed.
package faultnet

import (
	"fmt"
	"io"
	"net"
	"os"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"fgcs/internal/rng"
)

// Config sets fault probabilities. All probabilities are in [0, 1]; the zero
// value injects nothing and passes traffic through untouched.
type Config struct {
	// DialFailProb is the probability a dial attempt is refused outright.
	DialFailProb float64
	// DialLatency, when positive, delays each successful dial by a
	// uniform duration in [0, DialLatency).
	DialLatency time.Duration
	// ResetProb is the probability an established connection is reset
	// mid-stream after a planned byte offset (read or write side, chosen
	// per connection).
	ResetProb float64
	// PartialWriteProb is the probability a connection delivers only a
	// prefix of one write and then fails.
	PartialWriteProb float64
	// CorruptProb is the probability one byte read from the connection is
	// flipped at a planned offset.
	CorruptProb float64
	// MaxFaultOffset bounds the planned byte offset for mid-stream faults
	// (default 128; iShare messages are short JSON lines).
	MaxFaultOffset int
}

// ErrInjected marks every error produced by fault injection, so tests and
// retry layers can tell injected faults from real network trouble.
type ErrInjected struct {
	Op   string // "dial", "read", "write"
	Addr string
	Why  string
}

func (e *ErrInjected) Error() string {
	return fmt.Sprintf("faultnet: injected %s fault to %s: %s", e.Op, e.Addr, e.Why)
}

// connMode is the planned fate of one connection end.
type connMode int

const (
	modeClean connMode = iota
	modeResetRead
	modeResetWrite
	modePartialWrite
	modeCorrupt
)

var modeNames = [...]string{"clean", "reset-read", "reset-write", "partial-write", "corrupt"}

func (m connMode) String() string { return modeNames[m] }

// Network is a deterministic fault-injecting in-memory network, safe for
// concurrent use. Its decision trace is deterministic when the operations
// happen in a deterministic order (e.g. a single-threaded client loop).
type Network struct {
	mu        sync.Mutex
	seed      uint64
	cfg       Config
	servers   map[string]func(net.Conn)
	peers     map[string]*peer
	open      map[*link]struct{}
	trace     []string
	dialFails int

	dialerBytes, serverBytes atomic.Int64
}

// peer is the fault state of one address, kept from its first per-peer
// profile, partition or dial under a faulty network Config on: other
// addresses dial clean and uncounted.
type peer struct {
	cfg         *Config // per-peer profile; nil selects the network's
	partitioned bool
	dials       int // dials planned so far
	accepts     int // server ends planned from the per-peer profile so far
}

// New returns a Network seeded for reproducible fault schedules.
func New(seed uint64, cfg Config) *Network {
	return &Network{
		seed:    seed,
		cfg:     cfg,
		servers: make(map[string]func(net.Conn)),
		peers:   make(map[string]*peer),
		open:    make(map[*link]struct{}),
	}
}

// peer returns addr's fault state, creating it. Callers hold n.mu.
func (n *Network) peer(addr string) *peer {
	p := n.peers[addr]
	if p == nil {
		p = &peer{}
		n.peers[addr] = p
	}
	return p
}

// Handle registers serve as the server at addr, replacing any earlier one:
// each dial to addr runs serve on the server end of a fresh connection, on
// a goroutine of its own, and closes that end when serve returns.
// Handle(addr, nil) takes addr down: dials are refused and its open
// connections are severed on both ends.
func (n *Network) Handle(addr string, serve func(net.Conn)) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if serve != nil {
		n.servers[addr] = serve
		return
	}
	delete(n.servers, addr)
	n.cut(addr)
}

// cut severs every open connection to addr. Callers hold n.mu.
func (n *Network) cut(addr string) {
	for l := range n.open {
		if l.addr == addr {
			l.sever()
			delete(n.open, l)
		}
	}
}

// SetPeerConfig overrides the fault profile for one peer address: for the
// dials to it and for the server ends it is handed.
func (n *Network) SetPeerConfig(addr string, cfg Config) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.peer(addr).cfg = &cfg
}

// Partition cuts all future dials to addr until Heal and severs every
// established connection to it on both ends, so long-lived pooled
// connections observe the partition instead of riding it out.
func (n *Network) Partition(addr string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.peer(addr).partitioned = true
	n.trace = append(n.trace, "partition "+addr)
	n.cut(addr)
}

// Heal restores dials to addr.
func (n *Network) Heal(addr string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.peer(addr).partitioned = false
	n.trace = append(n.trace, "heal "+addr)
}

// Partitioned reports whether addr is currently cut off.
func (n *Network) Partitioned(addr string) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	p := n.peers[addr]
	return p != nil && p.partitioned
}

// Trace returns a copy of the decision log: one line per fault decision, in
// the order the decisions were made. For a fixed seed and a deterministic
// operation sequence the trace is byte-identical across runs.
func (n *Network) Trace() []string {
	n.mu.Lock()
	defer n.mu.Unlock()
	return slices.Clone(n.trace)
}

// DialFailures counts injected dial refusals (including partition refusals).
func (n *Network) DialFailures() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.dialFails
}

// DialerBytes returns the bytes written so far by the dialing ends.
func (n *Network) DialerBytes() int64 { return n.dialerBytes.Load() }

// ServerBytes returns the bytes written so far by the server ends.
func (n *Network) ServerBytes() int64 { return n.serverBytes.Load() }

// planConn draws a connection end's fate from its dedicated stream.
func planConn(s *rng.Stream, cfg Config) (connMode, int) {
	if cfg.MaxFaultOffset <= 0 {
		cfg.MaxFaultOffset = 128
	}
	u := s.Float64()
	off := s.Intn(cfg.MaxFaultOffset) + 1
	switch {
	case u < cfg.ResetProb/2:
		return modeResetRead, off
	case u < cfg.ResetProb:
		return modeResetWrite, off
	case u < cfg.ResetProb+cfg.PartialWriteProb:
		return modePartialWrite, off
	case u < cfg.ResetProb+cfg.PartialWriteProb+cfg.CorruptProb:
		return modeCorrupt, off
	}
	return modeClean, 0
}

// refuse records an injected dial refusal and returns its error. Callers
// hold n.mu.
func (n *Network) refuse(addr string, seq int, line, why string) error {
	n.dialFails++
	n.trace = append(n.trace, fmt.Sprintf("dial %s #%d: %s", addr, seq, line))
	return &ErrInjected{Op: "dial", Addr: addr, Why: why}
}

// DialTimeout connects to the server at addr through the fault layer, as
// the iShare Dialer contract asks. An in-memory dial waits only on its
// injected latency, so network and timeout are ignored.
func (n *Network) DialTimeout(network, addr string, timeout time.Duration) (net.Conn, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	p := n.peers[addr]
	if p == nil && n.cfg != (Config{}) {
		p = n.peer(addr)
	}
	mode, off := modeClean, 0
	if p != nil {
		seq := p.dials
		p.dials++
		if p.partitioned {
			return nil, n.refuse(addr, seq, "partitioned", "partitioned")
		}
		cfg := n.cfg
		if p.cfg != nil {
			cfg = *p.cfg
		}
		s := rng.New(n.seed).SplitN("dial/"+addr, seq)
		if cfg.DialFailProb > 0 && s.Float64() < cfg.DialFailProb {
			return nil, n.refuse(addr, seq, "refused", "connection refused")
		}
		var delay time.Duration
		if cfg.DialLatency > 0 {
			delay = time.Duration(s.Float64() * float64(cfg.DialLatency))
		}
		mode, off = planConn(s.Split("conn"), cfg)
		if mode != modeClean {
			n.trace = append(n.trace, fmt.Sprintf("dial %s #%d: %s@%d", addr, seq, mode, off))
		}
		if delay > 0 {
			n.mu.Unlock()
			time.Sleep(delay)
			n.mu.Lock()
			// Checked again under the lock that registers the connection:
			// a Partition during the sleep must not let this dial through.
			if p.partitioned {
				return nil, n.refuse(addr, seq, "partitioned", "partitioned")
			}
		}
	}
	serve := n.servers[addr]
	if serve == nil {
		return nil, fmt.Errorf("faultnet: dial %s: connection refused", addr)
	}
	l := &link{net: n, addr: addr}
	l.c2s.cond.L, l.s2c.cond.L = &l.c2s.mu, &l.s2c.mu
	l.c2s.meter, l.s2c.meter = &n.dialerBytes, &n.serverBytes
	client := &end{l: l, r: &l.s2c, w: &l.c2s, mode: mode, offset: off}
	server := &end{l: l, r: &l.c2s, w: &l.s2c}
	if p != nil && p.cfg != nil && *p.cfg != (Config{}) {
		s := rng.New(n.seed).SplitN("accept/"+addr, p.accepts)
		server.mode, server.offset = planConn(s, *p.cfg)
		if server.mode != modeClean {
			n.trace = append(n.trace, fmt.Sprintf("accept %s #%d: %s@%d", addr, p.accepts, server.mode, server.offset))
		}
		p.accepts++
	}
	n.open[l] = struct{}{}
	go func() {
		serve(server)
		server.Close()
	}()
	return client, nil
}

// link is one connection: a pipe each way and the address it was dialed to.
type link struct {
	net      *Network
	addr     string
	c2s, s2c pipe
	closed   atomic.Bool
}

// sever shuts both directions: each end drains its buffer, then reads EOF.
func (l *link) sever() {
	l.c2s.shut(io.EOF)
	l.s2c.shut(io.EOF)
}

// close severs l and drops it from the network's registry.
func (l *link) close() {
	l.sever()
	if l.closed.CompareAndSwap(false, true) {
		l.net.mu.Lock()
		delete(l.net.open, l)
		l.net.mu.Unlock()
	}
}

// end is one endpoint of a link with its planned fault, which triggers at a
// cumulative byte offset in the faulted direction.
type end struct {
	l      *link
	r, w   *pipe
	mode   connMode
	offset int

	mu   sync.Mutex // serializes the faulted direction
	seen int        // bytes so far in the faulted direction
}

// Close closes the whole connection: the peer reads EOF after its buffer.
func (e *end) Close() error {
	e.l.close()
	return nil
}

// abort delivers an injected reset: the peer reads it after its buffer.
func (e *end) abort() {
	e.w.shut(&ErrInjected{Op: "read", Addr: e.l.addr, Why: "connection reset by peer"})
	e.l.close()
}

func (e *end) Read(p []byte) (int, error) {
	if e.mode != modeResetRead && e.mode != modeCorrupt {
		return e.r.read(p)
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.mode == modeResetRead {
		if e.seen >= e.offset {
			e.abort()
			return 0, &ErrInjected{Op: "read", Addr: e.l.addr, Why: "connection reset"}
		}
		// Never deliver bytes past the planned offset, so the reset fires
		// at exactly offset cumulative bytes.
		p = p[:min(len(p), e.offset-e.seen)]
	}
	n, err := e.r.read(p)
	if e.mode == modeCorrupt && e.seen < e.offset && e.seen+n >= e.offset {
		p[e.offset-e.seen-1] ^= 0xFF
	}
	e.seen += n
	return n, err
}

func (e *end) Write(p []byte) (int, error) {
	if e.mode != modeResetWrite && e.mode != modePartialWrite {
		return e.w.write(p)
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.seen+len(p) <= e.offset {
		n, err := e.w.write(p)
		e.seen += n
		return n, err
	}
	if e.mode == modeResetWrite {
		e.abort()
		return 0, &ErrInjected{Op: "write", Addr: e.l.addr, Why: "connection reset"}
	}
	n, _ := e.w.write(p[:max(e.offset-e.seen, 0)])
	e.seen += n
	e.l.close()
	return n, &ErrInjected{Op: "write", Addr: e.l.addr, Why: "partial write"}
}

func (e *end) LocalAddr() net.Addr  { return memAddr(e.l.addr) }
func (e *end) RemoteAddr() net.Addr { return memAddr(e.l.addr) }

func (e *end) SetDeadline(t time.Time) error {
	e.r.setDeadline(&e.r.readBy, t)
	e.w.setDeadline(&e.w.writeBy, t)
	return nil
}

func (e *end) SetReadDeadline(t time.Time) error  { e.r.setDeadline(&e.r.readBy, t); return nil }
func (e *end) SetWriteDeadline(t time.Time) error { e.w.setDeadline(&e.w.writeBy, t); return nil }

// memAddr is a Network address: the name a server was registered under.
type memAddr string

func (a memAddr) Network() string { return "faultnet" }
func (a memAddr) String() string  { return string(a) }

// pipe is one direction of a link: an unbounded buffer with blocking reads.
// Writes never block, so neither end waits on the other, and a drained
// buffer is dropped, so an idle connection holds no memory.
type pipe struct {
	mu      sync.Mutex
	cond    sync.Cond
	buf     []byte
	meter   *atomic.Int64 // the network's count of bytes written this way
	err     error         // set once shut: what reads return after draining buf
	readBy  time.Time     // the reading end's deadline
	writeBy time.Time     // the writing end's deadline
	timer   *time.Timer   // wakes a read blocked until readBy; shut stops it
}

func (p *pipe) write(b []byte) (int, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	switch {
	case p.err == io.EOF:
		return 0, net.ErrClosed
	case p.err != nil:
		return 0, p.err
	case !p.writeBy.IsZero() && !time.Now().Before(p.writeBy):
		return 0, os.ErrDeadlineExceeded
	}
	p.buf = append(p.buf, b...)
	// Metered before the reader can see the bytes, so a reply never
	// overtakes the count of the request it answers.
	p.meter.Add(int64(len(b)))
	p.cond.Broadcast()
	return len(b), nil
}

func (p *pipe) read(b []byte) (int, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for {
		if !p.readBy.IsZero() && !time.Now().Before(p.readBy) {
			return 0, os.ErrDeadlineExceeded
		}
		if len(p.buf) > 0 || p.err != nil {
			break
		}
		if !p.readBy.IsZero() {
			d := time.Until(p.readBy)
			if p.timer == nil {
				p.timer = time.AfterFunc(d, p.wake)
			} else {
				p.timer.Reset(d)
			}
		}
		p.cond.Wait()
	}
	if len(p.buf) == 0 {
		return 0, p.err
	}
	n := copy(b, p.buf)
	p.buf = p.buf[n:]
	if len(p.buf) == 0 {
		p.buf = nil
	}
	return n, nil
}

func (p *pipe) wake() {
	p.mu.Lock()
	p.cond.Broadcast()
	p.mu.Unlock()
}

// setDeadline sets one of p's deadlines and wakes a blocked read to
// re-evaluate it.
func (p *pipe) setDeadline(dl *time.Time, t time.Time) {
	p.mu.Lock()
	*dl = t
	p.cond.Broadcast()
	p.mu.Unlock()
}

// shut ends the pipe: reads drain what is buffered and then return err, and
// writes fail. The first shut decides the error.
func (p *pipe) shut(err error) {
	p.mu.Lock()
	if p.err == nil {
		p.err = err
	}
	if p.timer != nil {
		p.timer.Stop()
		p.timer = nil
	}
	p.cond.Broadcast()
	p.mu.Unlock()
}
