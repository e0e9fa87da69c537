package ishare

import (
	"context"
	crand "crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"fgcs/internal/obs"
	"fgcs/internal/otrace"
	"fgcs/internal/rng"
	"fgcs/internal/simclock"
)

// Dialer abstracts connection establishment so tests can route RPCs through
// a fault-injecting transport (internal/faultnet implements this).
type Dialer interface {
	DialTimeout(network, addr string, timeout time.Duration) (net.Conn, error)
}

// netDialer is the production dialer.
type netDialer struct{}

func (netDialer) DialTimeout(network, addr string, timeout time.Duration) (net.Conn, error) {
	return net.DialTimeout(network, addr, timeout)
}

// codeOverloaded is the Response.Code a server attaches to requests it
// sheds under admission control. Unlike ordinary remote errors, an
// overloaded rejection is safe to retry (the handler never ran) and is
// counted by breakers separately from transport faults.
const codeOverloaded = "overloaded"

// remoteError is an application-level error returned by the far end. The
// RPC reached the server and was processed; retrying it would re-execute
// the operation, so the retry layer never retries these — with one
// exception: codeOverloaded marks a request the server shed before running
// the handler, which the retry layer treats as retryable with backoff.
type remoteError struct {
	Msg string
	// Code is the machine-readable error class from the wire (empty for
	// ordinary application errors).
	Code string
}

// Error formats the far end's message under an "ishare: remote error"
// prefix so transport and application failures read differently in logs.
func (e *remoteError) Error() string { return fmt.Sprintf("ishare: remote error: %s", e.Msg) }

// isOverloaded reports whether err is a typed overloaded rejection: the
// server shed the request under admission control without running the
// handler, so retrying with backoff is safe and appropriate.
func isOverloaded(err error) bool {
	if err == nil {
		return false
	}
	var re *remoteError
	return errors.As(err, &re) && re.Code == codeOverloaded
}

// transportError marks a failure below the application: dial, send, receive
// or decode. The request may or may not have reached the server, so only
// idempotent RPCs are safe to retry after one.
type transportError struct{ err error }

func (e *transportError) Error() string { return e.err.Error() }
func (e *transportError) Unwrap() error { return e.err }

// isTransport reports whether err is a transport-level failure (as opposed
// to an application error returned by the remote handler). Callers use it to
// tell "machine unreachable / network flake" from "machine said no".
func isTransport(err error) bool {
	if err == nil {
		return false
	}
	var te *transportError
	return errors.As(err, &te)
}

// RetryPolicy shapes retries for idempotent RPCs: exponential backoff (the
// delay doubles per attempt) with deterministic seeded jitter, capped
// per-attempt by the call timeout.
type RetryPolicy struct {
	// MaxAttempts is the total number of attempts (1 or less = no retry).
	MaxAttempts int
	// BaseDelay is the first backoff delay (default 50 ms).
	BaseDelay time.Duration
	// MaxDelay caps the backoff growth (default 2 s).
	MaxDelay time.Duration
}

func (p RetryPolicy) baseDelay() time.Duration {
	if p.BaseDelay <= 0 {
		return 50 * time.Millisecond
	}
	return p.BaseDelay
}

func (p RetryPolicy) maxDelay() time.Duration {
	if p.MaxDelay <= 0 {
		return 2 * time.Second
	}
	return p.MaxDelay
}

// delay computes the backoff before attempt n (n >= 1 is the first retry),
// with jitter drawn from the given stream: the second half of each delay is
// randomized to decorrelate clients hammering a recovering node.
func (p RetryPolicy) delay(n int, jitter *rng.Stream) time.Duration {
	d := float64(p.baseDelay())
	for i := 1; i < n; i++ {
		d *= 2
		if d >= float64(p.maxDelay()) {
			d = float64(p.maxDelay())
			break
		}
	}
	half := d / 2
	return time.Duration(half + jitter.Float64()*half)
}

// CallerMetrics instruments a Caller's attempts. The obs counters are
// nil-safe, so a partially populated struct records what it can; a nil
// *CallerMetrics records nothing.
type CallerMetrics struct {
	// Attempts counts every RPC attempt (first tries and retries).
	Attempts *obs.Counter
	// Retries counts attempts beyond a call's first — the PR 2 retry
	// traffic made visible.
	Retries *obs.Counter
	// TransportErrors counts attempts that failed below the application
	// (dial, send, receive, decode).
	TransportErrors *obs.Counter
	// Overloaded counts attempts the server shed under admission control.
	Overloaded *obs.Counter
}

func (m *CallerMetrics) observe(attempt int, err error) {
	if m == nil {
		return
	}
	m.Attempts.Inc()
	if attempt > 1 {
		m.Retries.Inc()
	}
	if isTransport(err) {
		m.TransportErrors.Inc()
	}
	if isOverloaded(err) {
		m.Overloaded.Inc()
	}
}

// Caller performs protocol round trips with a pluggable transport, a retry
// policy for idempotent RPCs, and an idempotency-key source for RPCs that
// must not double-execute. The zero value (and a nil *Caller) makes one
// attempt over a JSON connection dialed on the real network per call.
type Caller struct {
	// Dialer defaults to the real network.
	Dialer Dialer
	// Pool, when non-nil, routes calls over pooled multiplexed binary
	// connections instead of dialing a fresh JSON connection per attempt.
	// The pool's own Dialer wins over the caller's.
	Pool *Pool
	// Retry applies to idempotent calls made through CallRetry.
	Retry RetryPolicy
	// Clock paces backoff sleeps (defaults to the wall clock). Use a
	// virtual clock only if something else advances it during calls.
	Clock simclock.Clock
	// JitterSeed seeds the backoff jitter stream, making retry schedules
	// reproducible (0 uses a fixed default seed).
	JitterSeed uint64
	// Metrics, when non-nil, counts attempts, retries and transport
	// failures.
	Metrics *CallerMetrics

	mu       sync.Mutex
	jitter   *rng.Stream
	instance string
	keySeq   uint64
}

func (c *Caller) dialer() Dialer {
	if c == nil || c.Dialer == nil {
		return netDialer{}
	}
	return c.Dialer
}

func (c *Caller) clock() simclock.Clock {
	if c == nil || c.Clock == nil {
		return simclock.Real{}
	}
	return c.Clock
}

func (c *Caller) nextJitter(n int) time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.jitter == nil {
		seed := c.JitterSeed
		if seed == 0 {
			seed = 0x15A4E
		}
		c.jitter = rng.New(seed)
	}
	return c.Retry.delay(n, c.jitter)
}

// nextKey returns a fresh idempotency key: a per-caller instance tag plus a
// counter. The instance tag makes keys from different client processes
// distinct — gateways remember keys for as long as they run, so a bare
// counter would collide across client invocations and silently hand the
// second client the first one's job. With JitterSeed set (tests), the tag
// is derived from the seed and the whole key sequence is reproducible;
// otherwise it is drawn from crypto/rand once per caller. Both forms have
// the same length, so message sizes stay run-independent.
func (c *Caller) nextKey(prefix string) string {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.instance == "" {
		if c.JitterSeed != 0 {
			c.instance = fmt.Sprintf("%08x", c.JitterSeed&0xFFFFFFFF)
		} else {
			var b [4]byte
			if _, err := crand.Read(b[:]); err != nil {
				// Last resort: clock entropy beats a guaranteed collision.
				binary.LittleEndian.PutUint32(b[:], uint32(time.Now().UnixNano()))
			}
			c.instance = hex.EncodeToString(b[:])
		}
	}
	c.keySeq++
	return fmt.Sprintf("%s/%s-k%d", prefix, c.instance, c.keySeq)
}

// keyed makes a submit safe to retry when the caller retries at all: it
// attaches a fresh idempotency key under prefix (unless the job already
// carries one) and reports true. A nil or single-attempt caller leaves the job
// alone and reports false — the submit then gets exactly one attempt.
func (c *Caller) keyed(job *SubmitReq, prefix string) (retry bool) {
	if c == nil || c.Retry.MaxAttempts <= 1 {
		return false
	}
	if job.IdempotencyKey == "" {
		job.IdempotencyKey = c.nextKey(prefix)
	}
	return true
}

// Call performs a single-attempt round trip through the caller's dialer.
// Use it for non-idempotent RPCs (Submit without a key, Kill). If ctx carries
// a sampled span, the attempt is recorded as a child span and its link
// travels in the request's trace header; an untraced context adds nothing.
func (c *Caller) Call(ctx context.Context, addr, typ string, payload, out interface{}, timeout time.Duration) error {
	attempt := otrace.FromContext(ctx).StartChild("rpc.attempt")
	if attempt != nil {
		attempt.SetAttr(otrace.String("rpc", typ), otrace.Int("attempt", 1))
	}
	err := c.callOnce(attempt.Link(), addr, typ, payload, out, timeout)
	attempt.SetError(err)
	attempt.End()
	if c != nil {
		c.Metrics.observe(1, err)
	}
	return err
}

// callOnce routes one attempt through the caller's transport: the pooled
// multiplexed binary protocol when a Pool is installed, otherwise a fresh
// dial-per-RPC JSON exchange.
func (c *Caller) callOnce(link otrace.Link, addr, typ string, payload, out interface{}, timeout time.Duration) error {
	if c != nil && c.Pool != nil {
		return c.Pool.call(link, addr, typ, payload, out, timeout)
	}
	return callOnce(c.dialer(), link, addr, typ, payload, out, timeout)
}

// CallRetry performs the round trip with the caller's retry policy: each
// attempt gets the full timeout as its own deadline; transport errors and
// typed overloaded sheds are retried after jittered backoff (so a fleet of
// clients backs off a saturated server instead of hammering it), remote
// application errors are returned immediately.
// Only use it for idempotent RPCs, or RPCs protected by an idempotency key.
// Each attempt becomes its own child span of ctx's active span (siblings
// under the caller's operation), so a recorded trace shows exactly how many
// tries a call took and which of them failed.
func (c *Caller) CallRetry(ctx context.Context, addr, typ string, payload, out interface{}, timeout time.Duration) error {
	attempts := 1
	if c != nil && c.Retry.MaxAttempts > 1 {
		attempts = c.Retry.MaxAttempts
	}
	parent := otrace.FromContext(ctx)
	var err error
	for n := 1; ; n++ {
		attempt := parent.StartChild("rpc.attempt")
		if attempt != nil {
			attempt.SetAttr(otrace.String("rpc", typ), otrace.Int("attempt", n))
		}
		err = c.callOnce(attempt.Link(), addr, typ, payload, out, timeout)
		attempt.SetError(err)
		attempt.End()
		if c != nil {
			c.Metrics.observe(n, err)
		}
		if err == nil || (!isTransport(err) && !isOverloaded(err)) || n >= attempts {
			if err != nil && n > 1 {
				return fmt.Errorf("ishare: %d attempts: %w", n, err)
			}
			return err
		}
		c.clock().Sleep(c.nextJitter(n))
	}
}

// callOnce is one request/response exchange over a fresh connection. The
// link, when sampled, rides in the request envelope's trace header.
func callOnce(d Dialer, link otrace.Link, addr, typ string, payload, out interface{}, timeout time.Duration) error {
	conn, err := d.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return &transportError{fmt.Errorf("ishare: dial %s: %w", addr, err)}
	}
	defer conn.Close()
	if err := conn.SetDeadline(time.Now().Add(timeout)); err != nil {
		return &transportError{err}
	}
	return exchange(conn, link, typ, payload, out)
}
