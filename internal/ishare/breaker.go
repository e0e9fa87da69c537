package ishare

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"fgcs/internal/simclock"
)

// errCircuitOpen is reported for machines the breaker currently quarantines.
var errCircuitOpen = errors.New("ishare: circuit open")

// breakerState is one of the classic three circuit-breaker states.
type breakerState int

const (
	// breakerClosed: traffic flows; failures are counted.
	breakerClosed breakerState = iota
	// breakerOpen: the machine is quarantined until the cooldown elapses.
	breakerOpen
	// breakerHalfOpen: one probe request is allowed through; its outcome
	// decides between closing and re-opening.
	breakerHalfOpen
)

// String returns the conventional state name.
func (s breakerState) String() string {
	switch s {
	case breakerClosed:
		return "closed"
	case breakerOpen:
		return "open"
	case breakerHalfOpen:
		return "half-open"
	}
	return fmt.Sprintf("BreakerState(%d)", int(s))
}

// BreakerConfig tunes the per-machine circuit breakers.
type BreakerConfig struct {
	// Threshold is the number of consecutive failures that opens the
	// breaker (default 3).
	Threshold int
	// Cooldown is how long an open breaker quarantines the machine before
	// allowing a half-open probe (default 30 s).
	Cooldown time.Duration
}

func (c BreakerConfig) threshold() int {
	if c.Threshold <= 0 {
		return 3
	}
	return c.Threshold
}

func (c BreakerConfig) cooldown() time.Duration {
	if c.Cooldown <= 0 {
		return 30 * time.Second
	}
	return c.Cooldown
}

type breaker struct {
	state    breakerState
	failures int       // consecutive failures while closed
	openedAt time.Time // when the breaker last opened
	probing  bool      // a half-open probe is in flight
}

// BreakerSet holds one circuit breaker per machine. A scheduler consults it
// before querying a machine and reports every outcome back, so machines that
// keep failing are quarantined instead of slowing every Rank with doomed
// RPCs — the control-plane analogue of the paper's resource-failure
// awareness.
type BreakerSet struct {
	// onTransition, when non-nil, is invoked for every breaker state
	// change with the machine and the edge taken. It is called with the
	// set's lock held, so it must be fast and must not call back into the
	// BreakerSet — increment a counter, don't do I/O. Set it before the
	// set is shared across goroutines.
	onTransition func(machineID string, from, to breakerState)

	mu    sync.Mutex
	cfg   BreakerConfig
	clock simclock.Clock
	m     map[string]*breaker
}

// NewBreakerSet builds a breaker set on the given clock (nil = wall clock).
func NewBreakerSet(cfg BreakerConfig, clock simclock.Clock) *BreakerSet {
	if clock == nil {
		clock = simclock.Real{}
	}
	return &BreakerSet{cfg: cfg, clock: clock, m: make(map[string]*breaker)}
}

// transition moves a breaker to a new state, firing onTransition on a real
// edge. Callers hold bs.mu.
func (bs *BreakerSet) transition(id string, b *breaker, to breakerState) {
	from := b.state
	if from == to {
		return
	}
	b.state = to
	if bs.onTransition != nil {
		bs.onTransition(id, from, to)
	}
}

func (bs *BreakerSet) get(id string) *breaker {
	b, ok := bs.m[id]
	if !ok {
		b = &breaker{}
		bs.m[id] = b
	}
	return b
}

// allow reports whether a request to the machine may proceed. While open it
// returns false until the cooldown elapses, at which point exactly one
// caller is admitted as the half-open probe.
func (bs *BreakerSet) allow(id string) bool {
	bs.mu.Lock()
	defer bs.mu.Unlock()
	b := bs.get(id)
	switch b.state {
	case breakerClosed:
		return true
	case breakerOpen:
		if bs.clock.Now().Sub(b.openedAt) >= bs.cfg.cooldown() {
			bs.transition(id, b, breakerHalfOpen)
			b.probing = true
			return true
		}
		return false
	case breakerHalfOpen:
		if b.probing {
			return false // a probe is already in flight
		}
		b.probing = true
		return true
	}
	return true
}

// report records the outcome of an admitted request. A nil err closes the
// breaker; an error while half-open re-opens it immediately, an error while
// closed opens it once Threshold consecutive failures accumulate. A typed
// overloaded shed does not move the state machine: the machine answered, it
// is saturated rather than broken, and the retry layer's backoff — not a
// quarantine — is the right response.
func (bs *BreakerSet) report(id string, err error) {
	bs.mu.Lock()
	defer bs.mu.Unlock()
	b := bs.get(id)
	if err == nil {
		bs.transition(id, b, breakerClosed)
		b.failures = 0
		b.probing = false
		return
	}
	if isOverloaded(err) {
		// A shed probe is inconclusive; allow another one.
		b.probing = false
		return
	}
	switch b.state {
	case breakerHalfOpen:
		bs.transition(id, b, breakerOpen)
		b.openedAt = bs.clock.Now()
		b.probing = false
	default:
		b.failures++
		if b.failures >= bs.cfg.threshold() {
			bs.transition(id, b, breakerOpen)
			b.openedAt = bs.clock.Now()
			b.failures = 0
		}
	}
}

// observe records the outcome of one call to the machine: a transport fault
// or an overloaded shed goes to Report as it is, and anything the far end
// answered — a success or an application error such as a rejected submit —
// proves it alive and goes in as nil. Every caller that holds a breaker
// records through here. A nil set records nothing.
func (bs *BreakerSet) observe(id string, err error) {
	if bs == nil {
		return
	}
	if err != nil && !isTransport(err) && !isOverloaded(err) {
		err = nil
	}
	bs.report(id, err)
}

// state returns the machine's current breaker state (Closed for unknown
// machines). An open breaker past its cooldown reads as half-open.
func (bs *BreakerSet) state(id string) breakerState {
	bs.mu.Lock()
	defer bs.mu.Unlock()
	b, ok := bs.m[id]
	if !ok {
		return breakerClosed
	}
	if b.state == breakerOpen && bs.clock.Now().Sub(b.openedAt) >= bs.cfg.cooldown() {
		return breakerHalfOpen
	}
	return b.state
}
