package ishare

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"fgcs/internal/simclock"
)

// ErrCircuitOpen is reported for machines the breaker currently quarantines.
var ErrCircuitOpen = errors.New("ishare: circuit open")

// BreakerState is one of the classic three circuit-breaker states.
type BreakerState int

const (
	// BreakerClosed: traffic flows; failures are counted.
	BreakerClosed BreakerState = iota
	// BreakerOpen: the machine is quarantined until the cooldown elapses.
	BreakerOpen
	// BreakerHalfOpen: one probe request is allowed through; its outcome
	// decides between closing and re-opening.
	BreakerHalfOpen
)

// String returns the conventional state name.
func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
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
	state    BreakerState
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
	// OnTransition, when non-nil, is invoked for every breaker state
	// change with the machine and the edge taken. It is called with the
	// set's lock held, so it must be fast and must not call back into the
	// BreakerSet — increment a counter, don't do I/O. Set it before the
	// set is shared across goroutines.
	OnTransition func(machineID string, from, to BreakerState)

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

// transition moves a breaker to a new state, firing OnTransition on a real
// edge. Callers hold bs.mu.
func (bs *BreakerSet) transition(id string, b *breaker, to BreakerState) {
	from := b.state
	if from == to {
		return
	}
	b.state = to
	if bs.OnTransition != nil {
		bs.OnTransition(id, from, to)
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

// Allow reports whether a request to the machine may proceed. While open it
// returns false until the cooldown elapses, at which point exactly one
// caller is admitted as the half-open probe.
func (bs *BreakerSet) Allow(id string) bool {
	bs.mu.Lock()
	defer bs.mu.Unlock()
	b := bs.get(id)
	switch b.state {
	case BreakerClosed:
		return true
	case BreakerOpen:
		if bs.clock.Now().Sub(b.openedAt) >= bs.cfg.cooldown() {
			bs.transition(id, b, BreakerHalfOpen)
			b.probing = true
			return true
		}
		return false
	case BreakerHalfOpen:
		if b.probing {
			return false // a probe is already in flight
		}
		b.probing = true
		return true
	}
	return true
}

// Report records the outcome of an admitted request. A nil err closes the
// breaker; an error while half-open re-opens it immediately, an error while
// closed opens it once Threshold consecutive failures accumulate. A typed
// overloaded shed does not move the state machine: the machine answered, it
// is saturated rather than broken, and the retry layer's backoff — not a
// quarantine — is the right response.
func (bs *BreakerSet) Report(id string, err error) {
	bs.mu.Lock()
	defer bs.mu.Unlock()
	b := bs.get(id)
	if err == nil {
		bs.transition(id, b, BreakerClosed)
		b.failures = 0
		b.probing = false
		return
	}
	if IsOverloaded(err) {
		// A shed probe is inconclusive; allow another one.
		b.probing = false
		return
	}
	switch b.state {
	case BreakerHalfOpen:
		bs.transition(id, b, BreakerOpen)
		b.openedAt = bs.clock.Now()
		b.probing = false
	default:
		b.failures++
		if b.failures >= bs.cfg.threshold() {
			bs.transition(id, b, BreakerOpen)
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
	if err != nil && !IsTransport(err) && !IsOverloaded(err) {
		err = nil
	}
	bs.Report(id, err)
}

// State returns the machine's current breaker state (Closed for unknown
// machines). An open breaker past its cooldown reads as half-open.
func (bs *BreakerSet) State(id string) BreakerState {
	bs.mu.Lock()
	defer bs.mu.Unlock()
	b, ok := bs.m[id]
	if !ok {
		return BreakerClosed
	}
	if b.state == BreakerOpen && bs.clock.Now().Sub(b.openedAt) >= bs.cfg.cooldown() {
		return BreakerHalfOpen
	}
	return b.state
}
