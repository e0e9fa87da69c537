package ishare

import "sync"

// admitter is the server's global in-flight limiter with per-connection
// fairness. It grants up to `slots` concurrent requests; when all slots are
// busy, new requests queue per connection and freed slots are handed out
// round-robin across connections, so one client pipelining hundreds of
// requests cannot starve a client sending one. When the total number of
// queued waiters reaches maxWait the request is shed instead — the caller
// turns that into the typed overloaded error.
type admitter struct {
	mu      sync.Mutex
	slots   int // free slots remaining
	waiting int // total queued waiters across all connections
	maxWait int // shed threshold for `waiting`
	queues  map[interface{}]*connQueue
	order   []*connQueue // round-robin ring over connections with waiters
	rr      int          // next ring index to grant from
}

// connQueue is one connection's FIFO of waiters.
type connQueue struct {
	key     interface{}
	waiters []chan struct{}
}

func newAdmitter(slots, maxWait int) *admitter {
	return &admitter{
		slots:   slots,
		maxWait: maxWait,
		queues:  make(map[interface{}]*connQueue),
	}
}

// acquire blocks until a slot is granted, returning true; it returns false
// immediately when the waiter queue is full (shed), or when done closes
// first (the connection died while queued). A grant that races with done is
// returned to the pool, so slots never leak.
func (a *admitter) acquire(key interface{}, done <-chan struct{}) bool {
	a.mu.Lock()
	if a.slots > 0 && a.waiting == 0 {
		a.slots--
		a.mu.Unlock()
		return true
	}
	if a.waiting >= a.maxWait {
		a.mu.Unlock()
		return false
	}
	q, ok := a.queues[key]
	if !ok {
		q = &connQueue{key: key}
		a.queues[key] = q
		a.order = append(a.order, q)
	}
	grant := make(chan struct{}, 1)
	q.waiters = append(q.waiters, grant)
	a.waiting++
	a.mu.Unlock()

	select {
	case <-grant:
		return true
	case <-done:
		a.mu.Lock()
		// Try to withdraw from the queue; if the grant already arrived
		// concurrently, hand the slot back instead.
		select {
		case <-grant:
			a.releaseLocked()
		default:
			if q := a.queues[key]; q != nil {
				for i, w := range q.waiters {
					if w == grant {
						q.waiters = append(q.waiters[:i], q.waiters[i+1:]...)
						a.waiting--
						break
					}
				}
			}
		}
		a.mu.Unlock()
		return false
	}
}

// release returns a slot, granting it to the next waiter in round-robin
// order across connections.
func (a *admitter) release() {
	a.mu.Lock()
	a.releaseLocked()
	a.mu.Unlock()
}

func (a *admitter) releaseLocked() {
	// Scan the ring once starting at rr for a connection with waiters.
	for range a.order {
		q := a.order[a.rr%len(a.order)]
		a.rr = (a.rr + 1) % len(a.order)
		if len(q.waiters) > 0 {
			grant := q.waiters[0]
			q.waiters = q.waiters[1:]
			a.waiting--
			grant <- struct{}{}
			return
		}
	}
	a.slots++
}

// forget drops a dead connection's queue from the ring. Queued waiters have
// already been released via their done channel.
func (a *admitter) forget(key interface{}) {
	a.mu.Lock()
	defer a.mu.Unlock()
	q, ok := a.queues[key]
	if !ok {
		return
	}
	delete(a.queues, key)
	for i, e := range a.order {
		if e == q {
			a.order = append(a.order[:i], a.order[i+1:]...)
			if a.rr > i {
				a.rr--
			}
			if len(a.order) > 0 {
				a.rr %= len(a.order)
			} else {
				a.rr = 0
			}
			break
		}
	}
	// Any waiters still queued (done not yet observed) are unblocked by
	// counting them out; their acquire returns false via done.
	a.waiting -= len(q.waiters)
	q.waiters = nil
}
