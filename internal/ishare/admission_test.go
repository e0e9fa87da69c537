package ishare

import (
	"testing"
	"time"
)

// waitWaiting polls until the admitter has n queued waiters; enqueue order
// in these tests must be deterministic, and acquire blocks, so the test
// observes the count instead of racing the goroutines.
func waitWaiting(t *testing.T, a *admitter, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		a.mu.Lock()
		w := a.waiting
		a.mu.Unlock()
		if w == n {
			return
		}
		time.Sleep(100 * time.Microsecond)
	}
	t.Fatalf("admitter never reached %d waiters", n)
}

func TestAdmitterImmediateGrantAndRelease(t *testing.T) {
	a := newAdmitter(2, 4)
	done := make(chan struct{})
	if !a.acquire("A", done) || !a.acquire("B", done) {
		t.Fatal("free slots were not granted immediately")
	}
	a.release()
	a.release()
	if !a.acquire("C", done) {
		t.Fatal("released slot was not granted")
	}
	a.release()
}

// TestAdmitterFairnessAndShed saturates a one-slot admitter, queues two
// waiters on connection A and one on connection B, and checks that (1) the
// waiter cap sheds the overflow request immediately and (2) freed slots are
// granted round-robin across connections — A1, B1, A2 — so the pipelining
// connection A cannot starve B.
func TestAdmitterFairnessAndShed(t *testing.T) {
	a := newAdmitter(1, 3)
	done := make(chan struct{})
	defer close(done)
	if !a.acquire("A", done) {
		t.Fatal("initial slot not granted")
	}

	granted := make(chan string, 3)
	enqueue := func(key, name string, n int) {
		go func() {
			if a.acquire(key, done) {
				granted <- name
			} else {
				granted <- name + "-shed"
			}
		}()
		waitWaiting(t, a, n)
	}
	enqueue("A", "A1", 1)
	enqueue("A", "A2", 2)
	enqueue("B", "B1", 3)

	// The queue is at maxWait: the next request is shed, not queued.
	if a.acquire("C", done) {
		t.Fatal("overflow request was admitted past the waiter cap")
	}

	// Each release grants exactly one waiter; the grant order alternates
	// across connections before returning to A's second request.
	for i, want := range []string{"A1", "B1", "A2"} {
		a.release()
		select {
		case got := <-granted:
			if got != want {
				t.Fatalf("grant %d went to %s, want %s", i, got, want)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("grant %d never arrived", i)
		}
	}
	// The last grantee finishes: the slot must come back whole.
	a.release()
	if !a.acquire("D", done) {
		t.Fatal("slot leaked through the grant cycle")
	}
}

// TestAdmitterDoneWithdrawsWaiter closes a queued waiter's done channel (its
// connection died) and checks the slot accounting stays intact.
func TestAdmitterDoneWithdrawsWaiter(t *testing.T) {
	a := newAdmitter(1, 4)
	hold := make(chan struct{})
	if !a.acquire("A", hold) {
		t.Fatal("initial slot not granted")
	}
	connDone := make(chan struct{})
	result := make(chan bool, 1)
	go func() { result <- a.acquire("B", connDone) }()
	waitWaiting(t, a, 1)
	close(connDone)
	if <-result {
		t.Fatal("dead connection's waiter was granted")
	}
	waitWaiting(t, a, 0)
	a.release()
	if !a.acquire("C", hold) {
		t.Fatal("slot lost after a withdrawn waiter")
	}
}

// TestAdmitterForgetDropsQueue removes a dead connection's queue and checks
// the waiter count and round-robin ring stay consistent for the survivors.
func TestAdmitterForgetDropsQueue(t *testing.T) {
	a := newAdmitter(1, 4)
	hold := make(chan struct{})
	if !a.acquire("A", hold) {
		t.Fatal("initial slot not granted")
	}
	deadDone := make(chan struct{})
	deadResult := make(chan bool, 1)
	go func() { deadResult <- a.acquire("dead", deadDone) }()
	waitWaiting(t, a, 1)
	liveResult := make(chan bool, 1)
	go func() { liveResult <- a.acquire("live", hold) }()
	waitWaiting(t, a, 2)

	// The server tears down the dead connection: done closes, then forget.
	close(deadDone)
	if <-deadResult {
		t.Fatal("dead connection's waiter was granted")
	}
	a.forget("dead")

	a.release()
	select {
	case ok := <-liveResult:
		if !ok {
			t.Fatal("surviving waiter was refused")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("surviving waiter never granted after forget")
	}
	a.release()
	if !a.acquire("B", hold) {
		t.Fatal("slot lost after forget")
	}
}
