package faultnet

import (
	"errors"
	"io"
	"net"
	"runtime"
	"strings"
	"testing"
	"time"

	"fgcs/internal/rng"
)

// echo serves one connection by echoing everything back.
func echo(c net.Conn) { _, _ = io.Copy(c, c) }

func TestDialRefusalDeterminism(t *testing.T) {
	const addr = "echo"
	outcomes := func(seed uint64) []bool {
		n := New(seed, Config{DialFailProb: 0.5})
		n.Handle(addr, echo)
		var out []bool
		for i := 0; i < 40; i++ {
			c, err := n.DialTimeout("tcp", addr, time.Second)
			out = append(out, err == nil)
			if c != nil {
				c.Close()
			}
		}
		return out
	}
	a, b := outcomes(7), outcomes(7)
	fails := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("dial %d: outcome differs across runs with same seed", i)
		}
		if !a[i] {
			fails++
		}
	}
	if fails == 0 || fails == len(a) {
		t.Fatalf("dial failures = %d/%d, want a mix at p=0.5", fails, len(a))
	}
	// A different seed yields a different schedule.
	c := outcomes(8)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("seeds 7 and 8 produced identical dial schedules")
	}
}

func TestTraceByteDeterminism(t *testing.T) {
	const addr = "echo"
	run := func() string {
		n := New(42, Config{DialFailProb: 0.3, ResetProb: 0.2, CorruptProb: 0.2, PartialWriteProb: 0.1})
		n.Handle(addr, echo)
		for i := 0; i < 30; i++ {
			c, err := n.DialTimeout("tcp", addr, time.Second)
			if err != nil {
				continue
			}
			_, _ = c.Write([]byte("ping ping ping ping\n"))
			buf := make([]byte, 64)
			_, _ = c.Read(buf)
			c.Close()
		}
		n.Partition(addr)
		_, _ = n.DialTimeout("tcp", addr, time.Second)
		n.Heal(addr)
		return strings.Join(n.Trace(), "\n")
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("traces differ across identical runs:\n--- a ---\n%s\n--- b ---\n%s", a, b)
	}
}

func TestPartition(t *testing.T) {
	const addr = "echo"
	n := New(1, Config{})
	n.Handle(addr, echo)
	c, err := n.DialTimeout("tcp", addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	c.Close()
	n.Partition(addr)
	if !n.Partitioned(addr) {
		t.Fatal("Partitioned = false after Partition")
	}
	if _, err := n.DialTimeout("tcp", addr, time.Second); err == nil {
		t.Fatal("dial to partitioned peer succeeded")
	} else {
		var inj *ErrInjected
		if !errors.As(err, &inj) || inj.Why != "partitioned" {
			t.Fatalf("err = %v, want injected partition", err)
		}
	}
	n.Heal(addr)
	c, err = n.DialTimeout("tcp", addr, time.Second)
	if err != nil {
		t.Fatalf("dial after heal: %v", err)
	}
	c.Close()
	if n.DialFailures() != 1 {
		t.Fatalf("DialFailures = %d, want 1", n.DialFailures())
	}
}

// TestPartitionDuringDialLatency partitions a peer while a dial to it is
// waiting out its injected latency: the dial must fail, or hand back a
// connection that is already severed, never a live one.
func TestPartitionDuringDialLatency(t *testing.T) {
	const addr = "echo"
	const latency = 50 * time.Millisecond
	// Pick a seed whose first dial draws at least 30 ms of latency, so a
	// Partition 10 ms in lands inside the sleep. The draw is the first
	// value of the dial stream, as DialTimeout takes it.
	seed := uint64(1)
	for time.Duration(rng.New(seed).SplitN("dial/"+addr, 0).Float64()*float64(latency)) < 30*time.Millisecond {
		seed++
	}
	n := New(seed, Config{DialLatency: latency})
	n.Handle(addr, echo)
	type result struct {
		c   net.Conn
		err error
	}
	done := make(chan result, 1)
	go func() {
		c, err := n.DialTimeout("tcp", addr, time.Second)
		done <- result{c, err}
	}()
	time.Sleep(10 * time.Millisecond)
	n.Partition(addr)
	r := <-done
	if r.err != nil {
		return
	}
	defer r.c.Close()
	_ = r.c.SetDeadline(time.Now().Add(time.Second))
	if _, err := r.c.Write([]byte("ping\n")); err != nil {
		return
	}
	if _, err := r.c.Read(make([]byte, 8)); err == nil {
		t.Fatal("a dial in flight during Partition returned a live connection to the partitioned peer")
	}
}

func TestMidStreamReset(t *testing.T) {
	const addr = "echo"
	// ResetProb 1: every connection is planned to reset on read or write.
	n := New(3, Config{ResetProb: 1, MaxFaultOffset: 8})
	n.Handle(addr, echo)
	sawErr := false
	for i := 0; i < 10; i++ {
		c, err := n.DialTimeout("tcp", addr, time.Second)
		if err != nil {
			t.Fatal(err)
		}
		msg := []byte("0123456789abcdef0123456789abcdef\n")
		if _, err := c.Write(msg); err != nil {
			sawErr = true
			c.Close()
			continue
		}
		buf := make([]byte, len(msg)*2)
		for {
			if _, err := c.Read(buf); err != nil {
				if !errors.Is(err, io.EOF) {
					sawErr = true
				}
				break
			}
		}
		c.Close()
	}
	if !sawErr {
		t.Fatal("no mid-stream reset surfaced with ResetProb=1")
	}
}

func TestCorruptionFlipsExactlyOneByte(t *testing.T) {
	const addr = "echo"
	n := New(11, Config{CorruptProb: 1, MaxFaultOffset: 16})
	n.Handle(addr, echo)
	c, err := n.DialTimeout("tcp", addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	msg := []byte("abcdefghijklmnopqrstuvwxyz")
	if _, err := c.Write(msg); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(msg))
	if _, err := io.ReadFull(c, got); err != nil {
		t.Fatal(err)
	}
	diff := 0
	for i := range msg {
		if got[i] != msg[i] {
			diff++
			if got[i] != msg[i]^0xFF {
				t.Fatalf("byte %d corrupted to %x, want %x", i, got[i], msg[i]^0xFF)
			}
		}
	}
	if diff != 1 {
		t.Fatalf("corrupted bytes = %d, want exactly 1", diff)
	}
}

func TestAcceptSideFaults(t *testing.T) {
	const addr = "echo"
	n := New(5, Config{})
	// A per-peer profile plans the server ends too, from accept/<addr>.
	n.SetPeerConfig(addr, Config{ResetProb: 1, MaxFaultOffset: 4})
	n.Handle(addr, echo)

	sawErr := false
	for i := 0; i < 10 && !sawErr; i++ {
		c, err := n.DialTimeout("tcp", addr, time.Second)
		if err != nil {
			t.Fatal(err)
		}
		msg := []byte("0123456789abcdef\n")
		_, _ = c.Write(msg)
		buf := make([]byte, 64)
		if _, err := c.Read(buf); err != nil && !errors.Is(err, io.EOF) {
			sawErr = true
		}
		// A server-side reset can also surface as EOF or a write error on
		// the client; either way the echo must be cut short.
		if err == nil {
			c.Close()
		}
	}
	if !sawErr {
		t.Skip("server-side resets surfaced as EOF only on this platform")
	}
	if !strings.Contains(strings.Join(n.Trace(), "\n"), "accept "+addr+" #0: reset-") {
		t.Fatalf("no accept-side fault in the trace:\n%s", strings.Join(n.Trace(), "\n"))
	}
}

func TestDialLatency(t *testing.T) {
	const addr = "echo"
	n := New(9, Config{DialLatency: 20 * time.Millisecond})
	n.Handle(addr, echo)
	start := time.Now()
	for i := 0; i < 5; i++ {
		c, err := n.DialTimeout("tcp", addr, time.Second)
		if err != nil {
			t.Fatal(err)
		}
		c.Close()
	}
	if time.Since(start) == 0 {
		t.Fatal("no latency injected")
	}
}

func TestPeerConfigOverride(t *testing.T) {
	const addr = "echo"
	n := New(2, Config{DialFailProb: 1})
	n.Handle(addr, echo)
	n.SetPeerConfig(addr, Config{}) // this peer is exempt
	c, err := n.DialTimeout("tcp", addr, time.Second)
	if err != nil {
		t.Fatalf("exempt peer dial failed: %v", err)
	}
	c.Close()
}

func TestReadDeadlineTimesOut(t *testing.T) {
	const addr = "silent"
	n := New(1, Config{})
	hold := make(chan struct{})
	defer close(hold)
	n.Handle(addr, func(net.Conn) { <-hold })
	c, err := n.DialTimeout("tcp", addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const wait = 20 * time.Millisecond
	start := time.Now()
	_ = c.SetReadDeadline(start.Add(wait))
	_, err = c.Read(make([]byte, 8))
	var ne net.Error
	if !errors.As(err, &ne) || !ne.Timeout() {
		t.Fatalf("read past its deadline returned %v, want a timeout net.Error", err)
	}
	if el := time.Since(start); el < wait {
		t.Fatalf("read timed out after %v, before its %v deadline", el, wait)
	}
}

// TestClosedConnectionsRetainNothing runs 10 000 dial → exchange → close
// cycles, each with deadlines armed on both ends, and requires the goroutine
// count and the post-GC heap to come back to where they started: a closed
// connection keeps no timer and no goroutine alive.
func TestClosedConnectionsRetainNothing(t *testing.T) {
	const addr = "echo"
	n := New(1, Config{})
	n.Handle(addr, func(c net.Conn) {
		_ = c.SetReadDeadline(time.Now().Add(time.Minute))
		echo(c)
	})
	cycle := func() {
		c, err := n.DialTimeout("tcp", addr, time.Second)
		if err != nil {
			t.Fatal(err)
		}
		_ = c.SetDeadline(time.Now().Add(time.Minute))
		if _, err := c.Write([]byte("ping\n")); err != nil {
			t.Fatal(err)
		}
		if _, err := io.ReadFull(c, make([]byte, 5)); err != nil {
			t.Fatal(err)
		}
		c.Close()
	}
	// heapAfter waits for the server goroutines to drop back to g, then
	// returns the post-GC heap and the goroutine count it settled at.
	heapAfter := func(g int) (uint64, int) {
		for i := 0; i < 1000 && runtime.NumGoroutine() > g; i++ {
			time.Sleep(time.Millisecond)
		}
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc, runtime.NumGoroutine()
	}
	for i := 0; i < 100; i++ {
		cycle()
	}
	time.Sleep(10 * time.Millisecond)
	h0, g0 := heapAfter(0)
	for i := 0; i < 10_000; i++ {
		cycle()
	}
	h1, g1 := heapAfter(g0)
	if g1 > g0 {
		t.Fatalf("goroutines %d -> %d after 10 000 closed connections", g0, g1)
	}
	if h1 > h0+512<<10 {
		t.Fatalf("post-GC heap %d -> %d bytes after 10 000 closed connections", h0, h1)
	}
}

func TestHandleNilTakesAddressDown(t *testing.T) {
	const addr = "held"
	n := New(1, Config{})
	served := make(chan net.Conn, 1)
	hold := make(chan struct{})
	defer close(hold)
	n.Handle(addr, func(c net.Conn) {
		served <- c
		<-hold
	})
	c, err := n.DialTimeout("tcp", addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	s := <-served
	n.Handle(addr, nil)
	for name, end := range map[string]net.Conn{"dialer": c, "server": s} {
		_ = end.SetReadDeadline(time.Now().Add(time.Second))
		if _, err := end.Read(make([]byte, 8)); err != io.EOF {
			t.Fatalf("%s end read %v after Handle(nil), want EOF", name, err)
		}
	}
	if _, err := n.DialTimeout("tcp", addr, time.Second); err == nil {
		t.Fatal("dial succeeded after Handle(nil)")
	}
}
