package ishare

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"fgcs/internal/avail"
	"fgcs/internal/faultnet"
	"fgcs/internal/otrace"
)

// tickClock is a deterministic otrace.Clock: every Now() advances one
// millisecond, so span start times — and therefore sibling ordering in the
// rendered tree — depend only on call order, never on the wall clock.
type tickClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *tickClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t = c.t.Add(time.Millisecond)
	return c.t
}

// tracedFaultRun is everything a traced fault-injection run must reproduce
// byte-for-byte under the same seed: the client-side span trees (retry
// attempts, breaker decisions) and the server-side flight-recorder contents
// fetched through the query-traces RPC surface.
type tracedFaultRun struct {
	client string
	server string
}

// runTracedFaultOnce stands up two host nodes on a seeded fault network, ranks them three times under a client-side tracer —
// healthy, with m1 partitioned (exhausting the retry budget and tripping the
// breaker), and with m1 benched by the open breaker — and returns the
// structural renderings of every recorded trace on both sides of the wire.
func runTracedFaultOnce(t *testing.T, seed uint64) tracedFaultRun {
	t.Helper()
	start := time.Date(2005, 9, 2, 8, 30, 0, 0, time.UTC)
	fn := faultnet.New(seed, faultnet.Config{DialFailProb: 0.3})
	clock := &stepClock{now: start}
	caller := &Caller{
		Dialer:     fn,
		Retry:      RetryPolicy{MaxAttempts: 6, BaseDelay: time.Millisecond, MaxDelay: 4 * time.Millisecond},
		JitterSeed: seed + 1,
	}
	clientRec := otrace.NewRecorder(32)
	clientTracer := otrace.New(otrace.Config{
		SampleRate: 1, Seed: seed, Recorder: clientRec, Clock: &tickClock{t: start},
	})

	const machines = 2
	sched := &Scheduler{Breakers: NewBreakerSet(BreakerConfig{Threshold: 1, Cooldown: time.Hour}, clock)}
	gws := make([]*Gateway, machines)
	for i := 0; i < machines; i++ {
		id := fmt.Sprintf("m%d", i+1)
		sm, err := NewStateManager(id, period, avail.DefaultConfig(), clock, historyMachine(id, 11, -1), 0)
		if err != nil {
			t.Fatal(err)
		}
		gw, err := NewGateway(id, avail.DefaultConfig(), period, clock, sm)
		if err != nil {
			t.Fatal(err)
		}
		gw.Record(start, sample(5, 400))
		// Distinct seeds per node: span IDs are drawn from the tracer's
		// seeded sequence, and two nodes must never mint colliding IDs
		// into the same distributed trace.
		sm.obsv.SetTracing(otrace.New(otrace.Config{
			SampleRate: 1, Seed: seed + uint64(i+1)*1000,
			Recorder: otrace.NewRecorder(32), Clock: &tickClock{t: start},
		}))
		fn.Handle(id, memServe(gw.Handler()))
		sched.Candidates = append(sched.Candidates, Candidate{
			MachineID: id,
			API:       RemoteGateway{Addr: id, Timeout: 2 * time.Second, Caller: caller},
		})
		gws[i] = gw
	}

	job := SubmitReq{Name: "traced-job", WorkSeconds: 300, MemMB: 50}
	rank := func() {
		ctx, root := clientTracer.Start(context.Background(), "client.rank")
		_, _, _ = sched.Rank(ctx, job)
		root.End()
	}
	rank() // healthy: both nodes answer, random dial faults drive retries
	fn.Partition("m1")
	rank() // m1 exhausts every attempt; the breaker trips on the failure
	rank() // m1 is shed without an RPC: a breaker-open event, not a span

	opts := otrace.RenderOptions{} // no timings: the structural tree is the deterministic part
	var client strings.Builder
	for _, rec := range clientRec.Snapshot(time.Time{}).TracesLimit(100) {
		client.WriteString(otrace.RenderTraceString([]otrace.TraceRecord{rec}, opts))
	}
	var server strings.Builder
	for _, gw := range gws {
		resp, err := gw.queryTraces(context.Background(), QueryTracesReq{Limit: 100})
		if err != nil {
			t.Fatal(err)
		}
		byID := make(map[otrace.TraceID][]otrace.TraceRecord)
		var order []otrace.TraceID
		for _, rec := range resp.Traces {
			if _, seen := byID[rec.TraceID]; !seen {
				order = append(order, rec.TraceID)
			}
			byID[rec.TraceID] = append(byID[rec.TraceID], rec)
		}
		for _, id := range order {
			server.WriteString(otrace.RenderTraceString(byID[id], opts))
		}
	}
	return tracedFaultRun{
		client: client.String(),
		server: server.String(),
	}
}

// TestTracedFaultRunDeterministic is the acceptance test for the tracing
// stack under faults: a seeded fault-injection run records retry attempts as
// child spans and breaker sheds as span events, the server-side flight
// recorder stitches the propagated trace context onto its own dispatch
// spans, and the full span forest — client and server — is byte-identical
// across two runs with the same seed.
func TestTracedFaultRunDeterministic(t *testing.T) {
	const seed = 11
	a := runTracedFaultOnce(t, seed)

	// The partitioned ranking exhausted the whole retry budget: the
	// query-tr span carries all six attempts as children and ends in error.
	if !strings.Contains(a.client, "rpc.attempt") {
		t.Fatalf("client traces have no rpc.attempt spans:\n%s", a.client)
	}
	if !strings.Contains(a.client, "attempt=6") {
		t.Fatalf("client traces never reached attempt 6 against the partition:\n%s", a.client)
	}
	if !strings.Contains(a.client, "ERROR") {
		t.Fatalf("client traces recorded no error status:\n%s", a.client)
	}
	// The third ranking shed m1 on the open breaker — as an event on the
	// rank span, with no RPC spans underneath.
	if !strings.Contains(a.client, "@ breaker-open machine=m1") {
		t.Fatalf("client traces missing the breaker-open event:\n%s", a.client)
	}
	// The server side continued the client's traces: its dispatch spans
	// parent the state-manager query and the engine's fit/solve work, and
	// the engine marked its cache decisions on the way.
	for _, want := range []string{
		"gateway.dispatch", "machine=m1", "machine=m2", "rpc=query-tr",
		"state.query-tr", "engine.fit", "engine.solve", "@ cache-miss",
	} {
		if !strings.Contains(a.server, want) {
			t.Fatalf("server traces missing %q:\n%s", want, a.server)
		}
	}

	// Same seed, same bytes — the whole forest, both sides of the wire.
	b := runTracedFaultOnce(t, seed)
	if a.client != b.client {
		t.Fatalf("client span trees differ between identical seeds:\n--- run A ---\n%s\n--- run B ---\n%s", a.client, b.client)
	}
	if a.server != b.server {
		t.Fatalf("server span trees differ between identical seeds:\n--- run A ---\n%s\n--- run B ---\n%s", a.server, b.server)
	}
}
