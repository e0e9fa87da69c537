package ishare

import (
	"context"
	"errors"
	"net"
	"testing"
	"time"

	"fgcs/internal/avail"
	"fgcs/internal/monitor"
	"fgcs/internal/obs"
	"fgcs/internal/predict"
	"fgcs/internal/simclock"
)

// failOnceSource fails its first read: the monitor's read-error path.
type failOnceSource struct{ failed bool }

func (s *failOnceSource) Read() (float64, float64, error) {
	if !s.failed {
		s.failed = true
		return 0, 0, errors.New("probe not ready")
	}
	return 5, 400, nil
}

// TestObsPlaneEveryFamilyMoves audits the plane itself: it drives one node,
// assembled as NewHostNode assembles it but around an engine whose cache
// holds one query's kernels and no more, through a session that exercises
// every instrumented path, then walks the node's /metrics snapshot. Every family there — registered or derived —
// must have a series the session moved: a family nothing can move is an
// orphan to delete with its registration, not a line to exempt here.
func TestObsPlaneEveryFamilyMoves(t *testing.T) {
	ctx := context.Background()
	const machine = "lab-01"
	clock := simclock.NewVirtual(monday.AddDate(0, 0, 11).Add(8 * time.Hour))
	o := NewNodeObs()
	// A query asks the engine once per predictor — SMP, FFT and PCT — so a
	// cache of one slot would thrash without ever hitting; one slot each lets
	// the second window evict the first and a repeat of it hit.
	engine := predict.NewEngine(predict.EngineConfig{CacheSize: 3})
	engine.SetMetrics(o.Engine)
	sm, err := NewStateManagerShared(machine, period, avail.DefaultConfig(), clock, historyMachine(machine, 11, -1), 0,
		SharedDeps{Obs: o, Engine: engine})
	if err != nil {
		t.Fatal(err)
	}
	gw, err := NewGateway(machine, avail.DefaultConfig(), period, clock, sm)
	if err != nil {
		t.Fatal(err)
	}
	mon, err := monitor.New(monitor.Config{Period: period, Clock: clock,
		Metrics: &monitor.Metrics{Errors: o.Monitor.Errors, TickSeconds: o.Monitor.TickSeconds}}, &failOnceSource{}, gw)
	if err != nil {
		t.Fatal(err)
	}
	breakers := NewBreakerSet(BreakerConfig{Threshold: 1, Cooldown: time.Hour}, clock)
	o.instrumentBreakers(breakers)

	// The gateway's own handler, plus a request type that parks so a second
	// request on the connection finds its one pipelining slot taken.
	parked, release := make(chan struct{}), make(chan struct{})
	serve := gw.Handler()
	srv, err := listenRoutes("127.0.0.1:0", func(req Request) (interface{}, error) {
		if req.Type == "park" {
			close(parked)
			<-release
		}
		return serve(req)
	}, ServerConfig{PerConnInflight: 1}, o)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	registry, err := NewServerConfig("127.0.0.1:0", func(Request) (interface{}, error) { return nil, nil }, ServerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer registry.Close()
	dead, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dead.Close()

	pool := &Pool{}
	defer pool.Close()
	caller := &Caller{Pool: pool, Metrics: o.Caller,
		Retry: RetryPolicy{MaxAttempts: 2, BaseDelay: time.Millisecond, MaxDelay: time.Millisecond}}
	remote := RemoteGateway{Addr: srv.Addr(), Timeout: 5 * time.Second, Caller: caller}

	// Register; then a registration nobody answers: retried, failed below the
	// application both times, and enough to open that machine's breaker.
	if err := RegisterWithTTL(ctx, caller, registry.Addr(), machine, srv.Addr(), time.Minute, time.Second); err != nil {
		t.Fatal(err)
	}
	breakers.allow("gone")
	breakers.report("gone", RegisterWithTTL(ctx, caller, dead.Addr().String(), machine, srv.Addr(), time.Minute, time.Second))

	// The monitor: one failed read, one sample through the gateway.
	mon.Tick(clock.Now())
	mon.Tick(clock.Now())

	// A claim resolved on this machine, so the tracker's per-key families
	// have a series.
	o.Tracker.RecordPrediction(machine, "SMP", 0.9, clock.Now().Add(-2*time.Hour), time.Minute)
	o.Tracker.Observe(machine, clock.Now().Add(-time.Hour), true)
	// Two windows and the second again: misses, evictions, hits. Their
	// predictions stay pending.
	for _, hours := range []float64{1, 2, 2} {
		if _, err := remote.QueryTR(ctx, QueryTRReq{LengthSeconds: hours * 3600, GuestMemMB: 100}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := remote.QueryTR(ctx, QueryTRReq{LengthSeconds: -1}); err == nil {
		t.Fatal("a negative window was served")
	}
	// A shed: the parked request holds the connection's slot.
	held := make(chan error, 1)
	go func() { held <- caller.Call(ctx, srv.Addr(), "park", nil, nil, 5*time.Second) }()
	<-parked
	if err := caller.Call(ctx, srv.Addr(), msgQueryStats, QueryStatsReq{}, nil, 5*time.Second); !isOverloaded(err) {
		t.Fatalf("second pipelined request returned %v, want overloaded", err)
	}
	close(release)
	<-held
	// A machine that leaves with a prediction still pending: dropped.
	o.Tracker.SetRetention(obs.RetentionPolicy{IdleTTL: time.Hour})
	o.Tracker.RecordPrediction("left", "SMP", 0.5, clock.Now().Add(-48*time.Hour), time.Hour)
	o.Tracker.EvictIdle(clock.Now())

	moved := map[string]bool{}
	for _, sr := range obs.NodeSeries(o.Registry, o.Tracker) {
		moved[sr.Name] = moved[sr.Name] || sr.Count > 0 || sr.Value != 0 || sr.Hist.Count > 0
	}
	if len(moved) < 29 {
		t.Errorf("only %d families in the node snapshot: %v", len(moved), moved)
	}
	for family, ok := range moved {
		if !ok {
			t.Errorf("no step of the session moved %s", family)
		}
	}
}
