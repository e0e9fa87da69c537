package main

import (
	"fmt"
	"math"
	"sync/atomic"
	"time"

	"fgcs/internal/avail"
	"fgcs/internal/ishare"
	"fgcs/internal/predict"
	"fgcs/internal/rng"
	"fgcs/internal/trace"
	"fgcs/internal/workload"
)

// The request every query-tr of the network workloads carries: a 1 h guest
// job with a 100 MB working set.
var hotQuery = ishare.QueryTRReq{LengthSeconds: 3600, GuestMemMB: 100}

const rpcTimeout = 10 * time.Second

// benchClock is the bench-owned clock the program under test reads. It only
// moves when the workload moves it, so a query's window — and with it the
// engine's cache key — is a function of the schedule, not of wall time.
type benchClock struct{ ns atomic.Int64 }

func newBenchClock(t time.Time) *benchClock {
	c := &benchClock{}
	c.set(t)
	return c
}

func (c *benchClock) set(t time.Time)                        { c.ns.Store(t.UnixNano()) }
func (c *benchClock) Now() time.Time                         { return time.Unix(0, c.ns.Load()).UTC() }
func (c *benchClock) After(d time.Duration) <-chan time.Time { return time.After(d) }
func (c *benchClock) Sleep(d time.Duration)                  { time.Sleep(d) }

// histories generates `machines` seeded lab-machine histories of `days`
// days; today is the day after the last one.
func histories(seed uint64, machines, days int) (ds *trace.Dataset, today time.Time, err error) {
	p := workload.DefaultParams()
	p.Seed = seed
	p.Machines = machines
	p.Days = days
	ds, err = workload.Generate(p)
	if err != nil {
		return nil, time.Time{}, fmt.Errorf("generate histories: %w", err)
	}
	return ds, p.Start.AddDate(0, 0, days), nil
}

// benignSample draws one of today's samples: a lightly loaded, reachable
// machine. Today must stay in a recoverable state, or QueryTR answers 0
// without fitting anything and the op measures nothing.
func benignSample(r *rng.Stream) trace.Sample {
	return trace.Sample{CPU: r.Uniform(3, 15), FreeMemMB: r.Uniform(380, 420), Up: true}
}

// feedToday records one benign sample per period over [from, until).
func feedToday(record func(time.Time, trace.Sample), from, until time.Time, r *rng.Stream) {
	for t := from; t.Before(until); t = t.Add(trace.DefaultPeriod) {
		record(t, benignSample(r))
	}
}

// typedDaysBefore is the day pool StateManager.QueryTR fits on: the
// machine's days strictly before today that share today's day type — the
// same *trace.Day pointers, so a bench-owned engine call lands on the same
// cache key the manager's own call does.
func typedDaysBefore(m *trace.Machine, today time.Time) []*trace.Day {
	tt := trace.TypeOfDate(today)
	var out []*trace.Day
	for _, d := range m.Days {
		if d.Date.Before(today) && d.Type() == tt {
			out = append(out, d)
		}
	}
	return out
}

// node is one host node wired as production wires it, with the engine and
// the observability bundle held by the bench so the ladder can call them.
type node struct {
	sm     *ishare.StateManager
	gw     *ishare.Gateway
	obs    *ishare.NodeObs
	engine *predict.Engine
}

func newNode(id string, clock *benchClock, preloaded *trace.Machine) (*node, error) {
	obs := ishare.NewNodeObs()
	engine := predict.NewEngine(predict.EngineConfig{})
	engine.SetMetrics(obs.Engine)
	sm, err := ishare.NewStateManagerShared(id, trace.DefaultPeriod, avail.DefaultConfig(), clock, preloaded, 0,
		ishare.SharedDeps{Obs: obs, Engine: engine})
	if err != nil {
		return nil, fmt.Errorf("state manager %s: %w", id, err)
	}
	gw, err := ishare.NewGateway(id, avail.DefaultConfig(), trace.DefaultPeriod, clock, sm)
	if err != nil {
		return nil, fmt.Errorf("gateway %s: %w", id, err)
	}
	return &node{sm: sm, gw: gw, obs: obs, engine: engine}, nil
}

// sameAnswer reports whether two query-tr answers agree bit for bit on
// everything but the cumulative cache counters.
func sameAnswer(a, b ishare.QueryTRResp) bool {
	return math.Float64bits(a.TR) == math.Float64bits(b.TR) && a.HistoryWindows == b.HistoryWindows &&
		a.CurrentState == b.CurrentState && a.Predictor == b.Predictor
}
