package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"time"

	"fgcs/internal/avail"
	"fgcs/internal/ishare"
	"fgcs/internal/otrace"
	"fgcs/internal/predict"
	"fgcs/internal/rng"
	"fgcs/internal/timeseries"
	"fgcs/internal/trace"
)

// netClients is the number of closed-loop client goroutines of the network
// workloads. The system's callers — schedulers, isharec, peer gateways —
// each wait for a reply, so a closed loop is the honest model; two is what
// the host's two CPUs can keep busy next to the server.
const netClients = 2

// serveHot is the serve-hot fixture: one gateway behind the real Server on
// loopback TCP, two clients over one Pool, every op the same query-tr, so
// the engine answers from its kernel cache and the wire path does nearly
// all the work.
type serveHot struct {
	node   *node
	srv    *ishare.Server
	pool   *ishare.Pool
	caller *ishare.Caller
	meter  *countingDialer // traced fixtures only

	want       ishare.QueryTRResp // Gateway.QueryTR called in process
	wantMisses uint64             // engine misses once the key is warm

	// The warm key, for the ladder's direct engine and tracker calls.
	days   []*trace.Day
	window predict.Window
	start  time.Time

	lat []int64
	rep serveHotRep
	// Counter deltas over the last repetition.
	hits, misses, wireBytes, wireWrites uint64
}

// serveHotRep is the state of the repetition in progress: per-client
// failure counts and answer digests, and the counters at its start.
type serveHotRep struct {
	failed        [netClients]int
	answers       [netClients]*digest
	stats         predict.EngineStats
	bytes, writes int64
}

func setupServeHot(seed uint64, traced bool) (fixture, error) {
	ds, today, err := histories(seed, 1, 28)
	if err != nil {
		return nil, err
	}
	m := ds.Machines[0]
	now := today.Add(9 * time.Hour)
	clock := newBenchClock(now)
	nd, err := newNode(m.ID, clock, m)
	if err != nil {
		return nil, err
	}
	feedToday(nd.gw.Record, today, now.Add(trace.DefaultPeriod), rng.New(seed).Split("today"))

	f := &serveHot{
		node:   nd,
		days:   typedDaysBefore(m, today),
		window: predict.Window{Start: 9 * time.Hour, Length: time.Hour},
		start:  now,
	}
	if f.srv, err = nd.gw.ServeConfig("127.0.0.1:0", ishare.ServerConfig{}); err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	f.pool = &ishare.Pool{MaxPerHost: 1}
	if traced {
		f.meter = &countingDialer{}
		f.pool.Dialer = f.meter
	}
	f.caller = &ishare.Caller{Pool: f.pool}

	// The first query fits the kernel and the plugin predictors; everything
	// after it is a hit. Priming the cache and dialling the pooled
	// connection are set-up.
	if f.want, err = nd.gw.QueryTR(context.Background(), hotQuery); err != nil {
		f.close()
		return nil, fmt.Errorf("prime query: %w", err)
	}
	f.wantMisses = nd.sm.EngineStats().Misses
	var resp ishare.QueryTRResp
	if err := f.caller.Call(context.Background(), f.srv.Addr(), ishare.MsgQueryTR, hotQuery, &resp, rpcTimeout); err != nil {
		f.close()
		return nil, fmt.Errorf("first call: %w", err)
	}
	return f, nil
}

func (f *serveHot) prepare(n int) error {
	if cap(f.lat) < n {
		f.lat = make([]int64, n)
	}
	f.lat = f.lat[:n]
	f.rep = serveHotRep{stats: f.node.sm.EngineStats()}
	for c := range f.rep.answers {
		f.rep.answers[c] = newDigest()
	}
	if f.meter != nil {
		f.rep.bytes, f.rep.writes = f.meter.bytes.Load(), f.meter.writes.Load()
	}
	return nil
}

func (f *serveHot) run(tr *tracer) ([]int64, error) {
	addr := f.srv.Addr()
	var wg sync.WaitGroup
	for c := 0; c < netClients; c++ {
		wg.Add(1)
		go func(c int, sb *spanBuf) {
			defer wg.Done()
			ctx := context.Background()
			for i := c; i < len(f.lat); i += netClients {
				var resp ishare.QueryTRResp
				t0 := time.Now()
				sp := sb.begin("ishare.client.call_us", -1, i)
				err := f.caller.Call(ctx, addr, ishare.MsgQueryTR, hotQuery, &resp, rpcTimeout)
				sb.end(sp)
				f.lat[i] = int64(time.Since(t0))
				if err != nil || !sameAnswer(resp, f.want) || resp.CacheMisses != f.wantMisses {
					f.rep.failed[c]++
				}
				f.rep.answers[c].f64(resp.TR)
			}
		}(c, tr.buf(wServeHot, c))
	}
	wg.Wait()
	return f.lat, nil
}

func (f *serveHot) finish() repOutcome {
	st := f.node.sm.EngineStats()
	f.hits, f.misses = st.Hits-f.rep.stats.Hits, st.Misses-f.rep.stats.Misses
	if f.meter != nil {
		f.wireBytes, f.wireWrites = uint64(f.meter.bytes.Load()-f.rep.bytes), uint64(f.meter.writes.Load()-f.rep.writes)
	}
	out := repOutcome{attempted: len(f.lat)}
	d := newDigest()
	for c := range f.rep.answers {
		out.failed += f.rep.failed[c]
		d.u64(f.rep.answers[c].sum())
	}
	out.answers = d.sum()
	return out
}

// predictorNames lists the predictors one query registers with the accuracy
// tracker: SMP, the five reference baselines, FFT and PCT.
func predictorNames() []string {
	names := []string{"SMP"}
	for _, fit := range timeseries.ReferenceSuite() {
		names = append(names, fit.Name())
	}
	return append(names, predict.DefaultSpectral().Name(), predict.DefaultPercentile().Name())
}

func (f *serveHot) ladder(tr *tracer, ls *layerSet, ops int) error {
	ctx := context.Background()
	sb := tr.buf(wServeHot, -1)
	handler := f.node.gw.Handler()
	reqPayload, err := json.Marshal(hotQuery)
	if err != nil {
		return err
	}
	respPayload, err := json.Marshal(f.want)
	if err != nil {
		return err
	}

	cfg := avail.DefaultConfig()
	cfg.GuestMemMB = hotQuery.GuestMemMB
	smp := predict.SMP{Cfg: cfg}
	fft, pct := predict.DefaultSpectral(), predict.DefaultPercentile()
	fft.Cfg, pct.Cfg = cfg, cfg
	in := predict.PluginInput{Days: f.days, Window: f.window, Period: trace.DefaultPeriod}

	// The tracker rung runs on a probe machine whose pending queue is
	// saturated first, the state every served query finds its own in.
	tracker, names := f.node.obs.Tracker, predictorNames()
	const probe = "ladder-probe"
	for i := 0; i < 4096; i++ {
		tracker.RecordPrediction(probe, names[i%len(names)], 0.5, f.start, f.window.Length)
	}

	var frame []byte
	rd := bytes.NewReader(nil)
	br := bufio.NewReader(rd)
	decode := func(buf []byte) error {
		rd.Reset(buf)
		br.Reset(rd)
		_, err := ishare.DecodeFrame(br, 0)
		return err
	}

	missesBefore := f.node.engine.Stats().Misses
	for i := 0; i < ops; i++ {
		h := sb.begin("ishare.gateway.handler", -1, i)
		_, err := handler(ishare.Request{Type: ishare.MsgQueryTR, Payload: reqPayload})
		sb.end(h)
		if err != nil {
			return fmt.Errorf("ladder handler: %w", err)
		}

		q := sb.begin("ishare.gateway.query", h, i)
		resp, err := f.node.gw.QueryTR(ctx, hotQuery)
		sb.end(q)
		if err != nil || !sameAnswer(resp, f.want) {
			return fmt.Errorf("ladder Gateway.QueryTR: %v (answer %+v)", err, resp)
		}

		e := sb.begin("predict.engine.hit_us", q, i)
		tr1, err1 := f.node.engine.PredictFromCtx(ctx, smp, f.days, f.window, avail.S1)
		_, err2 := f.node.engine.PredictPluginCtx(ctx, fft, in)
		_, err3 := f.node.engine.PredictPluginCtx(ctx, pct, in)
		sb.end(e)
		if err1 != nil || err2 != nil || err3 != nil || tr1 != f.want.TR {
			return fmt.Errorf("ladder engine: %v %v %v (TR %v, want %v)", err1, err2, err3, tr1, f.want.TR)
		}

		t := sb.begin("obs.tracker.record_us", q, i)
		for _, name := range names {
			tracker.RecordPrediction(probe, name, tr1, f.start, f.window.Length)
		}
		sb.end(t)

		c := sb.begin("ishare.frame.codec_us", -1, i)
		frame = ishare.AppendRequestFrame(frame[:0], uint64(i), ishare.MsgQueryTR, otrace.Link{}, reqPayload)
		errReq := decode(frame)
		frame = ishare.AppendResponseFrame(frame[:0], uint64(i), true, false, "", respPayload)
		errResp := decode(frame)
		sb.end(c)
		if errReq != nil || errResp != nil {
			return fmt.Errorf("ladder frame codec: %v %v", errReq, errResp)
		}
	}
	if m := f.node.engine.Stats().Misses; m != missesBefore {
		return fmt.Errorf("ladder engine calls missed the warm key (%d misses)", m-missesBefore)
	}

	mean, _ := tr.layerMeans(wServeHot)
	ls.fromSpans(wServeHot, mean)
	us := func(name string) float64 { return mean[name] / 1e3 }
	call := us("ishare.client.call_us")
	ls.self("ishare.wire.self_us", call-us("ishare.gateway.handler"), call)
	ls.self("ishare.dispatch.self_us", us("ishare.gateway.handler")-us("ishare.gateway.query"), call)
	ls.self("ishare.state.query_self_us", us("ishare.gateway.query")-us("predict.engine.hit_us")-us("obs.tracker.record_us"), call)
	calls := float64(len(f.lat))
	ls.set("ishare.wire.bytes_per_op", float64(f.wireBytes)/calls)
	ls.set("ishare.wire.writes_per_op", float64(f.wireWrites)/calls)
	ls.set("predict.engine.hit_ratio", float64(f.hits)/float64(f.hits+f.misses))
	return nil
}

func (f *serveHot) close() {
	f.pool.Close()
	f.srv.Close()
}
