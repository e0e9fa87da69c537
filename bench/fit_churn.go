package main

import (
	"context"
	"fmt"
	"time"

	"fgcs/internal/avail"
	"fgcs/internal/ishare"
	"fgcs/internal/monitor"
	"fgcs/internal/predict"
	"fgcs/internal/rng"
	"fgcs/internal/smp"
	"fgcs/internal/timeseries"
	"fgcs/internal/trace"
)

const (
	fitMachines = 4
	fitDays     = 28
	// Queries start at 08:00 so that the longest window (10 h) still ends
	// before midnight, where QueryTR would clip it.
	fitStartOfDay = 8 * time.Hour
)

// fitCycle is the window-length schedule, the paper's Fig. 4 axis. It is
// uneven on purpose: five of eight ops are 1 h fits and two are 10 h fits,
// so the median sits inside the 1 h mode and p90 inside the 10 h mode rather
// than on the boundary between two modes.
var fitCycle = [8]time.Duration{
	time.Hour, time.Hour, time.Hour, time.Hour, time.Hour,
	5 * time.Hour, 10 * time.Hour, 10 * time.Hour,
}

// fitOp is one schedule slot: advance machine m's clock one period, record
// s, query a window of the given length starting now.
type fitOp struct {
	m      int
	length time.Duration
	s      trace.Sample
}

// fitChurn is the fit-churn fixture: four StateManagers over four seeded
// 28-day histories, driven in process. The window start moves with the
// clock every op, so every query is an engine miss — SMP fit and solve, FFT
// and PCT plugin fits — and the sample recorded just before it invalidated
// the baseline memo, so the five reference fitters refit too.
type fitChurn struct {
	seed     uint64
	machines []*trace.Machine
	today    time.Time
	days     [][]*trace.Day // per machine: the pool QueryTR fits on

	sched  []fitOp
	sms    []*ishare.StateManager
	clocks []*benchClock
	lat    []int64
	rep    fitChurnRep
	// Engine counters of the last repetition, all managers.
	hits, misses uint64
}

// fitChurnRep is the state of the repetition in progress.
type fitChurnRep struct {
	failed  int
	answers *digest
	misses  [fitMachines]uint64 // engine misses each manager should report
}

func setupFitChurn(seed uint64, traced bool) (fixture, error) {
	ds, today, err := histories(seed, fitMachines, fitDays)
	if err != nil {
		return nil, err
	}
	f := &fitChurn{seed: seed, machines: ds.Machines, today: today}
	for _, m := range ds.Machines {
		f.days = append(f.days, typedDaysBefore(m, today))
	}
	// The managers are rebuilt before every repetition; building them once
	// here keeps that cost visible in setup_s as well.
	return f, f.rebuild()
}

// schedule is the first n ops: whole cycles rotate over the machines, the
// samples come from one seeded stream.
func (f *fitChurn) schedule(n int) []fitOp {
	r := rng.New(f.seed).Split("fit-churn-ops")
	ops := make([]fitOp, n)
	for i := range ops {
		ops[i] = fitOp{m: (i / len(fitCycle)) % fitMachines, length: fitCycle[i%len(fitCycle)], s: benignSample(r)}
	}
	return ops
}

// rebuild makes four fresh managers with cold engines and rewinds their
// clocks, so every repetition sees the same windows and the same state.
func (f *fitChurn) rebuild() error {
	f.sms, f.clocks = f.sms[:0], f.clocks[:0]
	now := f.today.Add(fitStartOfDay)
	for i, m := range f.machines {
		clock := newBenchClock(now)
		sm, err := ishare.NewStateManager(m.ID, trace.DefaultPeriod, avail.DefaultConfig(), clock, m, 0)
		if err != nil {
			return fmt.Errorf("state manager %s: %w", m.ID, err)
		}
		feedToday(sm.Record, f.today, now.Add(trace.DefaultPeriod), rng.New(f.seed).SplitN("fit-churn-today", i))
		f.sms, f.clocks = append(f.sms, sm), append(f.clocks, clock)
	}
	return nil
}

func (f *fitChurn) prepare(n int) error {
	if len(f.sched) != n {
		f.sched = f.schedule(n)
		f.lat = make([]int64, n)
	}
	if err := f.rebuild(); err != nil {
		return err
	}
	f.rep = fitChurnRep{answers: newDigest()}
	return nil
}

func (f *fitChurn) engineStats() (hits, misses uint64) {
	for _, sm := range f.sms {
		st := sm.EngineStats()
		hits, misses = hits+st.Hits, misses+st.Misses
	}
	return hits, misses
}

func (f *fitChurn) run(tr *tracer) ([]int64, error) {
	ctx := context.Background()
	sb := tr.buf(wFitChurn, 0)
	for i, op := range f.sched {
		sm, clock := f.sms[op.m], f.clocks[op.m]
		t0 := time.Now()
		now := clock.Now().Add(trace.DefaultPeriod)
		clock.set(now)
		sp := sb.begin("ishare.state.record_us", -1, i)
		sm.Record(now, op.s)
		sb.end(sp)
		sp = sb.begin("ishare.state.query_us", -1, i)
		resp, err := sm.QueryTR(ctx, ishare.QueryTRReq{LengthSeconds: op.length.Seconds(), GuestMemMB: hotQuery.GuestMemMB})
		sb.end(sp)
		f.lat[i] = int64(time.Since(t0))
		// A correct op fitted on the whole day pool from a recoverable
		// state, and all three cached predictors missed (the managers are
		// fresh, so their miss counters started the repetition at zero).
		f.rep.misses[op.m] += 3
		if err != nil || resp.HistoryWindows != len(f.days[op.m]) || resp.CurrentState != avail.S1.String() ||
			resp.TR < 0 || resp.TR > 1 || resp.CacheMisses != f.rep.misses[op.m] {
			f.rep.failed++
		}
		f.rep.answers.f64(resp.TR)
	}
	return f.lat, nil
}

func (f *fitChurn) finish() repOutcome {
	f.hits, f.misses = f.engineStats()
	return repOutcome{attempted: len(f.sched), failed: f.rep.failed, answers: f.rep.answers.sum()}
}

func (f *fitChurn) ladder(tr *tracer, ls *layerSet, ops int) error {
	ctx := context.Background()
	sb := tr.buf(wFitChurn, -1)
	cfg := avail.DefaultConfig()
	cfg.GuestMemMB = hotQuery.GuestMemMB
	period := trace.DefaultPeriod
	smpCfg := predict.SMP{Cfg: cfg}
	fft, pct := predict.DefaultSpectral(), predict.DefaultPercentile()
	fft.Cfg, pct.Cfg = cfg, cfg
	engine := predict.NewEngine(predict.EngineConfig{})
	ex := avail.NewExtractor(cfg, period)
	ws := &smp.Workspace{}
	fitters := timeseries.ReferenceSuite()

	// Bench-owned recorders mirror today's log of each machine, for the
	// DayWindow rung.
	now := make([]time.Time, fitMachines)
	recs := make([]*monitor.Recorder, fitMachines)
	for i, m := range f.machines {
		now[i] = f.today.Add(fitStartOfDay)
		recs[i] = monitor.NewRecorder(m.ID, period, 0)
		feedToday(recs[i].Record, f.today, now[i].Add(period), rng.New(f.seed).SplitN("fit-churn-today", i))
	}

	for i, op := range f.schedule(ops) {
		now[op.m] = now[op.m].Add(period)
		recs[op.m].Record(now[op.m], op.s)
		w := predict.Window{Start: now[op.m].Sub(f.today), Length: op.length}
		days, units := f.days[op.m], w.Units(period)

		name := "predict.engine.miss_5h"
		switch op.length {
		case time.Hour:
			name = "predict.engine.miss_1h_us"
		case 10 * time.Hour:
			name = "predict.engine.miss_10h_us"
		}
		e := sb.begin(name, -1, i)
		_, err := engine.PredictFromCtx(ctx, smpCfg, days, w, avail.S1)
		sb.end(e)
		if err != nil {
			return fmt.Errorf("ladder engine miss: %w", err)
		}

		sp := sb.begin("avail.extract_us", e, i)
		ex.Reset(cfg, period)
		for _, d := range days {
			ex.AddWindow(d.Window(w.Start, w.Length), false)
		}
		seqs := ex.Seqs()
		sb.end(sp)

		sp = sb.begin("smp.estimate_us", e, i)
		kernel, err := smp.Estimator{Horizon: units}.Estimate(seqs)
		sb.end(sp)
		if err != nil {
			return fmt.Errorf("ladder estimate: %w", err)
		}

		sp = sb.begin("smp.solve_us", e, i)
		_, _, err = kernel.ReliabilitiesWS(ws, units)
		sb.end(sp)
		if err != nil {
			return fmt.Errorf("ladder solve: %w", err)
		}

		in := predict.PluginInput{Days: days, Window: w, Period: period}
		sp = sb.begin("predict.plugin.fft_us", -1, i)
		_, errF := engine.PredictPluginCtx(ctx, fft, in)
		sb.end(sp)
		sp = sb.begin("predict.plugin.pct_us", -1, i)
		_, errP := engine.PredictPluginCtx(ctx, pct, in)
		sb.end(sp)
		if errF != nil || errP != nil {
			return fmt.Errorf("ladder plugins: %v %v", errF, errP)
		}

		prevStart := w.Start - w.Length
		if prevStart < 0 {
			prevStart = 0
		}
		sp = sb.begin("monitor.daywindow_us", -1, i)
		prev := recs[op.m].DayWindow(f.today, prevStart, w.Start-prevStart)
		sb.end(sp)
		b := sb.begin("timeseries.baselines_us", -1, i)
		for _, fit := range fitters {
			if _, err := (predict.TimeSeries{Cfg: cfg, Fitter: fit}).PredictWindow(prev, w, period); err != nil {
				return fmt.Errorf("ladder baseline %s: %w", fit.Name(), err)
			}
		}
		sb.end(b)
	}

	mean, _ := tr.layerMeans(wFitChurn)
	ls.fromSpans(wFitChurn, mean)
	ls.set("predict.engine.miss_ratio", float64(f.misses)/float64(f.hits+f.misses))
	return nil
}

func (f *fitChurn) close() {}
