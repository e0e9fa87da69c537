package ishare

import (
	"context"
	"fmt"
	"math"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"fgcs/internal/avail"
	"fgcs/internal/otrace"
	"fgcs/internal/predict"
	"fgcs/internal/rng"
	"fgcs/internal/simclock"
	"fgcs/internal/trace"
)

var monday = time.Date(2005, 8, 22, 0, 0, 0, 0, time.UTC)

const period = trace.DefaultPeriod

func testNode(t *testing.T, clock simclock.Clock, preloaded *trace.Machine) *HostNode {
	t.Helper()
	n, err := NewHostNode(NodeConfig{
		MachineID: "lab-01",
		Cfg:       avail.DefaultConfig(),
		Period:    period,
		Clock:     clock,
		Preloaded: preloaded,
	}, staticSource{})
	if err != nil {
		t.Fatal(err)
	}
	return n
}

type staticSource struct{}

func (staticSource) Read() (float64, float64, error) { return 5, 400, nil }

// sample builds an up sample with the given CPU and free memory.
func sample(cpu, free float64) trace.Sample {
	return trace.Sample{CPU: cpu, FreeMemMB: free, Up: true}
}

// feed pushes n identical samples through the gateway starting at start.
func feed(g *Gateway, start time.Time, s trace.Sample, n int) time.Time {
	t := start
	for i := 0; i < n; i++ {
		g.Record(t, s)
		t = t.Add(period)
	}
	return t
}

func TestGatewaySubmitValidation(t *testing.T) {
	n := testNode(t, simclock.NewVirtual(monday), nil)
	g := n.Gateway
	for _, bad := range []SubmitReq{
		{Name: "a", WorkSeconds: 0},
		{Name: "a", WorkSeconds: 60, MemMB: -1},
		{Name: "a", WorkSeconds: 60, InitialProgressSeconds: -1},
		{Name: "a", WorkSeconds: 60, InitialProgressSeconds: 60},
	} {
		if _, err := g.Submit(context.Background(), bad); err == nil {
			t.Errorf("invalid submit %+v accepted", bad)
		}
	}
	if _, err := g.Submit(context.Background(), SubmitReq{Name: "ok", WorkSeconds: 600, MemMB: 50}); err != nil {
		t.Fatal(err)
	}
	// Only one guest at a time.
	if _, err := g.Submit(context.Background(), SubmitReq{Name: "second", WorkSeconds: 60}); err == nil {
		t.Fatal("second concurrent job accepted")
	}
}

func TestGatewayJobCompletes(t *testing.T) {
	n := testNode(t, simclock.NewVirtual(monday), nil)
	g := n.Gateway
	resp, err := g.Submit(context.Background(), SubmitReq{Name: "job", WorkSeconds: 60, MemMB: 50})
	if err != nil {
		t.Fatal(err)
	}
	// Idle host: progress at ~95% rate → ~11 samples of 6 s.
	feed(g, monday, sample(5, 400), 12)
	st, err := g.JobStatus(context.Background(), JobStatusReq{JobID: resp.JobID})
	if err != nil {
		t.Fatal(err)
	}
	if st.State != "completed" {
		t.Fatalf("state = %s, progress %v/%v", st.State, st.ProgressSeconds, st.WorkSeconds)
	}
	if st.ProgressSeconds != st.WorkSeconds {
		t.Fatalf("progress %v != work %v", st.ProgressSeconds, st.WorkSeconds)
	}
	// A fresh job may now be submitted.
	if _, err := g.Submit(context.Background(), SubmitReq{Name: "next", WorkSeconds: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestGatewayReniceBand(t *testing.T) {
	n := testNode(t, simclock.NewVirtual(monday), nil)
	g := n.Gateway
	resp, _ := g.Submit(context.Background(), SubmitReq{Name: "job", WorkSeconds: 3600, MemMB: 50})
	feed(g, monday, sample(40, 400), 3) // Th1 <= L <= Th2
	st, _ := g.JobStatus(context.Background(), JobStatusReq{JobID: resp.JobID})
	if st.State != "reniced" {
		t.Fatalf("state = %s, want reniced", st.State)
	}
	// Load drops: back to default priority.
	feed(g, monday.Add(time.Minute), sample(5, 400), 3)
	st, _ = g.JobStatus(context.Background(), JobStatusReq{JobID: resp.JobID})
	if st.State != "running" {
		t.Fatalf("state = %s, want running", st.State)
	}
}

func TestGatewaySuspendResume(t *testing.T) {
	n := testNode(t, simclock.NewVirtual(monday), nil)
	g := n.Gateway
	resp, _ := g.Submit(context.Background(), SubmitReq{Name: "job", WorkSeconds: 3600, MemMB: 50})
	// 5 samples (30 s) above Th2: suspended but not killed.
	next := feed(g, monday, sample(90, 400), 5)
	st, _ := g.JobStatus(context.Background(), JobStatusReq{JobID: resp.JobID})
	if st.State != "suspended" {
		t.Fatalf("state = %s, want suspended", st.State)
	}
	progress := st.ProgressSeconds
	// Load diminishes within the limit: the guest resumes (reniced band).
	feed(g, next, sample(40, 400), 2)
	st, _ = g.JobStatus(context.Background(), JobStatusReq{JobID: resp.JobID})
	if st.State != "reniced" {
		t.Fatalf("state = %s, want reniced after resume", st.State)
	}
	if st.ProgressSeconds <= progress {
		t.Fatal("no progress after resume")
	}
}

func TestGatewayKillsAfterSuspendLimit(t *testing.T) {
	n := testNode(t, simclock.NewVirtual(monday), nil)
	g := n.Gateway
	resp, _ := g.Submit(context.Background(), SubmitReq{Name: "job", WorkSeconds: 3600, MemMB: 50})
	// 11 samples above Th2 ≥ 1 minute: killed (S3).
	feed(g, monday, sample(95, 400), 11)
	st, _ := g.JobStatus(context.Background(), JobStatusReq{JobID: resp.JobID})
	if st.State != "killed" || !strings.Contains(st.Reason, "S3") {
		t.Fatalf("state = %s (%s), want killed S3", st.State, st.Reason)
	}
}

func TestGatewayKillsOnMemoryPressure(t *testing.T) {
	n := testNode(t, simclock.NewVirtual(monday), nil)
	g := n.Gateway
	resp, _ := g.Submit(context.Background(), SubmitReq{Name: "job", WorkSeconds: 3600, MemMB: 100})
	feed(g, monday, sample(10, 60), 1) // free 60 MB < guest 100 MB
	st, _ := g.JobStatus(context.Background(), JobStatusReq{JobID: resp.JobID})
	if st.State != "killed" || !strings.Contains(st.Reason, "S4") {
		t.Fatalf("state = %s (%s), want killed S4", st.State, st.Reason)
	}
}

func TestGatewayKillsOnRevocation(t *testing.T) {
	n := testNode(t, simclock.NewVirtual(monday), nil)
	g := n.Gateway
	resp, _ := g.Submit(context.Background(), SubmitReq{Name: "job", WorkSeconds: 3600, MemMB: 50})
	g.Record(monday, trace.Sample{Up: false})
	st, _ := g.JobStatus(context.Background(), JobStatusReq{JobID: resp.JobID})
	if st.State != "killed" || !strings.Contains(st.Reason, "S5") {
		t.Fatalf("state = %s (%s), want killed S5", st.State, st.Reason)
	}
}

func TestGatewayTransientSpikeDoesNotKill(t *testing.T) {
	n := testNode(t, simclock.NewVirtual(monday), nil)
	g := n.Gateway
	resp, _ := g.Submit(context.Background(), SubmitReq{Name: "job", WorkSeconds: 3600, MemMB: 50})
	next := feed(g, monday, sample(10, 400), 3)
	next = feed(g, next, sample(95, 400), 8) // 48 s < 1 min
	feed(g, next, sample(10, 400), 3)
	st, _ := g.JobStatus(context.Background(), JobStatusReq{JobID: resp.JobID})
	if st.State != "running" {
		t.Fatalf("state = %s after transient spike, want running", st.State)
	}
}

func TestGatewayKillByClient(t *testing.T) {
	n := testNode(t, simclock.NewVirtual(monday), nil)
	g := n.Gateway
	resp, _ := g.Submit(context.Background(), SubmitReq{Name: "job", WorkSeconds: 3600, MemMB: 50})
	st, err := g.Kill(context.Background(), JobStatusReq{JobID: resp.JobID})
	if err != nil {
		t.Fatal(err)
	}
	if st.State != "killed" {
		t.Fatalf("state = %s", st.State)
	}
	if _, err := g.Kill(context.Background(), JobStatusReq{JobID: resp.JobID}); err == nil {
		t.Fatal("double kill accepted")
	}
	if _, err := g.JobStatus(context.Background(), JobStatusReq{JobID: "nope"}); err == nil {
		t.Fatal("unknown job accepted")
	}
}

func TestJobResumeFromCheckpoint(t *testing.T) {
	n := testNode(t, simclock.NewVirtual(monday), nil)
	g := n.Gateway
	resp, err := g.Submit(context.Background(), SubmitReq{Name: "job", WorkSeconds: 600, MemMB: 50, InitialProgressSeconds: 590})
	if err != nil {
		t.Fatal(err)
	}
	feed(g, monday, sample(0, 400), 3)
	st, _ := g.JobStatus(context.Background(), JobStatusReq{JobID: resp.JobID})
	if st.State != "completed" {
		t.Fatalf("checkpointed job state = %s, progress %v", st.State, st.ProgressSeconds)
	}
}

// historyMachine builds N days of history where the machine fails daily at
// failHour on "bad" machines.
func historyMachine(id string, days int, failHour int) *trace.Machine {
	m := trace.NewMachine(id, period)
	for i := 0; i < days; i++ {
		d := trace.NewDay(monday.AddDate(0, 0, i), period)
		for j := range d.Samples {
			d.Samples[j] = sample(5, 400)
		}
		if failHour >= 0 {
			lo := d.IndexAt(time.Duration(failHour) * time.Hour)
			hi := d.IndexAt(time.Duration(failHour)*time.Hour + 30*time.Minute)
			for j := lo; j < hi; j++ {
				d.Samples[j].Up = false
			}
		}
		if err := m.AddDay(d); err != nil {
			panic(err)
		}
	}
	return m
}

func TestStateManagerQueryTR(t *testing.T) {
	// "Now" is Friday 2005-09-02 08:30; history covers Aug 22 - Sep 1.
	now := time.Date(2005, 9, 2, 8, 30, 0, 0, time.UTC)
	clock := simclock.NewVirtual(now)
	flaky := historyMachine("flaky", 11, 9) // fails at 09:00 daily
	sm, err := NewStateManager("flaky", period, avail.DefaultConfig(), clock, flaky, 0)
	if err != nil {
		t.Fatal(err)
	}
	sm.Record(now, sample(5, 400))
	resp, err := sm.QueryTR(context.Background(), QueryTRReq{LengthSeconds: 2 * 3600, GuestMemMB: 100})
	if err != nil {
		t.Fatal(err)
	}
	// The machine fails at 09:00 every weekday. Under the default
	// restart estimation the post-recovery data dilutes the kernel, so
	// the prediction is not ~0, but it must be far below a solid
	// machine's 1.0.
	if resp.TR > 0.7 {
		t.Fatalf("TR = %v, want well below 1 (the machine fails at 09:00 every weekday)", resp.TR)
	}
	if resp.CurrentState != "S1" {
		t.Fatalf("current state = %s", resp.CurrentState)
	}
	if resp.HistoryWindows == 0 {
		t.Fatal("no history windows used")
	}

	solid := historyMachine("solid", 11, -1)
	sm2, _ := NewStateManager("solid", period, avail.DefaultConfig(), clock, solid, 0)
	sm2.Record(now, sample(5, 400))
	resp2, err := sm2.QueryTR(context.Background(), QueryTRReq{LengthSeconds: 2 * 3600, GuestMemMB: 100})
	if err != nil {
		t.Fatal(err)
	}
	if resp2.TR != 1 {
		t.Fatalf("solid machine TR = %v, want 1", resp2.TR)
	}
}

// movedQueries drives a state manager the way a live node is driven: advance
// one period, record a sample, query a window of the given length starting
// now — a window no earlier query asked for, so every cached predictor misses.
func movedQueries(ctx context.Context, t *testing.T, sm *StateManager, clock *simclock.Virtual, length time.Duration, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		clock.Advance(period)
		sm.Record(clock.Now(), sample(5, 400))
		if _, err := sm.QueryTR(ctx, QueryTRReq{LengthSeconds: length.Seconds(), GuestMemMB: 100}); err != nil {
			t.Fatal(err)
		}
	}
}

// TestQueryTRMovedWindowAllocCeiling is a tripwire for per-query work that
// grows with the day history or the window, and for what a miss leaves in the
// cache. When every cold FFT window classified and transformed the whole pool
// again, a moved one-hour window on this 19-weekday pool allocated ≈5 MB;
// with the spectrum fitted once per pool but each of the five baselines
// building its own series, forecast, samples and ARMA design matrix,
// ≈375 KB; with those in scratch, ≈89 KB at 1 h and ≈739 KB at 10 h, most of
// it the dense kernel, which the LRU then kept. A sparse kernel with only the
// answer cached brought that to ≈37 KB and ≈212 KB: what was left grew with
// the window — the preceding window copied out of the recorder, and the MA
// and ARMA residual arrays — and a manager on a fresh engine grew a scratch
// pool of its own, ≈1 MB at 10 h. With one process-wide pool, the preceding
// window copied into scratch and q-long residual windows, a moved query
// allocates ≈12 KB at either length, on a fresh engine too. With that pool a
// sync.Pool, a collection emptied it and the next misses rebuilt ≈1.9 MB of
// scratch; the free list that replaced it keeps its scratches across
// collections, so each leg runs after two.
func TestQueryTRMovedWindowAllocCeiling(t *testing.T) {
	const ceiling = 16 << 10 // allocated, and left live, per query
	ctx := context.Background()
	manager := func() (*StateManager, *simclock.Virtual) {
		clock := simclock.NewVirtual(time.Date(2005, 9, 16, 8, 30, 0, 0, time.UTC)) // a Friday
		sm, err := NewStateManager("m", period, avail.DefaultConfig(), clock, historyMachine("m", 25, 9), 0)
		if err != nil {
			t.Fatal(err)
		}
		return sm, clock
	}
	// measure runs ten moved queries of the given length on sm and checks
	// what each allocates and what each leaves live.
	measure := func(what string, sm *StateManager, clock *simclock.Virtual, length time.Duration) {
		const n = 10
		var before, after runtime.MemStats
		runtime.GC()
		runtime.GC() // the second empties a sync.Pool, victim cache and all
		runtime.ReadMemStats(&before)
		movedQueries(ctx, t, sm, clock, length, n)
		runtime.ReadMemStats(&after)
		if perQuery := (after.TotalAlloc - before.TotalAlloc) / n; perQuery > ceiling {
			t.Errorf("%s: a QueryTR allocates %d KB, ceiling %d KB", what, perQuery>>10, ceiling>>10)
		}
		runtime.GC()
		runtime.ReadMemStats(&after)
		if after.HeapAlloc > before.HeapAlloc {
			if perQuery := (after.HeapAlloc - before.HeapAlloc) / n; perQuery > ceiling {
				t.Errorf("%s: a QueryTR leaves %d KB live, ceiling %d KB", what, perQuery>>10, ceiling>>10)
			}
		}
		runtime.KeepAlive(sm)
	}
	for _, length := range []time.Duration{time.Hour, 10 * time.Hour} {
		sm, clock := manager()
		movedQueries(ctx, t, sm, clock, length, 2) // fit the spectrum, size the scratch
		measure(fmt.Sprintf("a moved %v window", length), sm, clock, length)
	}
	// A manager on an engine of its own, warmed by one 1 h query that fits
	// its spectrum: its 10 h windows run on the scratch the managers before
	// it grew, not on buffers of its own.
	sm, clock := manager()
	movedQueries(ctx, t, sm, clock, time.Hour, 1)
	measure("a fresh engine's moved 10h window", sm, clock, 10*time.Hour)
}

// TestSharedEngineScratchDoesNotEscape: the forecast-origin baselines read the
// preceding window from, and build their series, forecast and classification
// in, scratch borrowed from the process-wide free list, which every manager
// shares with every other and with SMP's cold fits, whether or not their
// engines are one. Four goroutines, two a manager, ask for windows nobody asked for
// before, with the two managers first on one engine and then each on its
// own; every answer — the served one per query, and all eight predictors' as
// the tracker resolves them — must be what the same manager answers alone.
// Under -race this is what catches a model or a result that keeps a scratch
// buffer past its call.
func TestSharedEngineScratchDoesNotEscape(t *testing.T) {
	now := time.Date(2005, 9, 16, 12, 0, 0, 0, time.UTC) // a Friday
	midnight := now.Truncate(24 * time.Hour)
	type fixture struct {
		sm        *StateManager
		resolved  []string // "predictor tr-bits", in resolution order
		mu        sync.Mutex
		answerFor map[float64]float64 // served TR by LengthSeconds, under mu
	}
	// build makes one manager with half a day of live samples behind it; "a"
	// serves ARMA, the baseline that borrows the most, "b" serves SMP.
	build := func(id string, engine *predict.Engine) *fixture {
		sm, err := NewStateManagerShared(id, period, avail.DefaultConfig(), simclock.NewVirtual(now),
			historyMachine(id, 25, 13), 0, SharedDeps{Engine: engine}) // fails daily at 13:00: SMP's TR depends on the length
		if err != nil {
			t.Fatal(err)
		}
		if id == "a" {
			if err := sm.ForcePredictor("ARMA(8,8)"); err != nil {
				t.Fatal(err)
			}
		}
		f := &fixture{sm: sm, answerFor: make(map[float64]float64)}
		sm.Obs().Tracker.SetResolutionSink(func(_, predictor string, tr float64, _ bool) {
			f.resolved = append(f.resolved, fmt.Sprintf("%s %x", predictor, math.Float64bits(tr)))
		})
		// A busy spell before the query — "a" 10:40–11:55, "b" 09:30–11:30 —
		// so that a mean-reverting model's forecast crosses Th2 for some
		// window lengths and not for others. The last minutes are idle: the
		// machine is in a recoverable state when asked.
		busyFrom, busyTo := 10*time.Hour+40*time.Minute, 11*time.Hour+55*time.Minute
		if id == "b" {
			busyFrom, busyTo = 9*time.Hour+30*time.Minute, 11*time.Hour+30*time.Minute
		}
		r := rng.New(uint64(id[0]))
		for at := midnight; !at.After(now); at = at.Add(period) {
			level := 15.0
			if off := at.Sub(midnight); off >= busyFrom && off < busyTo {
				level = 82
			}
			sm.Record(at, sample(math.Max(level+r.Normal(0, 4), 0), 400))
		}
		return f
	}
	// lengths are the windows goroutine g asks for: distinct across the
	// goroutines of one manager, six minutes to three and a half hours.
	lengths := func(g int) []float64 {
		var out []float64
		for j := 0; j < 8; j++ {
			out = append(out, float64((g+1)*360+j*1440))
		}
		return out
	}
	ask := func(f *fixture, seconds []float64) {
		for _, s := range seconds {
			resp, err := f.sm.QueryTR(context.Background(), QueryTRReq{LengthSeconds: s, GuestMemMB: 100})
			if err != nil {
				t.Error(err)
				return
			}
			f.mu.Lock()
			f.answerFor[s] = resp.TR
			f.mu.Unlock()
		}
	}
	// finish resolves every pending prediction and sorts what the sink saw.
	finish := func(f *fixture) {
		f.sm.Record(now.Add(5*time.Hour), sample(10, 400))
		sort.Strings(f.resolved)
	}

	var alone [2]*fixture
	for i, id := range [2]string{"a", "b"} {
		alone[i] = build(id, nil)
		ask(alone[i], append(lengths(i), lengths(i+2)...))
		finish(alone[i])
		if n := len(alone[i].resolved); n != 16*len(predict.PluginNames()) {
			t.Errorf("manager %s: %d claims resolved, want every predictor's for 16 queries", id, n)
		}
		distinct := make(map[float64]bool)
		for _, tr := range alone[i].answerFor {
			distinct[tr] = true
		}
		if len(distinct) < 2 {
			t.Errorf("manager %s answers %v to every window: the check cannot tell answers apart", id, alone[i].answerFor)
		}
	}
	for _, leg := range []struct {
		name   string
		engine *predict.Engine // nil: an engine per manager
	}{{"one engine", predict.NewEngine(predict.EngineConfig{})}, {"separate engines", nil}} {
		together := [2]*fixture{build("a", leg.engine), build("b", leg.engine)}
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				ask(together[g%2], lengths(g))
			}()
		}
		wg.Wait()
		for i, id := range [2]string{"a", "b"} {
			finish(together[i])
			if !reflect.DeepEqual(together[i].answerFor, alone[i].answerFor) {
				t.Errorf("manager %s on %s: answers %v concurrently, %v alone", id, leg.name, together[i].answerFor, alone[i].answerFor)
			}
			if !reflect.DeepEqual(together[i].resolved, alone[i].resolved) {
				t.Errorf("manager %s on %s: the predictors' resolved claims differ:\nconcurrent %v\nalone      %v", id, leg.name, together[i].resolved, alone[i].resolved)
			}
		}
	}
}

// TestQueryTRTraceShowsSpectrumFitOrHit: under a sampled state.query-tr span
// a trace says whether an FFT miss paid for a transform of the day history
// (spectrum-fit, with the pool size) or reused the pool's fit (spectrum-hit).
func TestQueryTRTraceShowsSpectrumFitOrHit(t *testing.T) {
	clock := simclock.NewVirtual(time.Date(2005, 9, 2, 8, 30, 0, 0, time.UTC))
	sm, err := NewStateManager("m", period, avail.DefaultConfig(), clock, historyMachine("m", 11, 9), 0)
	if err != nil {
		t.Fatal(err)
	}
	rec := otrace.NewRecorder(4)
	tracer := otrace.New(otrace.Config{SampleRate: 1, Recorder: rec})
	for _, want := range []string{"@ spectrum-fit history-days=9", "@ spectrum-hit"} {
		ctx, root := tracer.Start(context.Background(), "test")
		movedQueries(ctx, t, sm, clock, time.Hour, 1)
		root.End()
		got := otrace.RenderTraceString(rec.Traces(1), otrace.RenderOptions{})
		for _, line := range []string{"state.query-tr", "@ cache-miss", want} {
			if !strings.Contains(got, line) {
				t.Fatalf("trace of a moved-window query is missing %q:\n%s", line, got)
			}
		}
	}
}

func TestStateManagerQueryTRValidation(t *testing.T) {
	clock := simclock.NewVirtual(monday.Add(8 * time.Hour))
	sm, _ := NewStateManager("m", period, avail.DefaultConfig(), clock, nil, 0)
	if _, err := sm.QueryTR(context.Background(), QueryTRReq{LengthSeconds: 0}); err == nil {
		t.Fatal("zero length accepted")
	}
	// No history at all: optimistic TR 1.
	resp, err := sm.QueryTR(context.Background(), QueryTRReq{LengthSeconds: 3600})
	if err != nil {
		t.Fatal(err)
	}
	if resp.TR != 1 || resp.HistoryWindows != 0 {
		t.Fatalf("no-history response = %+v", resp)
	}
}

func TestStateManagerCurrentStateUnrecoverable(t *testing.T) {
	clock := simclock.NewVirtual(monday.Add(8 * time.Hour))
	sm, _ := NewStateManager("m", period, avail.DefaultConfig(), clock, nil, 0)
	// Sustained heavy load: current state S3 → TR 0.
	tt := monday.Add(8 * time.Hour)
	for i := 0; i < 15; i++ {
		sm.Record(tt, sample(95, 400))
		tt = tt.Add(period)
	}
	if st := sm.CurrentState(); st != avail.S3 {
		t.Fatalf("current state = %v", st)
	}
	resp, err := sm.QueryTR(context.Background(), QueryTRReq{LengthSeconds: 3600})
	if err != nil {
		t.Fatal(err)
	}
	if resp.TR != 0 {
		t.Fatalf("TR = %v for an unavailable machine", resp.TR)
	}
}

func TestStateManagerWindowClipsAtMidnight(t *testing.T) {
	now := time.Date(2005, 9, 2, 23, 0, 0, 0, time.UTC)
	clock := simclock.NewVirtual(now)
	sm, _ := NewStateManager("m", period, avail.DefaultConfig(), clock, historyMachine("m", 11, -1), 0)
	sm.Record(now, sample(5, 400))
	// 10-hour job at 23:00 would cross midnight: must clip, not error.
	resp, err := sm.QueryTR(context.Background(), QueryTRReq{LengthSeconds: 10 * 3600})
	if err != nil {
		t.Fatal(err)
	}
	if resp.TR != 1 {
		t.Fatalf("TR = %v", resp.TR)
	}
}

func TestSchedulerRanksByTR(t *testing.T) {
	now := time.Date(2005, 9, 2, 8, 30, 0, 0, time.UTC)
	clock := simclock.NewVirtual(now)
	mk := func(id string, failHour int) *Gateway {
		sm, err := NewStateManager(id, period, avail.DefaultConfig(), clock, historyMachine(id, 11, failHour), 0)
		if err != nil {
			t.Fatal(err)
		}
		g, err := NewGateway(id, avail.DefaultConfig(), period, clock, sm)
		if err != nil {
			t.Fatal(err)
		}
		g.Record(now, sample(5, 400))
		return g
	}
	flaky := mk("flaky", 9)
	solid := mk("solid", -1)
	sched := &Scheduler{Candidates: []Candidate{
		{MachineID: "flaky", API: flaky},
		{MachineID: "solid", API: solid},
	}}
	job := SubmitReq{Name: "job", WorkSeconds: 2 * 3600, MemMB: 100}
	ranked, _, err := sched.Rank(context.Background(), job)
	if err != nil {
		t.Fatal(err)
	}
	if ranked[0].MachineID != "solid" {
		t.Fatalf("best machine = %s, want solid", ranked[0].MachineID)
	}
	best, resp, err := sched.SubmitBest(context.Background(), job)
	if err != nil {
		t.Fatal(err)
	}
	if best.MachineID != "solid" || resp.JobID == "" {
		t.Fatalf("submitted to %s (%+v)", best.MachineID, resp)
	}
	// The solid machine is now busy; the next submission falls back to
	// the flaky one.
	best2, _, err := sched.SubmitBest(context.Background(), job)
	if err != nil {
		t.Fatal(err)
	}
	if best2.MachineID != "flaky" {
		t.Fatalf("fallback machine = %s", best2.MachineID)
	}
}

func TestSchedulerErrors(t *testing.T) {
	s := &Scheduler{}
	if _, _, err := s.Rank(context.Background(), SubmitReq{WorkSeconds: 60}); err == nil {
		t.Fatal("empty candidate set accepted")
	}
	s.Candidates = []Candidate{{MachineID: "gone", API: RemoteGateway{Addr: "127.0.0.1:1", Timeout: 50 * time.Millisecond}}}
	_, fails, err := s.Rank(context.Background(), SubmitReq{WorkSeconds: 60})
	if err == nil {
		t.Fatal("all-unreachable candidates accepted")
	}
	if len(fails) != 1 || fails[0].MachineID != "gone" || !fails[0].Transient() {
		t.Fatalf("rank failures = %v, want one transient failure for 'gone'", fails)
	}
}

func TestStateManagerArchiveAndRestore(t *testing.T) {
	dir := t.TempDir()
	clock := simclock.NewVirtual(monday.AddDate(0, 0, 5))
	pre := historyMachine("lab-01", 3, 9)
	sm, err := NewStateManager("lab-01", period, avail.DefaultConfig(), clock, pre, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Live samples on a later day.
	tt := monday.AddDate(0, 0, 5)
	for i := 0; i < 100; i++ {
		sm.Record(tt, sample(15, 350))
		tt = tt.Add(period)
	}
	path := filepath.Join(dir, "lab-01.trace.gz")
	if err := sm.Archive(path); err != nil {
		t.Fatal(err)
	}
	ds, err := trace.LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(ds.Machines) != 1 {
		t.Fatalf("machines = %d", len(ds.Machines))
	}
	m := ds.Machines[0]
	if len(m.Days) != 4 {
		t.Fatalf("archived days = %d, want 3 preloaded + 1 live", len(m.Days))
	}
	// The live day's samples survived the round trip.
	last := m.Days[len(m.Days)-1]
	if last.Samples[50].CPU != 15 {
		t.Fatalf("live sample = %+v", last.Samples[50])
	}
	// Restore: a new state manager over the archive answers queries.
	sm2, err := NewStateManager("lab-01", period, avail.DefaultConfig(), clock, m, 0)
	if err != nil {
		t.Fatal(err)
	}
	sm2.Record(clock.Now(), sample(5, 400))
	if _, err := sm2.QueryTR(context.Background(), QueryTRReq{LengthSeconds: 3600}); err != nil {
		t.Fatal(err)
	}
}

func TestStateManagerArchiveLiveWinsOnOverlap(t *testing.T) {
	dir := t.TempDir()
	clock := simclock.NewVirtual(monday)
	pre := historyMachine("lab-01", 1, -1) // preloaded day 0, idle
	sm, _ := NewStateManager("lab-01", period, avail.DefaultConfig(), clock, pre, 0)
	// Live data lands on the SAME calendar day.
	sm.Record(monday.Add(time.Hour), sample(77, 200))
	path := filepath.Join(dir, "m.trace")
	if err := sm.Archive(path); err != nil {
		t.Fatal(err)
	}
	ds, _ := trace.LoadFile(path)
	day := ds.Machines[0].Days[0]
	if got := day.Samples[day.IndexAt(time.Hour)].CPU; got != 77 {
		t.Fatalf("overlap sample CPU = %v, want the live 77", got)
	}
	if len(ds.Machines[0].Days) != 1 {
		t.Fatalf("days = %d, want merged 1", len(ds.Machines[0].Days))
	}
}

// TestStateManagerPoolsOverlappingDaysOnce: a node restarted over its data
// dir with its own archive as preloaded history holds the archived days
// twice. Each date must be pooled once, from the live copy, in date order.
func TestStateManagerPoolsOverlappingDaysOnce(t *testing.T) {
	now := monday.AddDate(0, 0, 8).Add(8*time.Hour + 30*time.Minute) // Tuesday week two
	clock := simclock.NewVirtual(now)
	pre := historyMachine("lab-01", 5, 9) // Monday to Friday
	sm, err := NewStateManager("lab-01", period, avail.DefaultConfig(), clock, pre, 0)
	if err != nil {
		t.Fatal(err)
	}
	// The recovered log: Thursday and Friday again, then on to today.
	for tt := monday.AddDate(0, 0, 3); !tt.After(now); tt = tt.Add(period) {
		sm.RestoreSample(tt, sample(11, 400))
	}

	hist := sm.History()
	if len(hist) != 9 {
		t.Fatalf("History holds %d days, want 8 distinct completed days + today", len(hist))
	}
	for i, d := range hist {
		if i > 0 && !d.Date.After(hist[i-1].Date) {
			t.Fatalf("History out of date order or repeated at %d: %v after %v", i, d.Date, hist[i-1].Date)
		}
	}
	if got := hist[3].Samples[0].CPU; got != 11 {
		t.Fatalf("Thursday came from the preloaded copy (CPU %v), want the live one (11)", got)
	}
	resp, err := sm.QueryTR(context.Background(), QueryTRReq{LengthSeconds: 3600})
	if err != nil {
		t.Fatal(err)
	}
	if resp.HistoryWindows != 6 {
		t.Fatalf("HistoryWindows = %d, want 6 distinct weekdays", resp.HistoryWindows)
	}
}
