package main

import (
	"bytes"
	"context"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"testing"
	"time"

	"fgcs/internal/ishare"
)

func TestPercentileNearestRank(t *testing.T) {
	var s []int64
	for i := int64(1); i <= 100; i++ {
		s = append(s, i)
	}
	for _, c := range []struct {
		p    float64
		want int64
	}{{0.5, 50}, {0.9, 90}, {0.99, 99}, {1, 100}, {0.001, 1}} {
		if got := percentile(s, c.p); got != c.want {
			t.Errorf("percentile(1..100, %v) = %d, want %d", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %d, want 0", got)
	}
	if got := percentile([]int64{7}, 0.9); got != 7 {
		t.Errorf("percentile of one sample = %d, want 7", got)
	}
}

// A percentile is reported only with at least ten samples beyond its rank.
func TestSupportedPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{5, 0}, {19, 0}, {20, 0.5}, {99, 0.5}, {100, 0.9}, {999, 0.9}, {1000, 0.99}, {10000, 0.999}} {
		if got := supportedPercentile(c.n); got != c.want {
			t.Errorf("supportedPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
	// The smallest full-size repetition of any workload must support the
	// p90 the benchmark reports.
	for _, w := range workloads {
		n := repOps(w, runOptions{seconds: 1})
		if w.Name == wFedLive {
			n = n / fedCycle * (fedCycle - 1) // heartbeats are not measured
		}
		if supportedPercentile(n) < 0.9 {
			t.Errorf("%s: a repetition of %d ops cannot support op_p90_us", w.Name, n)
		}
	}
}

// quartileSpread must agree with Python's statistics.quantiles(v, n=4).
func TestQuartileSpread(t *testing.T) {
	v := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10} // quartiles 2.75, 5.5, 8.25
	if got := quartileSpread(v); math.Abs(got-1.0) > 1e-12 {
		t.Errorf("quartileSpread(1..10) = %v, want 1", got)
	}
	v = []float64{10, 12, 11, 13, 12, 11, 10, 14, 12, 13} // quartiles 10.75, 12, 13
	if got := quartileSpread(v); math.Abs(got-2.25/12) > 1e-12 {
		t.Errorf("quartileSpread = %v, want %v", got, 2.25/12)
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestNamesAndUnits(t *testing.T) {
	seen := map[string]bool{}
	check := func(kind, name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("%s name %q is not [A-Za-z0-9_.-]+ of at most 64", kind, name)
		}
		if seen[name] {
			t.Errorf("%s name %q is used twice", kind, name)
		}
		seen[name] = true
	}
	for _, w := range workloads {
		check("workload", w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters, want 1..200", w.Name, len(w.Why))
		}
		if w.setup == nil {
			t.Errorf("workload %s has no set-up function", w.Name)
		}
	}
	hasSetup := false
	for _, m := range endToEnd {
		check("end-to-end metric", m.Name)
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("metric %s: bad unit %q", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("metric %s: better = %q", m.Name, m.Better)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("metric %s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			hasSetup = m.Unit == "s" && m.Better == "lower"
			for _, o := range endToEnd {
				if o.Bound > m.Bound {
					t.Errorf("setup_s must have the largest bound, %s has %v", o.Name, o.Bound)
				}
			}
		}
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	// The timing metrics are reported as per-layer metrics of the run's
	// workload, under the same names and units.
	for _, m := range timingMetrics {
		found := false
		for _, l := range perLayer {
			found = found || (l.Name == m.Name && l.Unit == m.Unit && l.Better == m.Better && l.Workload == "")
		}
		if !found {
			t.Errorf("timing metric %s is not among the per-layer metrics", m.Name)
		}
	}
	for _, l := range perLayer {
		check("per-layer metric", l.Name)
		if !unitRE.MatchString(l.Unit) {
			t.Errorf("layer %s: bad unit %q", l.Name, l.Unit)
		}
		if l.Better != "lower" && l.Better != "higher" {
			t.Errorf("layer %s: better = %q", l.Name, l.Better)
		}
		if _, ok := findWorkload(l.Workload); !ok && l.Workload != "" {
			t.Errorf("layer %s: unknown ladder %q", l.Name, l.Workload)
		}
	}
}

// BENCHMARK.json and the harness must name exactly the same workloads and
// metrics, with the same units and bounds.
func TestBenchmarkJSONMatchesHarness(t *testing.T) {
	got, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if want := benchmarkJSON(defaultSeconds); !bytes.Equal(got, want) {
		t.Errorf("BENCHMARK.json differs from the harness's definition; regenerate it with\n\tgo -C bench run . -print-benchmark-json > BENCHMARK.json\ngot:\n%s\nwant:\n%s", got, want)
	}
}

func fitScheduleDigest(seed uint64) uint64 {
	d := newDigest()
	for _, op := range (&fitChurn{seed: seed}).schedule(64) {
		d.u64(uint64(op.m))
		d.u64(uint64(op.length))
		d.f64(op.s.CPU)
		d.f64(op.s.FreeMemMB)
	}
	return d.sum()
}

func fedScheduleDigest(seed uint64) uint64 {
	f := &fedLive{seed: seed, owner: make([]int, fedMachines)}
	f.schedule(4 * fedCycle * netClients)
	d := newDigest()
	for c := range f.sched {
		for _, op := range f.sched[c] {
			d.u64(uint64(op.peer))
			d.u64(uint64(op.machine))
			if op.heartbeat {
				d.u64(1)
			}
		}
	}
	return d.sum()
}

func ingestScheduleDigest(t *testing.T, seed uint64) uint64 {
	f := &ingestRecover{seed: seed}
	if err := f.generate(1); err != nil {
		t.Fatal(err)
	}
	d := newDigest()
	for h := 0; h < 24; h++ {
		t0, samples := f.hour(h)
		d.u64(uint64(t0.UnixNano()))
		for _, s := range samples {
			d.f64(s.CPU)
			d.f64(s.FreeMemMB)
		}
	}
	return d.sum()
}

func TestSchedulesFollowTheSeed(t *testing.T) {
	if a, b := fitScheduleDigest(7), fitScheduleDigest(7); a != b {
		t.Errorf("fit-churn: same seed, schedules %x and %x", a, b)
	}
	if fitScheduleDigest(7) == fitScheduleDigest(8) {
		t.Error("fit-churn: seeds 7 and 8 give the same schedule")
	}
	if a, b := fedScheduleDigest(7), fedScheduleDigest(7); a != b {
		t.Errorf("fed-live: same seed, schedules %x and %x", a, b)
	}
	if fedScheduleDigest(7) == fedScheduleDigest(8) {
		t.Error("fed-live: seeds 7 and 8 give the same schedule")
	}
	if a, b := ingestScheduleDigest(t, 7), ingestScheduleDigest(t, 7); a != b {
		t.Errorf("ingest-recover: same seed, streams %x and %x", a, b)
	}
	if ingestScheduleDigest(t, 7) == ingestScheduleDigest(t, 8) {
		t.Error("ingest-recover: seeds 7 and 8 give the same stream")
	}
}

// The in-memory network must leave no goroutines and no heap behind once its
// servers and connections are closed: a net.Pipe keeps every closed pipe
// alive until a deadline timer fires, which made post-GC heap grow with the
// number of RPCs.
func TestMemNetRetainsNothing(t *testing.T) {
	heap := func() uint64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	goroutines := runtime.NumGoroutine()
	before := heap()

	n := newMemNet()
	ln, err := n.Listen("echo")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := n.Listen("echo"); err == nil {
		t.Error("second Listen on the same address succeeded")
	}
	srv := ishare.ServeListener(ln, func(req ishare.Request) (interface{}, error) {
		return ishare.QueryTRResp{TR: 0.5, CurrentState: "S1"}, nil
	}, ishare.ServerConfig{})
	meter := &countingDialer{inner: n}
	pool := &ishare.Pool{Dialer: meter}
	pooled := &ishare.Caller{Pool: pool}
	dialled := &ishare.Caller{Dialer: meter}
	const rpcs = 3000
	for i := 0; i < rpcs; i++ {
		caller := dialled
		if i%2 == 0 {
			caller = pooled
		}
		var resp ishare.QueryTRResp
		if err := caller.Call(context.Background(), "echo", ishare.MsgQueryTR, hotQuery, &resp, time.Second); err != nil || resp.TR != 0.5 {
			t.Fatalf("rpc %d: %v (TR %v)", i, err, resp.TR)
		}
	}
	if got := meter.dials.Load(); got != rpcs/2+1 {
		t.Errorf("%d dials, want %d (one per unpooled RPC and one pooled connection)", got, rpcs/2+1)
	}
	if meter.bytes.Load() == 0 || meter.writes.Load() == 0 {
		t.Error("the network meters did not move")
	}
	pool.Close()
	srv.Close()
	if _, err := n.DialTimeout("mem", "echo", time.Second); err == nil {
		t.Error("dial to a closed listener succeeded")
	}

	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > goroutines && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if got := runtime.NumGoroutine(); got > goroutines {
		t.Errorf("%d goroutines after Close, %d before the network existed", got, goroutines)
	}
	// 1500 retained connections with their buffers would be megabytes.
	if after := heap(); after > before+(256<<10) {
		t.Errorf("heap grew from %d to %d bytes across %d RPCs on closed connections", before, after, rpcs)
	}
}

// tinyOps runs each workload over a few schedule cycles.
var tinyOps = map[string]int{wServeHot: 400, wFitChurn: 16, wIngestRecover: 192, wFedLive: 320}

func TestTinyRunsAreCorrectAndRepeat(t *testing.T) {
	for _, w := range workloads {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			run := func(seed uint64) *runResult {
				res, err := runUntraced(w, runOptions{seed: seed, seconds: 1, reps: 2, setups: 1, ops: tinyOps[w.Name]})
				if err != nil {
					t.Fatal(err)
				}
				if !res.correct() || res.OpsAttempted == 0 {
					t.Fatalf("seed %d: attempted %d, failed %d, notes %v", seed, res.OpsAttempted, res.OpsFailed, res.Notes)
				}
				for _, m := range append(append([]metricSpec{}, endToEnd...), timingMetrics...) {
					if v, ok := res.Metrics[m.Name]; !ok || !(v.Value > 0) || v.Unit != m.Unit {
						t.Errorf("seed %d: metric %s = %+v, want a positive value in %s", seed, m.Name, v, m.Unit)
					}
				}
				if len(res.Metrics) != len(endToEnd)+len(timingMetrics) {
					t.Errorf("%d metrics reported, %d defined", len(res.Metrics), len(endToEnd)+len(timingMetrics))
				}
				if len(res.Reps) != 2 || res.BestRep < 1 || res.BestRep > 2 {
					t.Errorf("%d repetitions, timing from repetition %d, want one of 2", len(res.Reps), res.BestRep)
				}
				return res
			}
			a, b, c := run(1), run(1), run(2)
			if a.Answers != b.Answers {
				t.Errorf("seed 1 answered %s, then %s", a.Answers, b.Answers)
			}
			if a.Answers == c.Answers {
				t.Errorf("seeds 1 and 2 both answered %s", a.Answers)
			}
		})
	}
}

func TestTracedRunMeasuresEveryLayer(t *testing.T) {
	out := filepath.Join(t.TempDir(), "spans.json")
	own, _ := findWorkload(wFedLive)
	res, err := runTraced(own, runOptions{seed: 1, seconds: 1, quick: true}, out)
	if err != nil {
		t.Fatal(err)
	}
	if !res.correct() {
		t.Errorf("failed %d, notes %v", res.OpsFailed, res.Notes)
	}
	if len(res.Layers) != len(perLayer) {
		t.Errorf("%d layer metrics reported, %d defined", len(res.Layers), len(perLayer))
	}
	derived := map[string]bool{
		"ishare.wire.self_us": true, "ishare.dispatch.self_us": true, "ishare.state.query_self_us": true,
		"ishare.fed.hop_us": true, "bench.trace_overhead_frac": true,
	}
	for _, l := range perLayer {
		v, ok := res.Layers[l.Name]
		if !ok || v.Unit != l.Unit || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			t.Errorf("layer %s = %+v, want a finite value in %s", l.Name, v, l.Unit)
		}
		// Differences of two measurements may come out around zero at this
		// size; everything measured directly is positive.
		if !derived[l.Name] && !(v.Value > 0) {
			t.Errorf("layer %s = %v, want a positive measurement", l.Name, v.Value)
		}
	}
	if st, err := os.Stat(out); err != nil || st.Size() == 0 {
		t.Errorf("span file: %v", err)
	}
}
