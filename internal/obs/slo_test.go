package obs

import (
	"strings"
	"testing"
	"time"
)

func TestParseSLO(t *testing.T) {
	s, err := ParseSLO("query:qps=50;p99=200ms;budget=0.01;fast=10;slow=4;short=2m;long=30m")
	if err != nil {
		t.Fatal(err)
	}
	want := SLO{Name: "query", QPSFloor: 50, P99Ceiling: 0.2, ErrorBudget: 0.01,
		FastBurn: 10, SlowBurn: 4, ShortWindow: 2 * time.Minute, LongWindow: 30 * time.Minute}
	if s != want {
		t.Errorf("parsed %+v, want %+v", s, want)
	}

	// Omitted keys and the monitor's defaults.
	s, err = ParseSLO("serve:budget=0.001")
	if err != nil {
		t.Fatal(err)
	}
	d := NewSLOMonitor(s).slo
	if d.FastBurn != 14.4 || d.SlowBurn != 6 || d.ShortWindow != 5*time.Minute || d.LongWindow != time.Hour {
		t.Errorf("defaults not applied: %+v", d)
	}

	for _, bad := range []string{
		"",                  // no name
		"noseparator",       // no colon
		":qps=1",            // empty name
		"x:qps",             // field without '='
		"x:zzz=1",           // unknown key
		"x:qps=not-a-float", // bad value
		"x:p99=12",          // bad duration
	} {
		if _, err := ParseSLO(bad); err == nil {
			t.Errorf("spec %q parsed", bad)
		}
	}
}

// sloFeed drives a monitor with one cumulative sample per period, computing
// the running totals from per-period request/error counts.
type sloFeed struct {
	m    *SLOMonitor
	t    time.Time
	reqs uint64
	errs uint64
}

func (f *sloFeed) step(period time.Duration, reqs, errs uint64, latency ...*HistogramSnapshot) {
	f.t = f.t.Add(period)
	f.reqs += reqs
	f.errs += errs
	s := SLOSample{T: f.t, Requests: f.reqs, Errors: f.errs}
	if len(latency) > 0 {
		s.Latency = latency[0]
	}
	f.m.Record(s)
}

func TestSLOWarmupGate(t *testing.T) {
	m := NewSLOMonitor(SLO{Name: "q", QPSFloor: 100, ShortWindow: 5 * time.Minute})
	f := &sloFeed{m: m, t: time.Date(2026, 6, 4, 0, 0, 0, 0, time.UTC)}
	// Two samples one minute apart: rates exist (1 QPS, far under the floor)
	// but the short window has not filled — no basis for paging yet.
	f.step(time.Minute, 60, 0)
	f.step(time.Minute, 60, 0)
	st := m.Status()
	if st.Short.QPS == 0 {
		t.Fatal("no windowed QPS after two samples")
	}
	if !st.OK || !st.QPSOK {
		t.Errorf("monitor paged during warmup: %+v", st)
	}
	// More minutes fill the window; now the floor applies.
	for i := 0; i < 5; i++ {
		f.step(time.Minute, 60, 0)
	}
	st = m.Status()
	if st.QPSOK || st.OK {
		t.Errorf("1 QPS passed a 100 QPS floor after warmup: %+v", st)
	}
	if !strings.Contains(st.Reason, "QPS") {
		t.Errorf("reason %q does not name the QPS floor", st.Reason)
	}
}

func TestSLOBurnRateBothWindows(t *testing.T) {
	slo := SLO{Name: "q", ErrorBudget: 0.01, ShortWindow: 5 * time.Minute, LongWindow: time.Hour}
	m := NewSLOMonitor(slo)
	f := &sloFeed{m: m, t: time.Date(2026, 6, 4, 0, 0, 0, 0, time.UTC)}

	// One hour of clean traffic, then a short error burst: the short window
	// burns hot but the long window stays calm — the page must NOT fire
	// (single-window alerting is exactly what multi-window burn prevents).
	for i := 0; i < 60; i++ {
		f.step(time.Minute, 600, 0)
	}
	for i := 0; i < 5; i++ {
		f.step(time.Minute, 600, 120) // 20% errors: burn 20x in the short window
	}
	st := m.Status()
	if st.Short.BurnRate < 14.4 {
		t.Fatalf("short-window burn %.1f, want hot (>14.4)", st.Short.BurnRate)
	}
	if st.FastBurnAlert {
		t.Errorf("fast burn paged on a short-window-only burst: %+v", st)
	}

	// Sustain the burn for the rest of the hour: now both windows agree.
	for i := 0; i < 60; i++ {
		f.step(time.Minute, 600, 120)
	}
	st = m.Status()
	if !st.FastBurnAlert || st.OK {
		t.Errorf("sustained 20x burn never paged: %+v", st)
	}
	if !strings.Contains(st.Reason, "fast burn") {
		t.Errorf("reason %q does not name the fast burn", st.Reason)
	}
	if st.BudgetConsumed <= 0 {
		t.Error("no lifetime budget consumption reported")
	}

	// Slow-burn band: between SlowBurn (6) and FastBurn (14.4).
	m2 := NewSLOMonitor(slo)
	f2 := &sloFeed{m: m2, t: f.t}
	for i := 0; i < 120; i++ {
		f2.step(time.Minute, 600, 60) // 10% errors: burn 10x
	}
	st = m2.Status()
	if st.FastBurnAlert {
		t.Errorf("10x burn tripped the 14.4x fast page: %+v", st)
	}
	if !st.SlowBurnAlert || st.OK {
		t.Errorf("sustained 10x burn never tripped the 6x slow page: %+v", st)
	}
}

func TestSLOP99Ceiling(t *testing.T) {
	m := NewSLOMonitor(SLO{Name: "q", P99Ceiling: 0.05, ShortWindow: 5 * time.Minute})
	f := &sloFeed{m: m, t: time.Date(2026, 6, 4, 0, 0, 0, 0, time.UTC)}

	h := newHistogram([]float64{0.001, 0.01, 0.1, 1})
	snap := func() *HistogramSnapshot { s := h.Snapshot(); return &s }
	for i := 0; i < 6; i++ {
		for j := 0; j < 100; j++ {
			h.Observe(0.005) // everything fast
		}
		f.step(time.Minute, 100, 0, snap())
	}
	st := m.Status()
	if !st.P99OK || !st.OK {
		t.Fatalf("fast traffic failed the p99 ceiling: %+v", st)
	}
	if st.Short.P99Seconds <= 0 {
		t.Fatal("no windowed p99 computed from the latency histogram")
	}

	// Latency moves to ~80ms: the windowed p99 (interpolated in the
	// 0.01..0.1 bucket) crosses the 50ms ceiling.
	for i := 0; i < 6; i++ {
		for j := 0; j < 100; j++ {
			h.Observe(0.08)
		}
		f.step(time.Minute, 100, 0, snap())
	}
	st = m.Status()
	if st.P99OK || st.OK {
		t.Errorf("slow traffic passed the p99 ceiling: %+v", st)
	}
	if !strings.Contains(st.Reason, "p99") {
		t.Errorf("reason %q does not name the p99 ceiling", st.Reason)
	}
}

func TestSLORecordOrderingAndResets(t *testing.T) {
	m := NewSLOMonitor(SLO{Name: "q", ErrorBudget: 0.01, ShortWindow: 5 * time.Minute})
	base := time.Date(2026, 6, 4, 0, 0, 0, 0, time.UTC)
	m.Record(SLOSample{T: base.Add(10 * time.Minute), Requests: 1000})
	// Out-of-order and duplicate-timestamp samples are dropped, so the
	// window math never sees time running backwards.
	m.Record(SLOSample{T: base.Add(5 * time.Minute), Requests: 2000})
	m.Record(SLOSample{T: base.Add(10 * time.Minute), Requests: 3000})
	m.Record(SLOSample{T: base.Add(11 * time.Minute), Requests: 1060})
	st := m.Status()
	if st.Short.Seconds != 60 {
		t.Errorf("window spans %.0fs, want 60 (stale samples must be dropped)", st.Short.Seconds)
	}
	if st.Short.QPS != 1 {
		t.Errorf("windowed QPS %.2f, want 1.00", st.Short.QPS)
	}

	// A latency histogram that shrinks between samples (counter reset after
	// a restart) must not produce a bogus p99.
	m2 := NewSLOMonitor(SLO{Name: "q", P99Ceiling: 0.05, ShortWindow: time.Minute})
	big := HistogramSnapshot{Bounds: []float64{0.01, 0.1}, Counts: []uint64{50, 50, 0}, Sum: 5, Count: 100}
	small := HistogramSnapshot{Bounds: []float64{0.01, 0.1}, Counts: []uint64{1, 1, 0}, Sum: 0.1, Count: 2}
	m2.Record(SLOSample{T: base, Requests: 100, Latency: &big})
	m2.Record(SLOSample{T: base.Add(2 * time.Minute), Requests: 200, Latency: &small})
	if st := m2.Status(); st.Short.P99Seconds != 0 {
		t.Errorf("counter reset produced p99 %.4fs, want 0", st.Short.P99Seconds)
	}
}

func TestSLOPruneKeepsWindowBaseline(t *testing.T) {
	m := NewSLOMonitor(SLO{Name: "q", ShortWindow: time.Minute, LongWindow: 5 * time.Minute})
	f := &sloFeed{m: m, t: time.Date(2026, 6, 4, 0, 0, 0, 0, time.UTC)}
	// Feed far past the long window: pruning must keep one sample beyond the
	// edge so the long window always spans its full width.
	for i := 0; i < 120; i++ {
		f.step(30*time.Second, 30, 0)
	}
	st := m.Status()
	if st.Long.Seconds < (5 * time.Minute).Seconds() {
		t.Errorf("long window spans %.0fs after pruning, want >= 300", st.Long.Seconds)
	}
	if st.Long.QPS != 1 {
		t.Errorf("long-window QPS %.2f, want 1.00", st.Long.QPS)
	}
}

func TestSLONilMonitor(t *testing.T) {
	var m *SLOMonitor
	m.Record(SLOSample{T: time.Now()})
	if st := m.Status(); !st.OK {
		t.Errorf("nil monitor not OK: %+v", st)
	}
}
