package obs

import (
	"math"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("requests_total", "Requests served.")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	g := r.Gauge("queue_depth", "Depth.")
	g.Set(3.5)
	if got := g.value(); got != 3.5 {
		t.Fatalf("gauge = %g, want 3.5", got)
	}
	// Re-registration returns the same instrument.
	if r.Counter("requests_total", "Requests served.") != c {
		t.Fatal("re-registering a counter minted a new instrument")
	}
	// A nil registry hands out instruments that count but are listed nowhere.
	var nr *Registry
	if free := nr.Counter("requests_total", "Requests served."); free == nil || nr.Snapshot() != nil {
		t.Fatal("nil registry: no instrument, or a snapshot")
	} else if free.Inc(); free.Value() != 1 {
		t.Fatal("free-standing counter does not count")
	}
	// Nil instruments are safe no-ops.
	var nc *Counter
	nc.Inc()
	nc.Add(7)
	if nc.Value() != 0 {
		t.Fatal("nil counter carries a value")
	}
	var ng *Gauge
	ng.Set(1)
	var nh *Histogram
	nh.Observe(1)
	if s := nh.Snapshot(); s.Count != 0 || s.Sum != 0 {
		t.Fatal("nil histogram carries observations")
	}
}

func TestHistogramBuckets(t *testing.T) {
	h := newHistogram([]float64{1, 2, 4})
	for _, v := range []float64{0.5, 1, 1.5, 3, 100} {
		h.Observe(v)
	}
	s := h.Snapshot()
	want := []uint64{2, 1, 1, 1} // <=1: {0.5, 1}; <=2: {1.5}; <=4: {3}; +Inf: {100}
	for i, c := range s.Counts {
		if c != want[i] {
			t.Fatalf("bucket %d = %d, want %d (all: %v)", i, c, want[i], s.Counts)
		}
	}
	if s.Count != 5 || s.Sum != 106 {
		t.Fatalf("count/sum = %d/%g, want 5/106", s.Count, s.Sum)
	}
	if q := s.quantile(0.5); q < 1 || q > 2 {
		t.Fatalf("p50 = %g, want within (1,2]", q)
	}
	if q := s.quantile(1); q != 4 {
		t.Fatalf("p100 = %g, want 4 (+Inf bucket reports its lower bound)", q)
	}
}

func TestHistogramSnapshotMerge(t *testing.T) {
	a := newHistogram([]float64{1, 2})
	b := newHistogram([]float64{1, 2})
	a.Observe(0.5)
	b.Observe(1.5)
	b.Observe(9)
	sa, sb := a.Snapshot(), b.Snapshot()
	if err := sa.Merge(sb); err != nil {
		t.Fatal(err)
	}
	if sa.Count != 3 || sa.Sum != 11 {
		t.Fatalf("merged count/sum = %d/%g, want 3/11", sa.Count, sa.Sum)
	}
	if got := []uint64{sa.Counts[0], sa.Counts[1], sa.Counts[2]}; got[0] != 1 || got[1] != 1 || got[2] != 1 {
		t.Fatalf("merged buckets = %v", got)
	}
	other := newHistogram([]float64{1, 3}).Snapshot()
	if err := sa.Merge(other); err == nil {
		t.Fatal("merging mismatched bucket layouts should error")
	}
}

func TestRegistrySnapshotMerge(t *testing.T) {
	r1, r2 := NewRegistry(), NewRegistry()
	r1.Counter("reqs", "r", Label{"node", "a"}).Add(2)
	r2.Counter("reqs", "r", Label{"node", "a"}).Add(3)
	r2.Counter("reqs", "r", Label{"node", "b"}).Add(7)
	r1.Histogram("lat", "l", []float64{1}).Observe(0.5)
	r2.Histogram("lat", "l", []float64{1}).Observe(2)
	s := r1.Snapshot()
	if err := s.merge(r2.Snapshot()); err != nil {
		t.Fatal(err)
	}
	if got := s.Find("reqs", Label{"node", "a"}).Count; got != 5 {
		t.Fatalf("merged counter = %d, want 5", got)
	}
	if got := s.Find("reqs", Label{"node", "b"}).Count; got != 7 {
		t.Fatalf("union counter = %d, want 7", got)
	}
	if h := s.Find("lat").Hist; h.Count != 2 || h.Sum != 2.5 {
		t.Fatalf("merged histogram = %+v", h)
	}
	if sr := s.Find("reqs", Label{"node", "b"}); sr.ID() != `reqs{node="b"}` {
		t.Fatalf("series id = %s", sr.ID())
	}
	// Merging r2 once more must not have been adding into r2's own buckets.
	if h := r2.Snapshot().Find("lat").Hist; h.Count != 1 {
		t.Fatalf("merge mutated its argument: %+v", h)
	}
}

// TestSnapshotMergeConflicts pins that a kind belongs to the family and a
// bucket layout to the series: a conflicting series of the argument is left
// out and reported, the receiver's stay, and the rest still merges.
func TestSnapshotMergeConflicts(t *testing.T) {
	mine := Snapshot{
		{Name: "a_total", Labels: []Label{{"k", "2"}}, Count: 1},
		{Name: "h", Kind: KindHistogram, Hist: HistogramSnapshot{Bounds: []float64{1}, Counts: []uint64{1, 0}, Count: 1}},
	}
	theirs := Snapshot{
		{Name: "a_total", Labels: []Label{{"k", "1"}}, Kind: KindGauge, Value: 9}, // sorts before mine, other kind
		{Name: "a_total", Labels: []Label{{"k", "2"}}, Kind: KindGauge, Value: 9}, // same series, other kind
		{Name: "h", Kind: KindHistogram, Hist: HistogramSnapshot{Bounds: []float64{2}, Counts: []uint64{5, 0}, Count: 5}},
		{Name: "z_total", Count: 4},
	}
	err := mine.merge(theirs)
	if err == nil || !strings.Contains(err.Error(), "a_total is a counter here and a gauge there") {
		t.Fatalf("first conflict = %v", err)
	}
	if len(mine) != 3 || mine.Find("a_total", Label{"k", "2"}).Count != 1 || mine.Find("h").Hist.Count != 1 || mine.Find("z_total").Count != 4 {
		t.Fatalf("merged = %+v", mine)
	}
}

func TestWriteTextFormat(t *testing.T) {
	r := NewRegistry()
	r.Counter("fgcs_requests_total", "Requests.", Label{"type", "query-tr"}).Add(12)
	r.Gauge("fgcs_up", "Up.").Set(1)
	h := r.Histogram("fgcs_latency_seconds", "Latency.", []float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(0.5)
	var sb strings.Builder
	if err := r.Snapshot().WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# HELP fgcs_latency_seconds Latency.\n# TYPE fgcs_latency_seconds histogram\nfgcs_latency_seconds_bucket",
		"# TYPE fgcs_requests_total counter",
		"# TYPE fgcs_up gauge\nfgcs_up 1\n",
		`fgcs_requests_total{type="query-tr"} 12`,
		"fgcs_up 1",
		`fgcs_latency_seconds_bucket{le="0.1"} 1`,
		`fgcs_latency_seconds_bucket{le="1"} 2`,
		`fgcs_latency_seconds_bucket{le="+Inf"} 2`,
		"fgcs_latency_seconds_sum 0.55",
		"fgcs_latency_seconds_count 2",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
}

// TestHotPathAllocs pins the zero-allocation guarantee of the hot-path
// operations; regressions here would undo the prediction engine's
// zero-alloc work the moment it is instrumented.
func TestHotPathAllocs(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c", "c")
	g := r.Gauge("g", "g")
	h := r.Histogram("h", "h", nil)
	if n := testing.AllocsPerRun(1000, func() { c.Add(1) }); n != 0 {
		t.Fatalf("Counter.Add allocates %v/op", n)
	}
	if n := testing.AllocsPerRun(1000, func() { g.Set(2) }); n != 0 {
		t.Fatalf("Gauge.Set allocates %v/op", n)
	}
	if n := testing.AllocsPerRun(1000, func() { h.Observe(0.001) }); n != 0 {
		t.Fatalf("Histogram.Observe allocates %v/op", n)
	}
}

func BenchmarkCounterAdd(b *testing.B) {
	var c Counter
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Add(1)
	}
}

func BenchmarkHistogramObserve(b *testing.B) {
	h := newHistogram(latencyBuckets())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(float64(i%1000) * 1e-5)
	}
}

// TestConcurrentSnapshotWhileRecord hammers the registry from writer
// goroutines while snapshots and text exposition run concurrently; run
// under -race this is the package's data-race gate.
func TestConcurrentSnapshotWhileRecord(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c", "c")
	g := r.Gauge("g", "g")
	h := r.Histogram("h", "h", []float64{0.001, 0.01, 0.1, 1})
	const writers = 4
	const perWriter = 5000
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				c.Add(1)
				g.Set(float64(i))
				h.Observe(float64((seed+i)%100) * 0.005)
			}
		}(w)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 200; i++ {
			s := r.Snapshot()
			if s.Find("c").Count > writers*perWriter {
				t.Errorf("counter overshot: %d", s.Find("c").Count)
				return
			}
			var sb strings.Builder
			if err := s.WriteText(&sb); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
	<-done
	s := r.Snapshot()
	if s.Find("c").Count != writers*perWriter {
		t.Fatalf("final counter = %d, want %d", s.Find("c").Count, writers*perWriter)
	}
	hs := s.Find("h").Hist
	if hs.Count != writers*perWriter {
		t.Fatalf("final histogram count = %d, want %d", hs.Count, writers*perWriter)
	}
	var cum uint64
	for _, n := range hs.Counts {
		cum += n
	}
	if cum != hs.Count {
		t.Fatalf("bucket sum %d != count %d", cum, hs.Count)
	}
	if math.IsNaN(hs.Sum) {
		t.Fatal("histogram sum is NaN")
	}
}
