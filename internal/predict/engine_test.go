package predict

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"fgcs/internal/avail"
	"fgcs/internal/trace"
	"fgcs/internal/workload"
)

// failHistory builds n idle days where every k-th day fails inside 8:00-10:00.
func failHistory(n, k int) []*trace.Day {
	var days []*trace.Day
	for i := 0; i < n; i++ {
		d := idleDay(i)
		if k > 0 && i%k == 0 {
			failAt(d, 9*time.Hour, 30*time.Minute)
		}
		days = append(days, d)
	}
	return days
}

func TestEngineMatchesSMP(t *testing.T) {
	days := failHistory(12, 3)
	busyAt(days[1], 8*time.Hour, 30*time.Minute, 45) // some S2 starts
	windows := []Window{
		{Start: 8 * time.Hour, Length: 2 * time.Hour},
		{Start: 8 * time.Hour, Length: 30 * time.Minute},
		{Start: 0, Length: 10 * time.Hour},
	}
	// A Th1 above the busy spell's 45 % turns its S2 starts into S1 ones.
	lenient := avail.DefaultConfig()
	lenient.Th1 = 50
	preds := []SMP{
		defaultSMP(),
		{Cfg: avail.DefaultConfig(), HistoryDays: 5},
		{Cfg: lenient},
		{Cfg: lenient, HistoryDays: 5},
	}
	e := NewEngine(EngineConfig{})
	for _, p := range preds {
		for _, w := range windows {
			want, err := p.Predict(days, w)
			if err != nil {
				t.Fatal(err)
			}
			// Twice: the second answer comes from the cache.
			for pass := 0; pass < 2; pass++ {
				got, err := e.predictCtx(context.Background(), p, days, w)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("pass %d: engine %+v != serial %+v (pred %+v, window %v)", pass, got, want, p, w)
				}
			}
			for _, init := range []avail.State{avail.S1, avail.S2} {
				wantTR, err := want.from(init)
				if err != nil {
					t.Fatal(err)
				}
				gotTR, err := e.PredictFromCtx(context.Background(), p, days, w, init)
				if err != nil {
					t.Fatal(err)
				}
				if gotTR != wantTR {
					t.Fatalf("PredictFrom(%v) = %v, serial %v", init, gotTR, wantTR)
				}
			}
		}
	}
	if _, err := e.PredictFromCtx(context.Background(), defaultSMP(), days, windows[0], avail.S5); err == nil {
		t.Fatal("failure initial state accepted")
	}
}

func TestEngineCacheCounters(t *testing.T) {
	days := failHistory(10, 4)
	w := Window{Start: 8 * time.Hour, Length: 2 * time.Hour}
	e := NewEngine(EngineConfig{})
	p := defaultSMP()
	if _, err := e.predictCtx(context.Background(), p, days, w); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if _, err := e.predictCtx(context.Background(), p, days, w); err != nil {
			t.Fatal(err)
		}
	}
	// PredictFrom on the same query is served from the same entry.
	if _, err := e.PredictFromCtx(context.Background(), p, days, w, avail.S1); err != nil {
		t.Fatal(err)
	}
	st := e.Stats()
	if st.Misses != 1 || st.Hits != 5 || st.Entries != 1 {
		t.Fatalf("stats = %+v, want 1 miss / 5 hits / 1 entry", st)
	}

	// HistoryDays truncation is folded into the key: querying the full
	// slice with HistoryDays=6 and querying the last 6 days directly are
	// the same cache entry.
	limited := p
	limited.HistoryDays = 6
	if _, err := e.predictCtx(context.Background(), limited, days, w); err != nil {
		t.Fatal(err)
	}
	if _, err := e.predictCtx(context.Background(), p, days[len(days)-6:], w); err != nil {
		t.Fatal(err)
	}
	st = e.Stats()
	if st.Misses != 2 || st.Hits != 6 {
		t.Fatalf("stats after truncated queries = %+v, want 2 misses / 6 hits", st)
	}
}

func TestEngineInvalidationOnNewDay(t *testing.T) {
	days := failHistory(8, 4)
	w := Window{Start: 8 * time.Hour, Length: 2 * time.Hour}
	e := NewEngine(EngineConfig{})
	p := defaultSMP()
	first, err := e.predictCtx(context.Background(), p, days, w)
	if err != nil {
		t.Fatal(err)
	}
	// A new day arrives: the extended pool is a different fingerprint, so
	// the stale entry cannot be served.
	grown := append(append([]*trace.Day{}, days...), failAt(idleDay(8), 9*time.Hour, time.Hour))
	second, err := e.predictCtx(context.Background(), p, grown, w)
	if err != nil {
		t.Fatal(err)
	}
	if st := e.Stats(); st.Misses != 2 || st.Hits != 0 {
		t.Fatalf("stats = %+v, want 2 misses / 0 hits", st)
	}
	if second.TR >= first.TR {
		t.Fatalf("TR did not react to the new failing day: %v -> %v", first.TR, second.TR)
	}
	// Same content in freshly cloned days still hits: the fingerprint is
	// content-based, not pointer-based.
	clones := make([]*trace.Day, len(days))
	for i, d := range days {
		clones[i] = d.Clone()
	}
	got, err := e.predictCtx(context.Background(), p, clones, w)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, first) {
		t.Fatalf("cloned history returned %+v, want cached %+v", got, first)
	}
	if st := e.Stats(); st.Hits != 1 {
		t.Fatalf("cloned history did not hit: %+v", st)
	}
}

func TestEngineLRUEviction(t *testing.T) {
	days := failHistory(10, 3)
	e := NewEngine(EngineConfig{CacheSize: 2})
	p := defaultSMP()
	ws := []Window{
		{Start: 8 * time.Hour, Length: time.Hour},
		{Start: 9 * time.Hour, Length: time.Hour},
		{Start: 10 * time.Hour, Length: time.Hour},
	}
	for _, w := range ws {
		if _, err := e.predictCtx(context.Background(), p, days, w); err != nil {
			t.Fatal(err)
		}
	}
	st := e.Stats()
	if st.Entries != 2 || st.Evictions != 1 {
		t.Fatalf("stats = %+v, want 2 entries / 1 eviction", st)
	}
	// ws[0] was evicted (least recent); ws[1] and ws[2] still hit.
	for _, w := range ws[1:] {
		if _, err := e.predictCtx(context.Background(), p, days, w); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := e.predictCtx(context.Background(), p, days, ws[0]); err != nil {
		t.Fatal(err)
	}
	st = e.Stats()
	if st.Hits != 2 || st.Misses != 4 {
		t.Fatalf("stats = %+v, want 2 hits / 4 misses", st)
	}
}

func TestEngineErrorsNotCached(t *testing.T) {
	e := NewEngine(EngineConfig{})
	p := defaultSMP()
	bad := Window{Start: -time.Hour, Length: time.Hour}
	for i := 0; i < 2; i++ {
		if _, err := e.predictCtx(context.Background(), p, failHistory(3, 0), bad); err == nil {
			t.Fatal("invalid window accepted")
		}
	}
	st := e.Stats()
	if st.Entries != 0 || st.Misses != 2 {
		t.Fatalf("stats = %+v, want 0 entries / 2 misses", st)
	}
}

func TestEngineCachingDisabled(t *testing.T) {
	days := failHistory(8, 4)
	w := Window{Start: 8 * time.Hour, Length: time.Hour}
	e := NewEngine(EngineConfig{CacheSize: -1})
	p := defaultSMP()
	want, err := p.Predict(days, w)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		got, err := e.predictCtx(context.Background(), p, days, w)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("uncached engine diverged: %+v != %+v", got, want)
		}
	}
	st := e.Stats()
	if st.Hits != 0 || st.Misses != 3 || st.Entries != 0 {
		t.Fatalf("stats = %+v, want pure misses with caching disabled", st)
	}
}

// TestEngineConcurrent hammers one engine from many goroutines over a small
// key set and checks, under -race, that every answer is identical to the
// serial predictor and that the miss counter equals the number of distinct
// keys (in-flight coalescing: concurrent misses for one key estimate once).
func TestEngineConcurrent(t *testing.T) {
	days := failHistory(12, 3)
	p := defaultSMP()
	windows := []Window{
		{Start: 8 * time.Hour, Length: time.Hour},
		{Start: 8 * time.Hour, Length: 2 * time.Hour},
		{Start: 14 * time.Hour, Length: 3 * time.Hour},
	}
	want := make([]Prediction, len(windows))
	for i, w := range windows {
		var err error
		want[i], err = p.Predict(days, w)
		if err != nil {
			t.Fatal(err)
		}
	}
	e := NewEngine(EngineConfig{Workers: 8})
	const goroutines = 16
	const rounds = 20
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				i := (g + r) % len(windows)
				got, err := e.predictCtx(context.Background(), p, days, windows[i])
				if err != nil {
					errs <- err
					return
				}
				if !reflect.DeepEqual(got, want[i]) {
					errs <- fmt.Errorf("window %v: %+v != %+v", windows[i], got, want[i])
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	st := e.Stats()
	if st.Misses != uint64(len(windows)) {
		t.Fatalf("misses = %d, want %d (one per distinct key)", st.Misses, len(windows))
	}
	if total := st.Hits + st.Misses; total != goroutines*rounds {
		t.Fatalf("hits+misses = %d, want %d", total, goroutines*rounds)
	}

	// PredictBatch from several goroutines against the same shared cache.
	reqs := make([]BatchRequest, 0, 2*len(windows))
	for i, w := range windows {
		reqs = append(reqs, BatchRequest{Machine: fmt.Sprintf("m%d", i), History: days, Window: w})
	}
	for i, w := range windows {
		reqs = append(reqs, BatchRequest{Machine: fmt.Sprintf("m%d'", i), History: days, Window: w})
	}
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res := e.PredictBatch(p, reqs)
			for i, r := range res {
				if r.Err != nil {
					t.Error(r.Err)
					return
				}
				if !reflect.DeepEqual(r.Prediction, want[i%len(windows)]) {
					t.Errorf("batch result %d diverged", i)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestPredictBatchMatchesSerial is the determinism acceptance test: on a
// 20-machine, 90-day generated testbed, PredictBatch across the worker pool
// must be bit-identical to a serial SMP.Predict loop.
func TestPredictBatchMatchesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("full testbed generation in -short mode")
	}
	ds, err := workload.Generate(workload.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if len(ds.Machines) != 20 {
		t.Fatalf("testbed has %d machines, want 20", len(ds.Machines))
	}
	p := SMP{Cfg: avail.DefaultConfig(), HistoryDays: 30}
	windows := []Window{
		{Start: 8 * time.Hour, Length: 2 * time.Hour},
		{Start: 19 * time.Hour, Length: 3 * time.Hour},
	}
	var reqs []BatchRequest
	for _, m := range ds.Machines {
		days := m.DaysOfType(trace.Weekday)
		for _, w := range windows {
			reqs = append(reqs, BatchRequest{Machine: m.ID, History: days, Window: w})
		}
	}
	// Serial reference, straight through the predictor.
	serial := make([]Prediction, len(reqs))
	for i, r := range reqs {
		serial[i], err = p.Predict(r.History, r.Window)
		if err != nil {
			t.Fatalf("serial %s %v: %v", r.Machine, r.Window, err)
		}
	}
	for _, workers := range []int{1, 4} {
		e := NewEngine(EngineConfig{Workers: workers})
		res := e.PredictBatch(p, reqs)
		if len(res) != len(reqs) {
			t.Fatalf("got %d results for %d requests", len(res), len(reqs))
		}
		for i, r := range res {
			if r.Err != nil {
				t.Fatalf("workers=%d %s: %v", workers, r.Machine, r.Err)
			}
			if r.Machine != reqs[i].Machine || r.Window != reqs[i].Window {
				t.Fatalf("workers=%d: result %d out of order: %s %v", workers, i, r.Machine, r.Window)
			}
			if !reflect.DeepEqual(r.Prediction, serial[i]) {
				t.Fatalf("workers=%d %s %v: parallel %+v != serial %+v",
					workers, r.Machine, r.Window, r.Prediction, serial[i])
			}
		}
	}
}

// fingerprintSink keeps BenchmarkFingerprint's result live.
var fingerprintSink uint64

// BenchmarkFingerprint measures what a new engine pays the first time it
// sees a seven-day pool: one content hash per day, then the pool's mix.
func BenchmarkFingerprint(b *testing.B) {
	days := failHistory(7, 3)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := Engine{dayHashes: make(map[*trace.Day]uint64)}
		fingerprintSink = e.fingerprint(days)
	}
}
