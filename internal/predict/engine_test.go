package predict

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"sync"
	"testing"
	"time"

	"fgcs/internal/avail"
	"fgcs/internal/trace"
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

// cached is SMP.Predict through e's cache: the solved entry every
// PredictFromCtx for the same query reads.
func cached(e *Engine, p SMP, history []*trace.Day, w Window) (Prediction, error) {
	entry, err := e.lookup(context.Background(), p, history, w)
	if err != nil {
		return Prediction{}, err
	}
	return entry.pred, nil
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
				got, err := cached(e, p, days, w)
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
	if _, err := cached(e, p, days, w); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if _, err := cached(e, p, days, w); err != nil {
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
	if _, err := cached(e, limited, days, w); err != nil {
		t.Fatal(err)
	}
	if _, err := cached(e, p, days[len(days)-6:], w); err != nil {
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
	first, err := cached(e, p, days, w)
	if err != nil {
		t.Fatal(err)
	}
	// A new day arrives: the extended pool is a different fingerprint, so
	// the stale entry cannot be served.
	grown := append(append([]*trace.Day{}, days...), failAt(idleDay(8), 9*time.Hour, time.Hour))
	second, err := cached(e, p, grown, w)
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
	got, err := cached(e, p, clones, w)
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
		if _, err := cached(e, p, days, w); err != nil {
			t.Fatal(err)
		}
	}
	st := e.Stats()
	if st.Entries != 2 || st.Evictions != 1 {
		t.Fatalf("stats = %+v, want 2 entries / 1 eviction", st)
	}
	// ws[0] was evicted (least recent); ws[1] and ws[2] still hit.
	for _, w := range ws[1:] {
		if _, err := cached(e, p, days, w); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := cached(e, p, days, ws[0]); err != nil {
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
		if _, err := cached(e, p, failHistory(3, 0), bad); err == nil {
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
		got, err := cached(e, p, days, w)
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

// TestEngineConcurrent hammers one shared engine with PredictFromCtx from
// many goroutines over a small key set, as a gateway's clients do, and checks
// under -race that every answer is bit-identical to the serial predictor's
// TRByInit entry and that the miss counter equals the number of distinct keys
// (in-flight coalescing: concurrent misses for one key estimate once, and a
// query in the other initial state is a hit on the same solve).
func TestEngineConcurrent(t *testing.T) {
	days := failHistory(12, 3)
	busyAt(days[1], 8*time.Hour, 30*time.Minute, 45) // some S2 starts
	p := defaultSMP()
	windows := []Window{
		{Start: 8 * time.Hour, Length: time.Hour},
		{Start: 8 * time.Hour, Length: 2 * time.Hour},
		{Start: 14 * time.Hour, Length: 3 * time.Hour},
	}
	inits := []avail.State{avail.S1, avail.S2}
	want := make([]Prediction, len(windows))
	for i, w := range windows {
		var err error
		want[i], err = p.Predict(days, w)
		if err != nil {
			t.Fatal(err)
		}
	}
	e := NewEngine(EngineConfig{})
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
				k := (g / len(windows)) % len(inits)
				got, err := e.PredictFromCtx(context.Background(), p, days, windows[i], inits[k])
				if err != nil {
					errs <- err
					return
				}
				if math.Float64bits(got) != math.Float64bits(want[i].TRByInit[k]) {
					errs <- fmt.Errorf("window %v from %v: %v != serial %v", windows[i], inits[k], got, want[i].TRByInit[k])
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
