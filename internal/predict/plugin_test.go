package predict

import (
	"context"
	"reflect"
	"testing"
	"time"

	"fgcs/internal/avail"
)

// TestPluginRegistry pins the built-in predictor set and its registration
// order: the predictor docs, the tracker's rows and the doccheck
// cross-check all key off these names, and the serving path evaluates and
// scores in this order (the tracker's pending queue evicts by arrival).
func TestPluginRegistry(t *testing.T) {
	names := PluginNames()
	want := []string{"SMP", "AR(8)", "BM(8)", "MA(8)", "ARMA(8,8)", "LAST", "FFT", "PCT"}
	if len(names) != len(want) {
		t.Fatalf("registered plugins = %v, want %v", names, want)
	}
	for i, n := range want {
		if names[i] != n {
			t.Fatalf("registered plugins = %v, want %v", names, want)
		}
	}
	for _, n := range names {
		pl, ok := NewPlugin(n, PluginOptions{Cfg: avail.DefaultConfig()})
		if !ok {
			t.Fatalf("NewPlugin(%q) not found", n)
		}
		if pl.Name() != n {
			t.Fatalf("plugin registered as %q names itself %q", n, pl.Name())
		}
	}
	if _, ok := NewPlugin("no-such-predictor", PluginOptions{}); ok {
		t.Fatal("unknown plugin constructed")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration did not panic")
		}
	}()
	RegisterPlugin("SMP", func(PluginOptions) Plugin { return SMP{} })
}

// TestPluginDeterminism repeats every day-structured plugin on the same
// input: the results must be bit-identical, the property golden traces and
// the fleetsim transcript hash rely on.
func TestPluginDeterminism(t *testing.T) {
	days := failHistory(10, 3)
	w := Window{Start: 8 * time.Hour, Length: 2 * time.Hour}
	in := PluginInput{Days: days, Window: w, Period: time.Minute}
	fft := DefaultSpectral()
	pct := DefaultPercentile()
	for _, pl := range []Plugin{fft, pct} {
		first, err := pl.PredictTR(in)
		if err != nil {
			t.Fatalf("%s: %v", pl.Name(), err)
		}
		if first < 0 || first > 1 {
			t.Fatalf("%s: TR %v outside [0, 1]", pl.Name(), first)
		}
		for i := 0; i < 5; i++ {
			again, err := pl.PredictTR(in)
			if err != nil {
				t.Fatalf("%s: %v", pl.Name(), err)
			}
			if again != first {
				t.Fatalf("%s: non-deterministic TR: %v then %v", pl.Name(), first, again)
			}
		}
	}
}

// TestPluginCacheSaltIsolation drives differently-configured instances of
// the same plugin through one engine: distinct knobs must produce distinct
// cache entries (different salts), and repeated identical calls must hit.
func TestPluginCacheSaltIsolation(t *testing.T) {
	days := failHistory(10, 3)
	w := Window{Start: 8 * time.Hour, Length: 2 * time.Hour}
	in := PluginInput{Days: days, Window: w, Period: time.Minute}
	e := NewEngine(EngineConfig{})

	plain := DefaultSpectral()
	margined := DefaultSpectral()
	margined.MarginFraction = 0.5
	if plain.CacheSalt() == margined.CacheSalt() {
		t.Fatal("different MarginFraction, same cache salt")
	}
	trPlain, err := e.PredictPluginCtx(context.Background(), plain, in)
	if err != nil {
		t.Fatal(err)
	}
	trMargined, err := e.PredictPluginCtx(context.Background(), margined, in)
	if err != nil {
		t.Fatal(err)
	}
	if trMargined >= trPlain {
		t.Fatalf("margined TR %v not below plain TR %v — cache entries collided?", trMargined, trPlain)
	}
	misses := e.Stats().Misses
	for i := 0; i < 3; i++ {
		again, err := e.PredictPluginCtx(context.Background(), plain, in)
		if err != nil {
			t.Fatal(err)
		}
		if again != trPlain {
			t.Fatalf("cached TR %v != first %v", again, trPlain)
		}
	}
	if got := e.Stats().Misses; got != misses {
		t.Fatalf("repeated identical plugin calls missed the cache: %d -> %d misses", misses, got)
	}

	// The plugin name is part of the key, so two plugins over the same days
	// and window can never share an entry.
	pct := DefaultPercentile()
	trPct, err := e.PredictPluginCtx(context.Background(), pct, in)
	if err != nil {
		t.Fatal(err)
	}
	again, err := e.PredictPluginCtx(context.Background(), plain, in)
	if err != nil {
		t.Fatal(err)
	}
	if again != trPlain {
		t.Fatalf("FFT entry clobbered by PCT: %v != %v (pct %v)", again, trPlain, trPct)
	}

	// Two Spectral values that differ in any one knob share neither a salt
	// nor a fitted spectrum: on the pool `plain` already fitted, each
	// variant's first window pays for a fit of its own.
	salts := map[uint64]string{plain.CacheSalt(): "default"}
	for name, s := range oneKnobVariants() {
		if name == "default" {
			continue
		}
		if other, dup := salts[s.CacheSalt()]; dup {
			t.Fatalf("knob %s shares a cache salt with %s", name, other)
		}
		salts[s.CacheSalt()] = name
		ev := eventCounts(t, func(ctx context.Context) {
			if _, err := e.PredictPluginCtx(ctx, s, in); err != nil {
				t.Fatal(err)
			}
		})
		if ev["spectrum-fit"] != 1 || ev["spectrum-hit"] != 0 {
			t.Fatalf("knob %s: events %v, want a spectrum-fit of its own", name, ev)
		}
	}

	// Every field of avail.Config, found by reflection, moves both plugins'
	// salts: a field added to the configuration cannot be left out of one
	// plugin's cache key.
	base := avail.DefaultConfig()
	for i := 0; i < reflect.TypeOf(base).NumField(); i++ {
		field := reflect.TypeOf(base).Field(i).Name
		cfg := base
		switch f := reflect.ValueOf(&cfg).Elem().Field(i); f.Kind() {
		case reflect.Float64:
			f.SetFloat(f.Float() + 1)
		case reflect.Int64: // time.Duration
			f.SetInt(f.Int() + 1)
		default:
			t.Fatalf("avail.Config.%s has kind %v: teach this test to perturb it", field, f.Kind())
		}
		fft, pct := DefaultSpectral(), DefaultPercentile()
		fft.Cfg, pct.Cfg = cfg, cfg
		if fft.CacheSalt() == DefaultSpectral().CacheSalt() {
			t.Fatalf("avail.Config.%s is not in Spectral's cache salt", field)
		}
		if pct.CacheSalt() == DefaultPercentile().CacheSalt() {
			t.Fatalf("avail.Config.%s is not in Percentile's cache salt", field)
		}
	}
}

// TestEnginePluginDifferential runs every registered plugin through the
// engine and directly: the engine may memoize but never alter a prediction,
// with caching on or off, whether or not the caller knows the current state.
// An SMP plugin call lands on the kernel entry PredictFromCtx filled.
func TestEnginePluginDifferential(t *testing.T) {
	ctx := context.Background()
	days := failHistory(10, 3)
	w := Window{Start: 8 * time.Hour, Length: 2 * time.Hour}
	base := PluginInput{
		Days:   days,
		Prev:   days[len(days)-1].Window(w.Start-w.Length, w.Length),
		Window: w,
		Period: period,
	}
	s1, s2 := base, base
	s1.State, s1.HaveState = avail.S1, true
	s2.State, s2.HaveState = avail.S2, true
	opts := PluginOptions{Cfg: avail.DefaultConfig(), HistoryDays: 7}
	for _, cacheSize := range []int{0, -1} {
		e := NewEngine(EngineConfig{CacheSize: cacheSize})
		for _, name := range PluginNames() {
			pl, _ := NewPlugin(name, opts)
			for _, in := range []PluginInput{base, s1, s2} {
				want, wantErr := pl.PredictTR(in)
				// Twice: with caching on, the second answer is a hit.
				for pass := 0; pass < 2; pass++ {
					got, err := e.PredictPluginCtx(ctx, pl, in)
					if got != want || (err == nil) != (wantErr == nil) {
						t.Fatalf("%s cache %d pass %d: engine (%v, %v) != direct (%v, %v)", name, cacheSize, pass, got, err, want, wantErr)
					}
				}
			}
		}
	}

	e := NewEngine(EngineConfig{})
	p := SMP{Cfg: opts.Cfg, HistoryDays: opts.HistoryDays}
	want, err := e.PredictFromCtx(ctx, p, days, w, avail.S2)
	if err != nil {
		t.Fatal(err)
	}
	before := e.Stats()
	got, err := e.PredictPluginCtx(ctx, p, s2)
	if err != nil || got != want {
		t.Fatalf("PredictPluginCtx(SMP) = (%v, %v), PredictFromCtx gave %v", got, err, want)
	}
	if after := e.Stats(); after.Hits != before.Hits+1 || after.Misses != before.Misses {
		t.Fatalf("PredictPluginCtx(SMP) after PredictFromCtx was not a hit: %+v -> %+v", before, after)
	}
}
