package predict

import (
	"context"
	"reflect"
	"testing"
	"time"

	"fgcs/internal/avail"
)

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
	if plain.cacheSalt() == margined.cacheSalt() {
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
	salts := map[uint64]string{plain.cacheSalt(): "default"}
	for name, s := range oneKnobVariants() {
		if name == "default" {
			continue
		}
		if other, dup := salts[s.cacheSalt()]; dup {
			t.Fatalf("knob %s shares a cache salt with %s", name, other)
		}
		salts[s.cacheSalt()] = name
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
		if fft.cacheSalt() == DefaultSpectral().cacheSalt() {
			t.Fatalf("avail.Config.%s is not in Spectral's cache salt", field)
		}
		if pct.cacheSalt() == DefaultPercentile().cacheSalt() {
			t.Fatalf("avail.Config.%s is not in Percentile's cache salt", field)
		}
	}
}

// TestEnginePluginDifferential runs both shadow plugins through the engine
// and directly: the engine may memoize but never alter a prediction, with
// caching on or off, on a window each answers and on one neither can.
func TestEnginePluginDifferential(t *testing.T) {
	ctx := context.Background()
	days := failHistory(10, 3)
	w := Window{Start: 8 * time.Hour, Length: 2 * time.Hour}
	fft, pct := DefaultSpectral(), DefaultPercentile()
	fft.HistoryDays, pct.HistoryDays = 7, 7
	inputs := []PluginInput{
		{Days: days, Window: w, Period: period},
		{Window: w, Period: period}, // no history: both refuse
	}
	for _, cacheSize := range []int{0, -1} {
		e := NewEngine(EngineConfig{CacheSize: cacheSize})
		for _, pl := range []Plugin{fft, pct} {
			for _, in := range inputs {
				want, wantErr := pl.PredictTR(in)
				// Twice: with caching on, the second answer is a hit.
				for pass := 0; pass < 2; pass++ {
					got, err := e.PredictPluginCtx(ctx, pl, in)
					if got != want || (err == nil) != (wantErr == nil) {
						t.Fatalf("%s cache %d pass %d: engine (%v, %v) != direct (%v, %v)", pl.Name(), cacheSize, pass, got, err, want, wantErr)
					}
				}
			}
		}
	}
}
