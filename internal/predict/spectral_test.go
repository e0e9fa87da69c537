package predict

import (
	"context"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"fgcs/internal/avail"
	"fgcs/internal/otrace"
	"fgcs/internal/trace"
)

// referenceSpectralTR is Spectral.PredictTR as it stood before the fit and
// the evaluation were separated: one pass from the day pool to the TR. The
// split pipeline must reproduce it bit for bit.
func referenceSpectralTR(s Spectral, in PluginInput) (float64, error) {
	w := in.Window
	if err := w.Validate(); err != nil {
		return 0, err
	}
	cfg := s.Cfg
	if err := cfg.Validate(); err != nil {
		return 0, err
	}
	days := RecentDays(in.Days, s.HistoryDays)
	if len(days) == 0 {
		return 0, fmt.Errorf("predict: spectral: no history days")
	}
	period := periodOf(days)
	units := w.Units(period)
	if units < 1 {
		return 0, fmt.Errorf("predict: spectral: window %v shorter than the sampling period", w)
	}
	total := 0
	for _, d := range days {
		total += len(d.Samples)
	}
	if total == 0 {
		return 0, fmt.Errorf("predict: spectral: history days carry no samples")
	}
	signal := make([]float64, 0, total)
	for _, d := range days {
		for _, st := range avail.Classify(d.Samples, cfg, d.Period) {
			if st.Recoverable() {
				signal = append(signal, 1)
			} else {
				signal = append(signal, 0)
			}
		}
	}
	resampled := resampleBoxFilter(signal, spectralSignalLen)
	mean := 0.0
	for _, v := range resampled {
		mean += v
	}
	mean /= float64(len(resampled))
	buf := make([]complex128, len(resampled))
	for i, v := range resampled {
		buf[i] = complex(v-mean, 0)
	}
	fftRadix2(buf)
	items := s.selectSpectrum(buf)
	m := float64(len(resampled))
	scale := m / float64(total)
	tr := math.Inf(1)
	for j := 0; j < units; j++ {
		pos := float64(total) + (float64(w.Start)+(float64(j)+0.5)*float64(period))/float64(period)
		u := pos * scale
		v := mean
		for _, it := range items {
			v += 2 / m * (real(buf[it])*math.Cos(2*math.Pi*float64(it)*u/m) -
				imag(buf[it])*math.Sin(2*math.Pi*float64(it)*u/m))
		}
		if v < tr {
			tr = v
		}
	}
	tr *= 1 - s.MarginFraction
	if tr < 0 {
		tr = 0
	}
	if tr > 1 {
		tr = 1
	}
	return tr, nil
}

// spectralHistory is a day pool with enough structure for a non-trivial
// spectrum: a recurring morning outage and a few busy afternoons.
func spectralHistory(n int) []*trace.Day {
	days := failHistory(n, 3)
	for i := 1; i < n; i += 4 {
		busyAt(days[i], 14*time.Hour, 90*time.Minute, 90)
	}
	return days
}

// oneKnobVariants returns DefaultSpectral plus one variant per knob that
// differs from it in that knob alone.
func oneKnobVariants() map[string]Spectral {
	v := map[string]Spectral{}
	for name, set := range map[string]func(*Spectral){
		"default":               func(*Spectral) {},
		"Th1":                   func(s *Spectral) { s.Cfg.Th1 = 10 },
		"Th2":                   func(s *Spectral) { s.Cfg.Th2 = 80 },
		"SuspendLimit":          func(s *Spectral) { s.Cfg.SuspendLimit = 5 * time.Minute },
		"GuestMemMB":            func(s *Spectral) { s.Cfg.GuestMemMB = 300 },
		"HistoryDays":           func(s *Spectral) { s.HistoryDays = 5 },
		"MaxSpectrumItems":      func(s *Spectral) { s.MaxSpectrumItems = 12 },
		"MinSpectrumItems":      func(s *Spectral) { s.MinSpectrumItems = 3 },
		"LowAmplitudeThreshold": func(s *Spectral) { s.LowAmplitudeThreshold = 0.5 },
		"MarginFraction":        func(s *Spectral) { s.MarginFraction = 0.25 },
	} {
		s := DefaultSpectral()
		set(&s)
		v[name] = s
	}
	return v
}

// TestSpectralMatchesReference: fit-then-evaluate, called directly and
// through an engine that shares one fit between all the windows, equals the
// single-pass reference bit for bit over a grid of windows and knobs.
func TestSpectralMatchesReference(t *testing.T) {
	days := spectralHistory(7)
	var windows []Window
	for start := time.Duration(0); start < 24*time.Hour; start += 5*time.Hour + 7*time.Minute {
		for _, length := range []time.Duration{period, time.Hour, 5 * time.Hour, 10 * time.Hour} {
			if w := (Window{Start: start, Length: length}); w.Validate() == nil {
				windows = append(windows, w)
			}
		}
	}
	for name, s := range oneKnobVariants() {
		e := NewEngine(EngineConfig{})
		for _, w := range windows {
			in := PluginInput{Days: days, Window: w, Period: period}
			want, err := referenceSpectralTR(s, in)
			if err != nil {
				t.Fatalf("%s %v: reference: %v", name, w, err)
			}
			direct, err := s.PredictTR(in)
			if err != nil {
				t.Fatalf("%s %v: %v", name, w, err)
			}
			viaEngine, err := e.PredictPluginCtx(context.Background(), s, in)
			if err != nil {
				t.Fatalf("%s %v: engine: %v", name, w, err)
			}
			if math.Float64bits(direct) != math.Float64bits(want) || math.Float64bits(viaEngine) != math.Float64bits(want) {
				t.Fatalf("%s %v: direct %v, engine %v, reference %v", name, w, direct, viaEngine, want)
			}
		}
	}
}

// eventCounts runs fn under one sampled root span and returns how often each
// event name was marked on it.
func eventCounts(t *testing.T, fn func(ctx context.Context)) map[string]int {
	t.Helper()
	rec := otrace.NewRecorder(1)
	ctx, span := otrace.New(otrace.Config{SampleRate: 1, Recorder: rec}).Start(context.Background(), "test")
	if span == nil {
		t.Fatal("root span not sampled")
	}
	fn(ctx)
	span.End()
	counts := map[string]int{}
	for _, tr := range rec.Traces(0) {
		for _, sd := range tr.Spans {
			for _, ev := range sd.Events {
				counts[ev.Name]++
			}
		}
	}
	return counts
}

// movedWindows returns n one-hour windows, each starting one period after the
// previous: what a live node's successive queries look like.
func movedWindows(n int) []Window {
	ws := make([]Window, n)
	for i := range ws {
		ws[i] = Window{Start: 8*time.Hour + time.Duration(i)*period, Length: time.Hour}
	}
	return ws
}

// TestEngineFitsSpectrumOncePerPool: moved windows on one day pool are
// window-level misses — the accounting bench/ and QueryTRResp.CacheMisses
// rely on — but share one spectrum fit; a new sealed day refits.
func TestEngineFitsSpectrumOncePerPool(t *testing.T) {
	days := spectralHistory(8)
	s := DefaultSpectral()
	e := NewEngine(EngineConfig{})
	query := func(days []*trace.Day, windows []Window) map[string]int {
		return eventCounts(t, func(ctx context.Context) {
			for _, w := range windows {
				in := PluginInput{Days: days, Window: w, Period: period}
				got, err := e.PredictPluginCtx(ctx, s, in)
				if err != nil {
					t.Fatal(err)
				}
				if want, _ := referenceSpectralTR(s, in); got != want {
					t.Fatalf("%v: %v != reference %v", w, got, want)
				}
			}
		})
	}
	const n = 50
	ev := query(days, movedWindows(n))
	if ev["spectrum-fit"] != 1 || ev["spectrum-hit"] != n-1 || ev["cache-miss"] != n || ev["cache-hit"] != 0 {
		t.Fatalf("events over %d moved windows = %v, want one spectrum-fit, the rest spectrum-hit, every window a cache-miss", n, ev)
	}
	if st := e.Stats(); st.Misses != n || st.Hits != 0 {
		t.Fatalf("stats after %d cold FFT windows = %+v, want %d misses and no hits", n, st, n)
	}
	// A window-level hit does not look the spectrum up at all.
	ev = query(days, movedWindows(1))
	if len(ev) != 1 || ev["cache-hit"] != 1 {
		t.Fatalf("events on a repeated window = %v, want only a cache-hit", ev)
	}
	// A new sealed day is a new pool: one more fit, shared again.
	grown := append(append([]*trace.Day(nil), days...), idleDay(len(days)))
	ev = query(grown, movedWindows(5))
	if ev["spectrum-fit"] != 1 || ev["spectrum-hit"] != 4 {
		t.Fatalf("events after appending a day = %v, want one spectrum-fit and four spectrum-hit", ev)
	}
}

// TestEngineSpectrumConcurrentColdWindows: concurrent cold windows on one
// pool coalesce to one spectrum fit (run under -race by `make test`).
func TestEngineSpectrumConcurrentColdWindows(t *testing.T) {
	days := spectralHistory(8)
	s := DefaultSpectral()
	e := NewEngine(EngineConfig{})
	windows := movedWindows(8)
	got := make([]float64, len(windows))
	ev := eventCounts(t, func(ctx context.Context) {
		var wg sync.WaitGroup
		for i, w := range windows {
			wg.Add(1)
			go func(i int, w Window) {
				defer wg.Done()
				tr, err := e.PredictPluginCtx(ctx, s, PluginInput{Days: days, Window: w, Period: period})
				if err != nil {
					t.Error(err)
				}
				got[i] = tr
			}(i, w)
		}
		wg.Wait()
	})
	if ev["spectrum-fit"] != 1 || ev["spectrum-hit"] != len(windows)-1 {
		t.Fatalf("events = %v, want one spectrum-fit and %d spectrum-hit", ev, len(windows)-1)
	}
	if st := e.Stats(); st.Misses != uint64(len(windows)) || st.Hits != 0 {
		t.Fatalf("stats = %+v, want %d misses and no hits", st, len(windows))
	}
	for i, w := range windows {
		if want, _ := referenceSpectralTR(s, PluginInput{Days: days, Window: w}); got[i] != want {
			t.Fatalf("%v: %v != reference %v", w, got[i], want)
		}
	}
}

// TestSpectralRefusalPrecedence: an input with several defects is refused
// for the same reason, directly and through the engine, in the order window,
// configuration, no days, window shorter than the period, no samples — and
// a refusal leaves nothing in the cache.
func TestSpectralRefusalPrecedence(t *testing.T) {
	good := DefaultSpectral()
	badCfg := DefaultSpectral()
	badCfg.Cfg.Th1 = badCfg.Cfg.Th2
	badWindow := Window{Start: 23 * time.Hour, Length: 2 * time.Hour}
	subPeriod := Window{Start: 8 * time.Hour, Length: period / 2}
	hour := Window{Start: 8 * time.Hour, Length: time.Hour}
	empty := []*trace.Day{{Date: monday, Period: period}, {Date: monday.AddDate(0, 0, 1), Period: period}}
	for _, c := range []struct {
		name string
		s    Spectral
		days []*trace.Day
		w    Window
		want string
	}{
		{"window first", badCfg, nil, badWindow, "does not fit in the day"},
		{"then configuration", badCfg, nil, subPeriod, "invalid thresholds"},
		{"then no days", good, nil, subPeriod, "no history days"},
		{"then sub-period window", good, empty, subPeriod, "shorter than the sampling period"},
		{"then no samples", good, empty, hour, "carry no samples"},
	} {
		in := PluginInput{Days: c.days, Window: c.w, Period: period}
		_, refErr := referenceSpectralTR(c.s, in)
		if refErr == nil || !strings.Contains(refErr.Error(), c.want) {
			t.Fatalf("%s: reference error %v, want one containing %q", c.name, refErr, c.want)
		}
		e := NewEngine(EngineConfig{})
		_, direct := c.s.PredictTR(in)
		_, viaEngine := e.PredictPluginCtx(context.Background(), c.s, in)
		for how, err := range map[string]error{"direct": direct, "engine": viaEngine} {
			if err == nil || err.Error() != refErr.Error() {
				t.Fatalf("%s (%s): error %v, want %v", c.name, how, err, refErr)
			}
		}
		if st := e.Stats(); st.Entries != 0 {
			t.Fatalf("%s: a refused query left %d cache entries", c.name, st.Entries)
		}
	}
}
