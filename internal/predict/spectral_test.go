package predict

import (
	"context"
	"fmt"
	"math"
	"math/cmplx"
	"sort"
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
	items := sortedSpectrum(s, buf)
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

// resampleBoxFilter resamples signal to exactly n points by fractional block
// averaging: output point i averages the source interval [i*L/n, (i+1)*L/n),
// weighting partial source samples by their overlap. It is the reference for
// scratch.boxFilter, which adds the same overlaps without building the signal.
func resampleBoxFilter(signal []float64, n int) []float64 {
	out := make([]float64, n)
	l := float64(len(signal))
	step := l / float64(n)
	for i := 0; i < n; i++ {
		lo := float64(i) * step
		hi := lo + step
		sum, weight := 0.0, 0.0
		for j := int(lo); j < len(signal) && float64(j) < hi; j++ {
			a, b := math.Max(lo, float64(j)), math.Min(hi, float64(j+1))
			if b <= a {
				continue
			}
			sum += signal[j] * (b - a)
			weight += b - a
		}
		if weight > 0 {
			out[i] = sum / weight
		}
	}
	return out
}

// sortedSpectrum is the reference for Spectral.selectSpectrum: sort every bin
// of the half-spectrum by amplitude (descending, ties to the lower bin), then
// keep at most MaxSpectrumItems, at least MinSpectrumItems, and beyond the
// floor only bins at or above LowAmplitudeThreshold of the strongest.
func sortedSpectrum(s Spectral, spec []complex128) []int {
	half := len(spec) / 2
	bins := make([]int, 0, half)
	maxAmp := 0.0
	for k := 1; k <= half; k++ {
		bins = append(bins, k)
		if a := cmplx.Abs(spec[k]); a > maxAmp {
			maxAmp = a
		}
	}
	sort.Slice(bins, func(i, j int) bool {
		ai, aj := cmplx.Abs(spec[bins[i]]), cmplx.Abs(spec[bins[j]])
		if ai != aj {
			return ai > aj
		}
		return bins[i] < bins[j]
	})
	maxItems := s.MaxSpectrumItems
	if maxItems <= 0 {
		maxItems = 20
	}
	minItems := s.MinSpectrumItems
	if minItems < 0 {
		minItems = 0
	}
	cutoff := s.LowAmplitudeThreshold * maxAmp
	kept := bins[:0]
	for _, k := range bins {
		if len(kept) >= maxItems {
			break
		}
		if len(kept) >= minItems && cmplx.Abs(spec[k]) < cutoff {
			break
		}
		kept = append(kept, k)
	}
	return kept
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

// spectralDays builds n days of the given period, each cut to keep samples,
// where sample i of day d is idle when up(d, i) and down otherwise.
func spectralDays(n int, p time.Duration, keep int, up func(d, i int) bool) []*trace.Day {
	days := make([]*trace.Day, n)
	for d := range days {
		day := trace.NewDay(monday.AddDate(0, 0, d), p)
		day.Samples = day.Samples[:min(keep, len(day.Samples))]
		for i := range day.Samples {
			day.Samples[i] = trace.Sample{CPU: 5, FreeMemMB: 400, Up: up(d, i)}
		}
		days[d] = day
	}
	return days
}

// spectralPools are the day pools the fit must reproduce the reference on.
// The box filter downsamples most of them; "upsampled" has fewer samples than
// transform points, "comb" exactly as many, and every other total is not a
// multiple of spectralSignalLen.
func spectralPools() map[string][]*trace.Day {
	ragged := spectralHistory(5)
	for i, d := range ragged {
		d.Samples = d.Samples[:d.IndexAt(24*time.Hour-time.Duration(i)*(3*time.Hour+37*time.Minute))]
	}
	upsampled := spectralDays(2, time.Minute, 1440, func(int, int) bool { return true })
	for _, d := range upsampled {
		failAt(d, 9*time.Hour, 30*time.Minute)
		busyAt(d, 14*time.Hour, 90*time.Minute, 90)
	}
	return map[string][]*trace.Day{
		"weekdays":  spectralHistory(7),
		"ragged":    ragged,
		"upsampled": upsampled,
		"all up":    spectralDays(3, period, 1<<20, func(int, int) bool { return true }),
		"all down":  spectralDays(3, period, 1<<20, func(int, int) bool { return false }),
		"comb":      combDays(),
	}
}

// combDays is 4 096 samples, up every eighth: its spectrum is a comb of four
// harmonics of exactly equal amplitude.
func combDays() []*trace.Day {
	return spectralDays(2, period, spectralSignalLen/2, func(_, i int) bool { return i%8 == 0 })
}

// spectralWindows are the windows TestSpectralMatchesReference evaluates a
// pool of period p at.
func spectralWindows(p time.Duration) []Window {
	var windows []Window
	for start := time.Duration(0); start < 24*time.Hour; start += 5*time.Hour + 7*time.Minute {
		for _, length := range []time.Duration{p, time.Hour, 5 * time.Hour, 10 * time.Hour} {
			if w := (Window{Start: start, Length: length}); w.Validate() == nil {
				windows = append(windows, w)
			}
		}
	}
	return windows
}

// matchReference checks s on one input against referenceSpectralTR, called
// directly and through e: the same error, or the same TR bit for bit. It
// returns the reference's refusal, if any.
func matchReference(t *testing.T, name string, e *Engine, s Spectral, in PluginInput) error {
	t.Helper()
	want, refErr := referenceSpectralTR(s, in)
	direct, err := s.PredictTR(in)
	viaEngine, engineErr := e.PredictPluginCtx(context.Background(), s, in)
	if refErr != nil {
		for how, err := range map[string]error{"direct": err, "engine": engineErr} {
			if err == nil || err.Error() != refErr.Error() {
				t.Fatalf("%s %v (%s): error %v, reference %v", name, in.Window, how, err, refErr)
			}
		}
		return refErr
	}
	if err != nil || engineErr != nil {
		t.Fatalf("%s %v: direct error %v, engine error %v, reference %v", name, in.Window, err, engineErr, want)
	}
	if math.Float64bits(direct) != math.Float64bits(want) || math.Float64bits(viaEngine) != math.Float64bits(want) {
		t.Fatalf("%s %v: direct %v, engine %v, reference %v", name, in.Window, direct, viaEngine, want)
	}
	return nil
}

// TestSpectralMatchesReference: fit-then-evaluate, called directly and
// through an engine that shares one fit between all the windows, equals the
// single-pass reference bit for bit over every pool, window and one-knob
// variant.
func TestSpectralMatchesReference(t *testing.T) {
	for pool, days := range spectralPools() {
		windows := spectralWindows(days[0].Period)
		for knob, s := range oneKnobVariants() {
			e := NewEngine(EngineConfig{})
			for _, w := range windows {
				in := PluginInput{Days: days, Window: w, Period: days[0].Period}
				if err := matchReference(t, pool+" "+knob, e, s, in); err != nil {
					t.Fatalf("%s %s %v: reference: %v", pool, knob, w, err)
				}
			}
		}
	}
}

// TestSpectralTieAtMaxItems: on the comb, whose kept harmonics have exactly
// equal amplitudes, MaxSpectrumItems is set to split the tie. The fit keeps
// the lower bins of the tie and still matches the sort-based reference.
func TestSpectralTieAtMaxItems(t *testing.T) {
	days := combDays()
	s := DefaultSpectral()
	s.MaxSpectrumItems, s.MinSpectrumItems = spectralSignalLen/2, spectralSignalLen/2
	all, err := s.fit(&scratch{}, days)
	if err != nil {
		t.Fatal(err)
	}
	amp := func(i int) float64 { return cmplx.Abs(complex(all.items[i].re, all.items[i].im)) }
	split := 0
	for i := 1; i < len(all.items) && split == 0; i++ {
		if amp(i) == amp(i-1) && amp(i) > 0 {
			split = i
		}
	}
	if split == 0 {
		t.Fatalf("no two bins of the comb tie in amplitude: %v", all.items[:min(len(all.items), 8)])
	}
	if lo, hi := all.items[split-1].bin, all.items[split].bin; lo > hi {
		t.Fatalf("tied bins ranked %d before %d, want the lower bin first", lo, hi)
	}
	s.MaxSpectrumItems, s.MinSpectrumItems = split, split
	e := NewEngine(EngineConfig{})
	for _, w := range spectralWindows(days[0].Period) {
		if err := matchReference(t, "comb split at the tie", e, s, PluginInput{Days: days, Window: w}); err != nil {
			t.Fatalf("%v: reference: %v", w, err)
		}
	}
}

// fuzzDays decodes a day log: a head byte picks the number of days (one to
// four) and the period, then each day takes two bytes for how many samples
// it drops from the end and a byte per run of identical samples (idle, busy,
// reniced, short of memory, down) for the rest. A log that runs out reads
// as zero bytes: idle, one sample a run.
func fuzzDays(log []byte) []*trace.Day {
	next := func() byte {
		if len(log) == 0 {
			return 0
		}
		b := log[0]
		log = log[1:]
		return b
	}
	kinds := []trace.Sample{
		{CPU: 5, FreeMemMB: 400, Up: true},
		{CPU: 90, FreeMemMB: 400, Up: true},
		{CPU: 40, FreeMemMB: 400, Up: true},
		{CPU: 5, FreeMemMB: 50, Up: true},
		{Up: false},
	}
	periods := []time.Duration{period, time.Minute, 7 * time.Minute}
	head := next()
	days := make([]*trace.Day, 1+int(head%4))
	for i := range days {
		d := trace.NewDay(monday.AddDate(0, 0, i), periods[int(head/4)%len(periods)])
		drop := int(next())<<8 | int(next())
		d.Samples = d.Samples[:len(d.Samples)-drop%(len(d.Samples)+1)]
		for j := 0; j < len(d.Samples); {
			b := next()
			run := 1 + int(b/5)*(1+len(d.Samples)/512)
			for end := min(j+run, len(d.Samples)); j < end; j++ {
				d.Samples[j] = kinds[b%5]
			}
		}
		days[i] = d
	}
	return days
}

// FuzzSpectralMatchesReference: over random day logs, knobs and windows, the
// fit-then-evaluate pipeline refuses what the reference refuses, with the
// same error, and otherwise returns its TR bit for bit, directly and through
// an engine.
func FuzzSpectralMatchesReference(f *testing.F) {
	f.Add([]byte{0}, uint64(0), uint32(8*60))
	f.Add([]byte{5, 0, 0, 7, 200, 4, 0, 9, 3, 1, 0}, uint64(0x1234567), uint32(600|120<<11))
	f.Add([]byte{3, 1, 0, 40, 41, 42, 43, 44, 2, 0, 10, 14, 255}, uint64(0xdeadbeef), uint32(13*60|600<<11))
	f.Add([]byte{11, 0, 0, 4, 0, 0, 4, 0, 0, 4, 0, 0, 4}, uint64(7<<3|7<<9), uint32(1439|3<<11))
	f.Fuzz(func(t *testing.T, log []byte, knobs uint64, window uint32) {
		days := fuzzDays(log)
		s := DefaultSpectral()
		s.HistoryDays = int(knobs % 5)
		s.MaxSpectrumItems = int(knobs >> 3 % 41)
		s.MinSpectrumItems = int(knobs>>9%33) - 2
		s.LowAmplitudeThreshold = float64(knobs>>15&0xff) / 200
		s.MarginFraction = float64(knobs>>23&0x3f) / 100
		w := Window{
			Start:  time.Duration(window%1440) * time.Minute,
			Length: time.Duration(1+(window>>11)%86400) * time.Second,
		}
		matchReference(t, "fuzz", NewEngine(EngineConfig{}), s, PluginInput{Days: days, Window: w})
	})
}

// TestSpectralFitAllocCeiling: on a warm scratch a fit allocates its answer
// and nothing else: the spectrum and its items. Before the fit streamed into
// scratch it allocated the byte signal, the resampled slice, the transform,
// the bin list and the sort's closure on every call.
func TestSpectralFitAllocCeiling(t *testing.T) {
	if raceDetector {
		t.Skip("allocation counts of a -race build are not the program's")
	}
	days := spectralHistory(7)
	s := DefaultSpectral()
	sc := &scratch{}
	fit := func() {
		if _, err := s.fit(sc, days); err != nil {
			t.Fatal(err)
		}
	}
	fit()
	if n := testing.AllocsPerRun(20, fit); n > 2 {
		t.Fatalf("a fit on a warm scratch allocates %.1f times, want <= 2 (the spectrum and its items)", n)
	}
}

// TestSpectrumOutlivesItsScratch: a spectrum evaluates the same after the
// scratch it was fitted on serves an SMP miss, a PCT miss and the fit of
// another pool: nothing the spectrum keeps aliases scratch.
func TestSpectrumOutlivesItsScratch(t *testing.T) {
	days, other := spectralHistory(7), spectralPools()["ragged"]
	s := DefaultSpectral()
	sc := &scratch{}
	sp, err := s.fit(sc, days)
	if err != nil {
		t.Fatal(err)
	}
	windows := spectralWindows(period)
	before := make([]float64, len(windows))
	for i, w := range windows {
		before[i] = s.evaluate(sp, w)
	}
	w := Window{Start: 8 * time.Hour, Length: 10 * time.Hour}
	kernel, pred, units, err := defaultSMP().prepare(sc, other, w)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pred.solve(sc, kernel, units); err != nil {
		t.Fatal(err)
	}
	if _, err := DefaultPercentile().predictTR(sc, PluginInput{Days: other, Window: w}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.fit(sc, other); err != nil {
		t.Fatal(err)
	}
	for i, w := range windows {
		if after := s.evaluate(sp, w); math.Float64bits(after) != math.Float64bits(before[i]) {
			t.Fatalf("%v: the spectrum evaluates to %v after its scratch was reused, %v before", w, after, before[i])
		}
	}
}

// spectrumSink keeps BenchmarkSpectralFit's result live.
var spectrumSink *spectrum

// BenchmarkSpectralFit measures one fit of a seven-weekday pool at the
// default period on a warm scratch.
func BenchmarkSpectralFit(b *testing.B) {
	days := spectralHistory(7)
	s := DefaultSpectral()
	sc := &scratch{}
	fit := func() {
		sp, err := s.fit(sc, days)
		if err != nil {
			b.Fatal(err)
		}
		spectrumSink = sp
	}
	fit()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fit()
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
	for _, tr := range rec.Snapshot(time.Time{}).TracesLimit(0) {
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
