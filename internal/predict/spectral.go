package predict

import (
	"fmt"
	"math"
	"math/cmplx"
	"time"

	"fgcs/internal/avail"
	"fgcs/internal/trace"
)

// Spectral is the FFT predictor: it treats the machine's availability as a
// periodic signal, extracts its dominant spectrum (diurnal/weekly harmonics
// dominate on cycle-sharing hosts), reconstructs the next day's window from
// the truncated Fourier series, and reports the window's worst reconstructed
// availability as the TR. The knobs mirror crane's DSP estimator: spectrum
// item caps, a low-amplitude cutoff relative to the strongest component, and
// a safety margin shaved off the final prediction.
//
// The pipeline, all deterministic: classify each history day's samples into
// a binary available/unavailable signal (1 when the state is recoverable),
// concatenate the days oldest-first, resample to a fixed power-of-two length
// by fractional block averaging (an anti-aliasing box filter), remove the
// mean, run a radix-2 FFT, keep the dominant components per the knobs, and
// evaluate the series at the query window's positions on the following day
// (the series is periodic, so out-of-range positions wrap — crane's
// periodic-extension forecast).
type Spectral struct {
	// Cfg is the availability-model configuration used to classify the
	// history into the binary availability signal.
	Cfg avail.Config
	// HistoryDays bounds how many of the most recent days feed the
	// spectrum (zero means all provided).
	HistoryDays int
	// MaxSpectrumItems caps how many frequency components the truncated
	// series keeps (crane: maxNumOfSpectrumItems).
	MaxSpectrumItems int
	// MinSpectrumItems is the floor of kept components: the strongest
	// Min items are retained even below the amplitude threshold (crane:
	// minNumOfSpectrumItems).
	MinSpectrumItems int
	// LowAmplitudeThreshold drops components weaker than this fraction of
	// the strongest component's amplitude (crane: lowAmplitudeThreshold,
	// expressed relative rather than absolute so the knob is scale-free).
	LowAmplitudeThreshold float64
	// MarginFraction shaves a safety margin off the final TR:
	// tr *= (1 - MarginFraction) (crane: marginFraction).
	MarginFraction float64
}

// spectralSignalLen is the fixed power-of-two length the availability signal
// is resampled to before the FFT. 4096 points over a multi-day history keeps
// per-fit cost bounded and independent of the monitoring period while
// resolving harmonics far above the diurnal fundamental.
const spectralSignalLen = 4096

// DefaultSpectral returns the FFT predictor with crane's default knobs.
func DefaultSpectral() Spectral {
	return Spectral{
		Cfg:                   avail.DefaultConfig(),
		MaxSpectrumItems:      20,
		MinSpectrumItems:      10,
		LowAmplitudeThreshold: 0.05,
		MarginFraction:        0,
	}
}

// Name implements Plugin.
func (Spectral) Name() string { return "FFT" }

// cacheSalt implements Plugin: Spectral is a pure function of (Days,
// Window, knobs), so the engine may memoize it. Every knob folds in.
func (s Spectral) cacheSalt() uint64 {
	h := configSalt(s.Cfg, s.HistoryDays)
	h = mix64(h, uint64(s.MaxSpectrumItems))
	h = mix64(h, uint64(s.MinSpectrumItems))
	h = mix64(h, math.Float64bits(s.LowAmplitudeThreshold))
	h = mix64(h, math.Float64bits(s.MarginFraction))
	return h
}

// PredictTR implements Plugin: fit the spectrum of the day pool, then evaluate
// it over the window.
func (s Spectral) PredictTR(in PluginInput) (float64, error) {
	return s.predictTR(in, func(days []*trace.Day) (*spectrum, error) {
		sc := getScratch()
		defer putScratch(sc)
		return s.fit(sc, days)
	})
}

// predictTR is PredictTR with the window-independent half supplied by fit:
// s.fit on a scratch from the free list when the plugin is called directly,
// the engine's memo of it (Engine.spectrum) when the call comes through
// PredictPluginCtx. Refusals keep one precedence either way: window,
// configuration, no days, a window shorter than the sampling period, and
// only then whatever fit reports.
func (s Spectral) predictTR(in PluginInput, fit func([]*trace.Day) (*spectrum, error)) (float64, error) {
	w := in.Window
	if err := w.Validate(); err != nil {
		return 0, err
	}
	// cacheable contract: only Days, Window and the receiver's own knobs
	// may influence the result — the cache salt covers exactly the
	// receiver.
	if err := s.Cfg.Validate(); err != nil {
		return 0, err
	}
	days := RecentDays(in.Days, s.HistoryDays)
	if len(days) == 0 {
		return 0, fmt.Errorf("predict: spectral: no history days")
	}
	if w.Units(periodOf(days)) < 1 {
		return 0, fmt.Errorf("predict: spectral: window %v shorter than the sampling period", w)
	}
	sp, err := fit(days)
	if err != nil {
		return 0, err
	}
	return s.evaluate(sp, w), nil
}

// spectrum is a fitted Spectral model: everything PredictTR derives from the
// day pool and the knobs before it looks at the window. It is immutable once
// built, so the engine shares one across queries.
type spectrum struct {
	total  int           // samples in the concatenated history signal
	period time.Duration // sampling period of the history
	mean   float64       // mean of the resampled signal (the DC term)
	items  []spectrumItem
}

// spectrumItem is one kept frequency component: its bin in the
// spectralSignalLen-point transform and the bin's value.
type spectrumItem struct {
	bin    int
	re, im float64
}

// fit runs the window-independent pipeline over the (already truncated,
// non-empty) day pool in one pass: classify each day into sc.states, add each
// recoverable sample's overlap with the spectralSignalLen box-filter cells
// straight into sc.fft, remove the mean, transform, keep the dominant bins.
// The spectrum copies its items out of sc, so the caller may reuse sc at once.
func (s Spectral) fit(sc *scratch, days []*trace.Day) (*spectrum, error) {
	total := 0
	for _, d := range days {
		total += len(d.Samples)
	}
	if total == 0 {
		return nil, fmt.Errorf("predict: spectral: history days carry no samples")
	}
	buf := sc.boxFilter(days, total, s.Cfg)
	mean := 0.0
	for _, v := range buf {
		mean += real(v)
	}
	mean /= spectralSignalLen
	for i, v := range buf {
		buf[i] = complex(real(v)-mean, 0)
	}
	fftRadix2(buf)
	top := s.selectSpectrum(sc, buf)
	sp := &spectrum{total: total, period: periodOf(days), mean: mean, items: make([]spectrumItem, len(top))}
	for i, b := range top {
		sp.items[i] = spectrumItem{bin: b.bin, re: real(buf[b.bin]), im: imag(buf[b.bin])}
	}
	return sp, nil
}

// boxFilter resamples the binary availability signal of days (1 where a
// sample's state is recoverable), concatenated oldest-first, to
// spectralSignalLen points by fractional block averaging, into sc.fft: point i
// averages the signal over [i·step, (i+1)·step) with step = total/len,
// weighting partial samples by their overlap, so downsampling anti-aliases
// (a box filter) and upsampling replicates. The signal itself is never built:
// each recoverable sample adds its overlap with the cells it meets, found by
// walking the cell edge forward. The length is a power of two, so every cell
// bound and every overlap is a multiple of 2⁻¹² below 2⁴¹ (for any total
// below 2⁴¹ samples): each cell's sum is exact in any order, and a cell's
// overlaps add up to step exactly, so sum/step is the weighted average.
func (sc *scratch) boxFilter(days []*trace.Day, total int, cfg avail.Config) []complex128 {
	if sc.fft == nil {
		sc.fft = make([]complex128, spectralSignalLen)
	}
	buf := sc.fft
	clear(buf)
	step := float64(total) / spectralSignalLen
	cell, hi := 0, step // the cell the walk is in and its upper edge
	pos := 0.0          // start of the next sample in signal coordinates
	for _, d := range days {
		sc.states = avail.ClassifyInto(sc.states, d.Samples, cfg, d.Period)
		for _, st := range sc.states {
			lo, end := pos, pos+1
			pos = end
			if !st.Recoverable() {
				continue
			}
			for hi <= lo {
				cell++
				hi += step
			}
			for hi < end {
				buf[cell] += complex(hi-lo, 0)
				lo = hi
				cell++
				hi += step
			}
			buf[cell] += complex(end-lo, 0)
		}
	}
	for i, v := range buf {
		buf[i] = complex(real(v)/step, 0)
	}
	return buf
}

// evaluate reconstructs the truncated series at the query window's positions
// on the day after the history and returns the window's worst value, less the
// margin, as the TR. Positions are expressed in original signal coordinates
// then scaled into resampled coordinates; the series is periodic so the
// next-day positions wrap onto the diurnal structure the dominant harmonics
// encode. The cost is units × items evaluations.
func (s Spectral) evaluate(sp *spectrum, w Window) float64 {
	m := float64(spectralSignalLen)
	scale := m / float64(sp.total)
	tr := math.Inf(1)
	for j, units := 0, w.Units(sp.period); j < units; j++ {
		pos := float64(sp.total) + (float64(w.Start)+(float64(j)+0.5)*float64(sp.period))/float64(sp.period)
		u := pos * scale
		v := sp.mean
		for _, it := range sp.items {
			sin, cos := math.Sincos(2 * math.Pi * float64(it.bin) * u / m)
			v += 2 / m * (it.re*cos - it.im*sin)
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
	return tr
}

// binAmp is one candidate frequency bin of the half-spectrum and its
// amplitude.
type binAmp struct {
	bin int
	amp float64
}

// selectSpectrum picks the dominant frequency bins of the half-spectrum per
// the crane-style knobs, strongest first: at most MaxSpectrumItems, at least
// MinSpectrumItems of the strongest regardless of the amplitude cutoff, and
// beyond the floor only bins at or above LowAmplitudeThreshold of the
// strongest amplitude. Bins are ranked by amplitude, descending, ties to the
// lower bin, so the choice is deterministic. One insertion pass keeps the
// best MaxSpectrumItems in sc.top, each amplitude computed once; the kept set
// is a prefix of that ranking, and the result aliases sc.top.
func (s Spectral) selectSpectrum(sc *scratch, spec []complex128) []binAmp {
	half := len(spec) / 2
	maxItems := s.MaxSpectrumItems
	if maxItems <= 0 {
		maxItems = 20
	}
	maxItems = min(maxItems, half)
	minItems := max(s.MinSpectrumItems, 0)
	top := sc.top[:0]
	for k := 1; k <= half; k++ {
		a := cmplx.Abs(spec[k])
		if len(top) == maxItems {
			if a <= top[maxItems-1].amp {
				continue // bins arrive ascending: a tie ranks below
			}
			top = top[:maxItems-1]
		}
		i := len(top)
		top = append(top, binAmp{})
		for ; i > 0 && top[i-1].amp < a; i-- {
			top[i] = top[i-1]
		}
		top[i] = binAmp{bin: k, amp: a}
	}
	sc.top = top
	cutoff := s.LowAmplitudeThreshold * top[0].amp
	n := 0
	for n < len(top) && (n < minItems || !(top[n].amp < cutoff)) {
		n++
	}
	return top[:n]
}

// fftRadix2 is an in-place iterative radix-2 Cooley-Tukey FFT. len(buf) must
// be a power of two (spectralSignalLen is).
func fftRadix2(buf []complex128) {
	n := len(buf)
	if n&(n-1) != 0 {
		panic("predict: fft length is not a power of two")
	}
	// Bit-reversal permutation.
	for i, j := 1, 0; i < n; i++ {
		bit := n >> 1
		for ; j&bit != 0; bit >>= 1 {
			j ^= bit
		}
		j |= bit
		if i < j {
			buf[i], buf[j] = buf[j], buf[i]
		}
	}
	for length := 2; length <= n; length <<= 1 {
		ang := -2 * math.Pi / float64(length)
		wl := cmplx.Rect(1, ang)
		for start := 0; start < n; start += length {
			w := complex(1, 0)
			for k := 0; k < length/2; k++ {
				u := buf[start+k]
				v := buf[start+k+length/2] * w
				buf[start+k] = u + v
				buf[start+k+length/2] = u - v
				w *= wl
			}
		}
	}
}
