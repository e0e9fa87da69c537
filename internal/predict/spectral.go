package predict

import (
	"fmt"
	"math"
	"math/cmplx"
	"sort"
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
	return s.predictTR(in, s.fit)
}

// predictTR is PredictTR with the window-independent half supplied by fit:
// s.fit itself when the plugin is called directly, the engine's memo of it
// (Engine.spectrum) when the call comes through PredictPluginCtx. Refusals keep
// one precedence either way: window, configuration, no days, a window shorter
// than the sampling period, and only then whatever fit reports.
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
// non-empty) day pool: classify, concatenate oldest-first, box-resample to
// spectralSignalLen, remove the mean, transform, keep the dominant bins.
func (s Spectral) fit(days []*trace.Day) (*spectrum, error) {
	total := 0
	for _, d := range days {
		total += len(d.Samples)
	}
	if total == 0 {
		return nil, fmt.Errorf("predict: spectral: history days carry no samples")
	}
	// Binary availability signal, a byte a sample; one classification
	// buffer serves every day.
	signal := make([]uint8, 0, total)
	var states []avail.State
	for _, d := range days {
		states = avail.ClassifyInto(states, d.Samples, s.Cfg, d.Period)
		for _, st := range states {
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
	bins := s.selectSpectrum(buf)
	sp := &spectrum{total: total, period: periodOf(days), mean: mean, items: make([]spectrumItem, 0, len(bins))}
	for _, bin := range bins {
		sp.items = append(sp.items, spectrumItem{bin: bin, re: real(buf[bin]), im: imag(buf[bin])})
	}
	return sp, nil
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

// selectSpectrum picks the dominant frequency bins of the half-spectrum per
// the crane-style knobs: amplitude-sorted (bin index breaks ties, so the
// choice is deterministic), at most MaxSpectrumItems, at least
// MinSpectrumItems of the strongest regardless of the amplitude cutoff, and
// beyond the floor only bins at or above LowAmplitudeThreshold of the
// strongest amplitude.
func (s Spectral) selectSpectrum(spec []complex128) []int {
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

// resampleBoxFilter resamples signal to exactly n points by fractional block
// averaging: output point i averages the source interval
// [i*L/n, (i+1)*L/n), weighting partial source samples by their overlap.
// Downsampling therefore anti-aliases (a box filter) and upsampling
// replicates; both are exact and deterministic. A uint8 signal converts
// exactly, so it resamples to the same values as its float64 copy.
func resampleBoxFilter[T uint8 | float64](signal []T, n int) []float64 {
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
			sum += float64(signal[j]) * (b - a)
			weight += b - a
		}
		if weight > 0 {
			out[i] = sum / weight
		}
	}
	return out
}

// fftRadix2 is an in-place iterative radix-2 Cooley-Tukey FFT. len(buf) must
// be a power of two (the resampler guarantees it).
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
