// Package stats provides the statistical tooling used across the repository:
// descriptive statistics, autocovariance/autocorrelation, the Levinson–Durbin
// recursion for Yule–Walker systems, quantiles, histograms, and least-squares
// line fits (used to measure the Figure 4 cost exponent).
package stats

import (
	"errors"
	"math"
	"sort"
)

// ErrEmpty is returned by functions that need at least one observation.
var ErrEmpty = errors.New("stats: empty input")

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Variance returns the population variance of xs (divides by n).
func Variance(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := Mean(xs)
	s := 0.0
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return s / float64(len(xs))
}

// StdDev returns the population standard deviation of xs.
func StdDev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// Quantile returns the q-quantile (0 <= q <= 1) of xs using linear
// interpolation between order statistics. xs need not be sorted.
func Quantile(xs []float64, q float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	if q < 0 || q > 1 {
		return 0, errors.New("stats: quantile out of range")
	}
	ys := append([]float64(nil), xs...)
	sort.Float64s(ys)
	pos := q * float64(len(ys)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return ys[lo], nil
	}
	frac := pos - float64(lo)
	return ys[lo]*(1-frac) + ys[hi]*frac, nil
}

// Autocovariance returns the sample autocovariance of xs at lags 0..maxLag,
// using the biased (1/n) estimator, which guarantees a positive semidefinite
// autocovariance sequence (required by Levinson–Durbin).
func Autocovariance(xs []float64, maxLag int) []float64 {
	n := len(xs)
	if maxLag >= n {
		maxLag = n - 1
	}
	if maxLag < 0 {
		return nil
	}
	m := Mean(xs)
	acov := make([]float64, maxLag+1)
	for lag := 0; lag <= maxLag; lag++ {
		s := 0.0
		for t := 0; t+lag < n; t++ {
			s += (xs[t] - m) * (xs[t+lag] - m)
		}
		acov[lag] = s / float64(n)
	}
	return acov
}

// LevinsonDurbin solves the Yule–Walker equations R a = r for the AR(p)
// coefficients a[0..p-1] given the autocovariance sequence acov[0..p]
// (acov[0] is the variance). It returns the coefficients and the final
// innovation variance. The convention is
//
//	x[t] ≈ a[0] x[t-1] + a[1] x[t-2] + ... + a[p-1] x[t-p].
//
// It returns an error when acov is too short or the variance is zero.
func LevinsonDurbin(acov []float64, p int) (coeffs []float64, noiseVar float64, err error) {
	if p < 1 {
		return nil, 0, errors.New("stats: AR order must be >= 1")
	}
	if len(acov) < p+1 {
		return nil, 0, errors.New("stats: autocovariance sequence too short")
	}
	if acov[0] <= 0 {
		return nil, 0, errors.New("stats: zero variance")
	}
	a := make([]float64, p)
	prev := make([]float64, p)
	e := acov[0]
	for k := 0; k < p; k++ {
		acc := acov[k+1]
		for j := 0; j < k; j++ {
			acc -= a[j] * acov[k-j]
		}
		if e == 0 {
			// Degenerate (perfectly predictable) series: stop early,
			// remaining coefficients stay zero.
			break
		}
		refl := acc / e
		copy(prev, a[:k])
		a[k] = refl
		for j := 0; j < k; j++ {
			a[j] = prev[j] - refl*prev[k-1-j]
		}
		e *= 1 - refl*refl
		if e < 0 {
			e = 0
		}
	}
	return a, e, nil
}

// LinearFit fits y = slope*x + intercept by ordinary least squares.
func LinearFit(x, y []float64) (slope, intercept float64, err error) {
	if len(x) != len(y) {
		return 0, 0, errors.New("stats: length mismatch")
	}
	if len(x) < 2 {
		return 0, 0, errors.New("stats: need at least two points")
	}
	mx, my := Mean(x), Mean(y)
	num, den := 0.0, 0.0
	for i := range x {
		num += (x[i] - mx) * (y[i] - my)
		den += (x[i] - mx) * (x[i] - mx)
	}
	if den == 0 {
		return 0, 0, errors.New("stats: degenerate x values")
	}
	slope = num / den
	intercept = my - slope*mx
	return slope, intercept, nil
}

// PowerLawExponent estimates b in y = a*x^b via a log-log least-squares fit,
// as used to verify the superlinear cost growth of Figure 4. Non-positive
// points are skipped.
func PowerLawExponent(x, y []float64) (float64, error) {
	if len(x) != len(y) {
		return 0, errors.New("stats: length mismatch")
	}
	var lx, ly []float64
	for i := range x {
		if x[i] > 0 && y[i] > 0 {
			lx = append(lx, math.Log(x[i]))
			ly = append(ly, math.Log(y[i]))
		}
	}
	slope, _, err := LinearFit(lx, ly)
	return slope, err
}

// RelativeError returns |predicted-actual| / |actual|. When actual is zero it
// returns 0 if predicted is also zero and +Inf otherwise, mirroring how the
// paper's relative-error metric degenerates when the empirical TR reaches 0.
func RelativeError(predicted, actual float64) float64 {
	if actual == 0 {
		if predicted == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return math.Abs(predicted-actual) / math.Abs(actual)
}

// Summary holds the aggregate statistics reported for a set of observations,
// in the shape used by the Figure 5 error bars (average with min/max).
type Summary struct {
	N    int
	Mean float64
	Min  float64
	Max  float64
	Std  float64
}

// Summarize computes a Summary of xs. Infinite values are excluded from the
// mean/std but counted and reflected in Max.
func Summarize(xs []float64) Summary {
	var s Summary
	s.N = len(xs)
	if len(xs) == 0 {
		return s
	}
	finite := make([]float64, 0, len(xs))
	s.Min = math.Inf(1)
	s.Max = math.Inf(-1)
	for _, x := range xs {
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
		if !math.IsInf(x, 0) && !math.IsNaN(x) {
			finite = append(finite, x)
		}
	}
	s.Mean = Mean(finite)
	s.Std = StdDev(finite)
	return s
}
