// Package timeseries implements the linear time-series models of Table 1 —
// AR(p), BM(p), MA(q), ARMA(p,q) and LAST — in the style of the RPS toolkit
// the paper uses as its reference predictor. Each model is fitted to a window
// of samples and produces multi-step-ahead forecasts; the paper's Figure 7
// baseline predicts the coming window from the previous window of equal
// length.
//
// Fitting algorithms: AR uses Yule–Walker via the Levinson–Durbin recursion;
// MA uses the innovations algorithm; ARMA uses two-stage Hannan–Rissanen
// least squares; BM and LAST are closed-form.
package timeseries

import (
	"errors"
	"fmt"
	"slices"

	"fgcs/internal/linalg"
	"fgcs/internal/stats"
)

// Model is a fitted time-series model positioned at the end of its training
// series.
type Model interface {
	// Name identifies the model, e.g. "AR(8)".
	Name() string
	// Forecast appends to dst the next `steps` values following the
	// training series (multi-step-ahead: predictions feed back into the
	// model state, as RPS does) and returns the extended slice. The values
	// do not depend on dst; pass nil for a fresh slice.
	Forecast(dst []float64, steps int) []float64
}

// Fitter builds a Model from a training series.
type Fitter interface {
	// Name identifies the model family, e.g. "AR(8)".
	Name() string
	// Fit trains on the series. Implementations degrade gracefully on
	// short or degenerate series (falling back to mean/persistence
	// behavior) and only error on empty input.
	Fit(series []float64) (Model, error)
}

// ErrEmptySeries is returned when fitting on an empty series.
var ErrEmptySeries = errors.New("timeseries: empty series")

// ---------------------------------------------------------------- LAST ----

// Last is the persistence model: every forecast equals the last measurement.
type Last struct{}

// Name implements Fitter.
func (Last) Name() string { return "LAST" }

// Fit implements Fitter.
func (Last) Fit(series []float64) (Model, error) {
	if len(series) == 0 {
		return nil, ErrEmptySeries
	}
	return constModel{name: "LAST", value: series[len(series)-1]}, nil
}

type constModel struct {
	name  string
	value float64
}

func (m constModel) Name() string { return m.name }
func (m constModel) Forecast(dst []float64, steps int) []float64 {
	dst = slices.Grow(dst, steps)
	for s := 0; s < steps; s++ {
		dst = append(dst, m.value)
	}
	return dst
}

// ------------------------------------------------------------------ BM ----

// BM is the windowed-mean model ("mean over the previous N values, N <= p").
type BM struct{ P int }

// Name implements Fitter.
func (b BM) Name() string { return fmt.Sprintf("BM(%d)", b.P) }

// Fit implements Fitter.
func (b BM) Fit(series []float64) (Model, error) {
	if len(series) == 0 {
		return nil, ErrEmptySeries
	}
	if b.P < 1 {
		return nil, errors.New("timeseries: BM window must be >= 1")
	}
	n := b.P
	if n > len(series) {
		n = len(series)
	}
	return constModel{name: b.Name(), value: stats.Mean(series[len(series)-n:])}, nil
}

// ------------------------------------------------------------------ AR ----

// AR is the autoregressive model of order P, fitted by Yule–Walker.
type AR struct{ P int }

// Name implements Fitter.
func (a AR) Name() string { return fmt.Sprintf("AR(%d)", a.P) }

// Fit implements Fitter.
func (a AR) Fit(series []float64) (Model, error) {
	if len(series) == 0 {
		return nil, ErrEmptySeries
	}
	if a.P < 1 {
		return nil, errors.New("timeseries: AR order must be >= 1")
	}
	p := a.P
	if p > len(series)-1 {
		p = len(series) - 1
	}
	mean := stats.Mean(series)
	if p < 1 {
		return constModel{name: a.Name(), value: mean}, nil
	}
	acov := stats.Autocovariance(series, p)
	coeffs, _, err := stats.LevinsonDurbin(acov, p)
	if err != nil {
		// Degenerate (constant) series: persistence of the mean.
		return constModel{name: a.Name(), value: mean}, nil
	}
	tail := centeredTail(series, mean, p)
	return &arModel{name: a.Name(), mean: mean, coeffs: coeffs, tail: tail}, nil
}

// centeredTail returns the last p values of the series minus the mean, most
// recent first.
func centeredTail(series []float64, mean float64, p int) []float64 {
	tail := make([]float64, p)
	for i := 0; i < p; i++ {
		tail[i] = series[len(series)-1-i] - mean
	}
	return tail
}

type arModel struct {
	name   string
	mean   float64
	coeffs []float64 // coeffs[i] multiplies x[t-1-i]
	tail   []float64 // centered recent values, most recent first
}

func (m *arModel) Name() string { return m.name }

func (m *arModel) Forecast(dst []float64, steps int) []float64 {
	dst = slices.Grow(dst, steps)
	hist := append([]float64(nil), m.tail...)
	for s := 0; s < steps; s++ {
		pred := 0.0
		for i, c := range m.coeffs {
			pred += c * hist[i]
		}
		dst = append(dst, pred+m.mean)
		// Shift the prediction into the history.
		copy(hist[1:], hist[:len(hist)-1])
		hist[0] = pred
	}
	return dst
}

// ------------------------------------------------------------------ MA ----

// MA is the moving-average model of order Q, fitted with the innovations
// algorithm.
type MA struct{ Q int }

// Name implements Fitter.
func (m MA) Name() string { return fmt.Sprintf("MA(%d)", m.Q) }

// Fit implements Fitter.
func (m MA) Fit(series []float64) (Model, error) {
	if len(series) == 0 {
		return nil, ErrEmptySeries
	}
	if m.Q < 1 {
		return nil, errors.New("timeseries: MA order must be >= 1")
	}
	q := m.Q
	if q > len(series)-1 {
		q = len(series) - 1
	}
	mean := stats.Mean(series)
	if q < 1 {
		return constModel{name: m.Name(), value: mean}, nil
	}
	acov := stats.Autocovariance(series, q)
	theta, ok := innovations(acov, q)
	if !ok {
		return constModel{name: m.Name(), value: mean}, nil
	}
	// Recover the innovation sequence from the data so forecasting can use
	// the most recent q residuals. The recursion reads only the q before t,
	// so recent holds those, most recent first, and ends as the model's.
	recent := make([]float64, q)
	for t := range series {
		e := series[t] - mean
		for j := 1; j <= q && j <= t; j++ {
			e -= theta[j-1] * recent[j-1]
		}
		// Clamp runaway residuals from a non-invertible fit.
		if e > 1e6 {
			e = 1e6
		}
		if e < -1e6 {
			e = -1e6
		}
		pushRecent(recent, e)
	}
	return &maModel{name: m.Name(), mean: mean, theta: theta, recent: recent}, nil
}

// innovations runs the innovations algorithm on the autocovariance sequence
// and returns the MA(q) coefficients θ_1..θ_q (from θ_{q,1..q}).
func innovations(acov []float64, q int) ([]float64, bool) {
	if acov[0] <= 0 {
		return nil, false
	}
	v := make([]float64, q+1)
	theta := make([][]float64, q+1) // theta[n][j] = θ_{n,j}, j = 1..n
	v[0] = acov[0]
	for n := 1; n <= q; n++ {
		theta[n] = make([]float64, n+1)
		for k := 0; k < n; k++ {
			acc := acov[n-k]
			for j := 0; j < k; j++ {
				acc -= theta[k][k-j] * theta[n][n-j] * v[j]
			}
			if v[k] == 0 {
				return nil, false
			}
			theta[n][n-k] = acc / v[k]
		}
		vn := acov[0]
		for j := 1; j <= n; j++ {
			vn -= theta[n][j] * theta[n][j] * v[n-j]
		}
		if vn <= 0 {
			return nil, false
		}
		v[n] = vn
	}
	out := make([]float64, q)
	copy(out, theta[q][1:])
	return out, true
}

// pushRecent shifts v into a most-recent-first window, dropping the oldest.
func pushRecent(window []float64, v float64) {
	copy(window[1:], window)
	window[0] = v
}

type maModel struct {
	name   string
	mean   float64
	theta  []float64 // theta[i] multiplies e[t-1-i]
	recent []float64 // recent residuals, most recent first
}

func (m *maModel) Name() string { return m.name }

func (m *maModel) Forecast(dst []float64, steps int) []float64 {
	dst = slices.Grow(dst, steps)
	for s := 0; s < steps; s++ {
		pred := 0.0
		for i, th := range m.theta {
			// Future innovations have zero expectation; only residuals
			// observed before the forecast origin contribute.
			idx := s - 1 - i // position relative to origin; negative = observed
			if idx < 0 {
				lag := -idx - 1 // 0 = most recent observed residual
				if lag < len(m.recent) {
					pred += th * m.recent[lag]
				}
			}
		}
		dst = append(dst, pred+m.mean)
	}
	return dst
}

// ---------------------------------------------------------------- ARMA ----

// ARMA is the mixed model of orders (P, Q), fitted by the two-stage
// Hannan–Rissanen procedure: a long AR fit produces residual estimates, then
// least squares regresses the series on its own lags and the residual lags.
type ARMA struct{ P, Q int }

// Name implements Fitter.
func (a ARMA) Name() string { return fmt.Sprintf("ARMA(%d,%d)", a.P, a.Q) }

// Fit implements Fitter.
func (a ARMA) Fit(series []float64) (Model, error) {
	if len(series) == 0 {
		return nil, ErrEmptySeries
	}
	if a.P < 1 || a.Q < 1 {
		return nil, errors.New("timeseries: ARMA orders must be >= 1")
	}
	mean := stats.Mean(series)
	n := len(series)
	// Stage 1: long AR for residuals.
	longP := a.P + a.Q + 4
	if longP > n/3 {
		longP = n / 3
	}
	if longP < 1 {
		return constModel{name: a.Name(), value: mean}, nil
	}
	acov := stats.Autocovariance(series, longP)
	arCoef, _, err := stats.LevinsonDurbin(acov, longP)
	if err != nil {
		return constModel{name: a.Name(), value: mean}, nil
	}
	// resid is the long AR's one-step residual at t >= longP.
	resid := func(t int) float64 {
		pred := 0.0
		for i, c := range arCoef {
			pred += c * (series[t-1-i] - mean)
		}
		return (series[t] - mean) - pred
	}
	// Stage 2: regress x_t - mean on p lags of x and q lags of residuals,
	// from the first t that has both.
	start := max(longP+a.Q, a.P)
	if start >= n {
		return constModel{name: a.Name(), value: mean}, nil
	}
	// Each design row is a window onto series and the residuals, so the rows
	// are produced as the normal equations consume them (in order, once each)
	// rather than stored. recent holds the Q residuals before row t's, most
	// recent first; each row pushes its own, which leaves the model's.
	recent := make([]float64, a.Q)
	for t := longP; t < start; t++ {
		pushRecent(recent, resid(t))
	}
	coef, err := linalg.LeastSquaresRows(n-start, a.P+a.Q, 1e-8, func(r int, row []float64) float64 {
		t := start + r
		for i := 0; i < a.P; i++ {
			row[i] = series[t-1-i] - mean
		}
		copy(row[a.P:], recent)
		pushRecent(recent, resid(t))
		return series[t] - mean
	})
	if err != nil {
		return constModel{name: a.Name(), value: mean}, nil
	}
	phi := coef[:a.P]
	theta := coef[a.P:]
	tail := centeredTail(series, mean, a.P)
	return &armaModel{name: a.Name(), mean: mean, phi: phi, theta: theta, tail: tail, recent: recent}, nil
}

type armaModel struct {
	name   string
	mean   float64
	phi    []float64
	theta  []float64
	tail   []float64 // centered recent observations, most recent first
	recent []float64 // recent residuals, most recent first
}

func (m *armaModel) Name() string { return m.name }

func (m *armaModel) Forecast(dst []float64, steps int) []float64 {
	dst = slices.Grow(dst, steps)
	hist := append([]float64(nil), m.tail...)
	for s := 0; s < steps; s++ {
		pred := 0.0
		for i, c := range m.phi {
			pred += c * hist[i]
		}
		for i, th := range m.theta {
			idx := s - 1 - i
			if idx < 0 {
				lag := -idx - 1
				if lag < len(m.recent) {
					pred += th * m.recent[lag]
				}
			}
		}
		dst = append(dst, pred+m.mean)
		copy(hist[1:], hist[:len(hist)-1])
		hist[0] = pred
	}
	return dst
}

// ReferenceSuite returns the Table 1 model suite with the parameters used in
// the paper's Figure 7 comparison (p = 8, q = 8).
func ReferenceSuite() []Fitter {
	return []Fitter{AR{P: 8}, BM{P: 8}, MA{Q: 8}, ARMA{P: 8, Q: 8}, Last{}}
}
