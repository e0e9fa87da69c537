package timeseries

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"testing"
	"testing/quick"

	"fgcs/internal/linalg"
	"fgcs/internal/rng"
	"fgcs/internal/stats"
)

func constant(v float64, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = v
	}
	return out
}

func TestNames(t *testing.T) {
	cases := map[Fitter]string{
		AR{P: 8}:         "AR(8)",
		BM{P: 8}:         "BM(8)",
		MA{Q: 8}:         "MA(8)",
		ARMA{P: 8, Q: 8}: "ARMA(8,8)",
		Last{}:           "LAST",
	}
	for f, want := range cases {
		if f.Name() != want {
			t.Errorf("Name = %q, want %q", f.Name(), want)
		}
	}
}

func TestEmptySeriesRejected(t *testing.T) {
	for _, f := range ReferenceSuite() {
		if _, err := f.Fit(nil); err == nil {
			t.Errorf("%s accepted an empty series", f.Name())
		}
	}
}

func TestInvalidOrdersRejected(t *testing.T) {
	series := []float64{1, 2, 3}
	for _, f := range []Fitter{AR{P: 0}, BM{P: 0}, MA{Q: 0}, ARMA{P: 0, Q: 1}, ARMA{P: 1, Q: 0}} {
		if _, err := f.Fit(series); err == nil {
			t.Errorf("%T with invalid order accepted", f)
		}
	}
}

func TestLastForecast(t *testing.T) {
	m, err := Last{}.Fit([]float64{3, 9, 42})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range m.Forecast(nil, 5) {
		if v != 42 {
			t.Fatalf("LAST forecast = %v, want 42", v)
		}
	}
}

func TestBMForecast(t *testing.T) {
	m, err := BM{P: 3}.Fit([]float64{100, 100, 1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range m.Forecast(nil, 4) {
		if v != 2 {
			t.Fatalf("BM(3) forecast = %v, want mean of last 3 = 2", v)
		}
	}
	// Window longer than series: use everything.
	m, _ = BM{P: 50}.Fit([]float64{2, 4})
	if got := m.Forecast(nil, 1)[0]; got != 3 {
		t.Fatalf("BM long window = %v, want 3", got)
	}
}

// All models must forecast a constant series as (approximately) that
// constant.
func TestConstantSeriesProperty(t *testing.T) {
	series := constant(37.5, 200)
	for _, f := range ReferenceSuite() {
		m, err := f.Fit(series)
		if err != nil {
			t.Fatalf("%s: %v", f.Name(), err)
		}
		for i, v := range m.Forecast(nil, 20) {
			if math.Abs(v-37.5) > 1e-6 {
				t.Fatalf("%s forecast[%d] = %v on a constant series", f.Name(), i, v)
			}
		}
	}
}

func TestARRecoversAR1Process(t *testing.T) {
	r := rng.New(11)
	const phi = 0.85
	series := make([]float64, 5000)
	for i := 1; i < len(series); i++ {
		series[i] = phi*series[i-1] + r.Normal(0, 1)
	}
	m, err := AR{P: 1}.Fit(series)
	if err != nil {
		t.Fatal(err)
	}
	am, ok := m.(*arModel)
	if !ok {
		t.Fatalf("AR fit returned %T", m)
	}
	if math.Abs(am.coeffs[0]-phi) > 0.05 {
		t.Fatalf("AR(1) coefficient = %v, want ~%v", am.coeffs[0], phi)
	}
	// Multi-step forecasts must decay geometrically toward the mean.
	f := m.Forecast(nil, 50)
	last := series[len(series)-1] - am.mean
	for s := 0; s < 50; s++ {
		want := am.mean + last*math.Pow(am.coeffs[0], float64(s+1))
		if math.Abs(f[s]-want) > 1e-9 {
			t.Fatalf("step %d forecast = %v, want %v", s, f[s], want)
		}
	}
}

func TestARForecastConvergesToMean(t *testing.T) {
	r := rng.New(13)
	series := make([]float64, 2000)
	for i := 1; i < len(series); i++ {
		series[i] = 0.6*series[i-1] + r.Normal(0, 1)
	}
	m, _ := AR{P: 4}.Fit(series)
	f := m.Forecast(nil, 500)
	mean := stats.Mean(series)
	if math.Abs(f[499]-mean) > 0.1 {
		t.Fatalf("long-horizon AR forecast %v did not converge to mean %v", f[499], mean)
	}
}

func TestMAOneStepBeatsMeanOnMA1Process(t *testing.T) {
	// x[t] = e[t] + 0.8 e[t-1]. The MA(1) one-step forecast should have
	// lower error than predicting the mean.
	r := rng.New(17)
	const theta = 0.8
	n := 4000
	e := make([]float64, n+1)
	for i := range e {
		e[i] = r.Normal(0, 1)
	}
	series := make([]float64, n)
	for i := 0; i < n; i++ {
		series[i] = e[i+1] + theta*e[i]
	}
	var errMA, errMean float64
	count := 0
	for cut := n / 2; cut < n-1; cut += 10 {
		m, err := MA{Q: 1}.Fit(series[:cut])
		if err != nil {
			t.Fatal(err)
		}
		pred := m.Forecast(nil, 1)[0]
		actual := series[cut]
		errMA += (pred - actual) * (pred - actual)
		mean := stats.Mean(series[:cut])
		errMean += (mean - actual) * (mean - actual)
		count++
	}
	if errMA >= errMean {
		t.Fatalf("MA(1) one-step MSE %v not better than mean MSE %v", errMA/float64(count), errMean/float64(count))
	}
}

func TestMAForecastBeyondOrderIsMean(t *testing.T) {
	r := rng.New(19)
	series := make([]float64, 500)
	for i := range series {
		series[i] = 50 + r.Normal(0, 5)
	}
	m, err := MA{Q: 3}.Fit(series)
	if err != nil {
		t.Fatal(err)
	}
	f := m.Forecast(nil, 10)
	mean := stats.Mean(series)
	for s := 3; s < 10; s++ {
		if math.Abs(f[s]-mean) > 1e-9 {
			t.Fatalf("MA forecast beyond order at step %d = %v, want mean %v", s, f[s], mean)
		}
	}
}

func TestARMARecoversARProcess(t *testing.T) {
	// A pure AR(1) process should be fit acceptably by ARMA(1,1).
	r := rng.New(23)
	const phi = 0.7
	series := make([]float64, 6000)
	for i := 1; i < len(series); i++ {
		series[i] = phi*series[i-1] + r.Normal(0, 1)
	}
	m, err := ARMA{P: 1, Q: 1}.Fit(series)
	if err != nil {
		t.Fatal(err)
	}
	am, ok := m.(*armaModel)
	if !ok {
		t.Fatalf("ARMA fit returned %T (degenerate fallback?)", m)
	}
	if math.Abs(am.phi[0]-phi) > 0.1 {
		t.Fatalf("ARMA phi = %v, want ~%v", am.phi[0], phi)
	}
}

func TestARMAOneStepAccuracy(t *testing.T) {
	// ARMA(1,1) process: x[t] = 0.6 x[t-1] + e[t] + 0.5 e[t-1].
	r := rng.New(29)
	n := 6000
	series := make([]float64, n)
	prevE := 0.0
	for i := 1; i < n; i++ {
		e := r.Normal(0, 1)
		series[i] = 0.6*series[i-1] + e + 0.5*prevE
		prevE = e
	}
	var errARMA, errMean float64
	for cut := n - 500; cut < n-1; cut += 25 {
		m, err := ARMA{P: 1, Q: 1}.Fit(series[:cut])
		if err != nil {
			t.Fatal(err)
		}
		pred := m.Forecast(nil, 1)[0]
		actual := series[cut]
		errARMA += (pred - actual) * (pred - actual)
		mean := stats.Mean(series[:cut])
		errMean += (mean - actual) * (mean - actual)
	}
	if errARMA >= errMean {
		t.Fatalf("ARMA one-step MSE %v not better than mean MSE %v", errARMA, errMean)
	}
}

func TestShortSeriesDegradeGracefully(t *testing.T) {
	short := []float64{5}
	for _, f := range ReferenceSuite() {
		m, err := f.Fit(short)
		if err != nil {
			t.Fatalf("%s failed on a single-sample series: %v", f.Name(), err)
		}
		got := m.Forecast(nil, 3)
		for _, v := range got {
			if v != 5 {
				t.Fatalf("%s forecast on singleton = %v, want 5", f.Name(), v)
			}
		}
	}
}

func TestForecastLengthProperty(t *testing.T) {
	err := quick.Check(func(seed uint64, stepsRaw uint8) bool {
		r := rng.New(seed)
		steps := int(stepsRaw % 50)
		series := make([]float64, 30+r.Intn(100))
		for i := range series {
			series[i] = r.Uniform(0, 100)
		}
		for _, f := range ReferenceSuite() {
			m, err := f.Fit(series)
			if err != nil {
				return false
			}
			fc := m.Forecast(nil, steps)
			if len(fc) != steps {
				return false
			}
			for _, v := range fc {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					return false
				}
			}
		}
		return true
	}, &quick.Config{MaxCount: 50})
	if err != nil {
		t.Fatal(err)
	}
}

func TestReferenceSuiteComposition(t *testing.T) {
	suite := ReferenceSuite()
	if len(suite) != 5 {
		t.Fatalf("suite size = %d, want 5 (Table 1)", len(suite))
	}
	want := []string{"AR(8)", "BM(8)", "MA(8)", "ARMA(8,8)", "LAST"}
	for i, f := range suite {
		if f.Name() != want[i] {
			t.Fatalf("suite[%d] = %s, want %s", i, f.Name(), want[i])
		}
	}
}

func TestInnovationsKnownMA1(t *testing.T) {
	// For MA(1) with theta and unit noise: γ(0) = 1+θ², γ(1) = θ.
	const theta = 0.6
	acov := []float64{1 + theta*theta, theta}
	got, ok := innovations(acov, 1)
	if !ok {
		t.Fatal("innovations failed")
	}
	// One innovations step gives θ_{1,1} = γ(1)/γ(0); iterating to
	// convergence would reach θ. Verify it is a contraction toward θ.
	if got[0] <= 0 || got[0] >= 1 {
		t.Fatalf("theta estimate = %v", got[0])
	}
	if math.Abs(got[0]-theta/(1+theta*theta)) > 1e-12 {
		t.Fatalf("first innovations estimate = %v", got[0])
	}
}

// TestForecastAppendsWithoutReadingDst: Forecast into a dirty, reused dst —
// with spare capacity, with none, and behind a prefix it must keep — gives
// bit for bit the values Forecast(nil, ...) gives, for every reference model
// on noisy, constant and too-short series (the last two are the constant
// fallbacks).
func TestForecastAppendsWithoutReadingDst(t *testing.T) {
	r := rng.New(23)
	noisy := make([]float64, 400)
	for i := range noisy {
		noisy[i] = 40 + 25*math.Sin(float64(i)/9) + r.Normal(0, 5)
	}
	dirty := make([]float64, 0, 256)
	for _, series := range [][]float64{noisy, constant(12, 90), noisy[:2]} {
		for _, f := range ReferenceSuite() {
			m, err := f.Fit(series)
			if err != nil {
				t.Fatal(err)
			}
			for _, steps := range []int{0, 1, 100, 600} {
				want := m.Forecast(nil, steps)
				if len(want) != steps {
					t.Fatalf("%s: Forecast(nil, %d) returned %d values", f.Name(), steps, len(want))
				}
				dirty = dirty[:cap(dirty)]
				for i := range dirty {
					dirty[i] = math.NaN()
				}
				dirty = m.Forecast(dirty[:0], steps) // reuses or outgrows the last case's storage
				prefixed := m.Forecast([]float64{-1, -2}, steps)
				if len(dirty) != steps || len(prefixed) != steps+2 || prefixed[0] != -1 || prefixed[1] != -2 {
					t.Fatalf("%s, %d steps: lengths %d and %d, prefix %v", f.Name(), steps, len(dirty), len(prefixed), prefixed[:2])
				}
				for i := range want {
					if math.Float64bits(dirty[i]) != math.Float64bits(want[i]) || math.Float64bits(prefixed[i+2]) != math.Float64bits(want[i]) {
						t.Fatalf("%s, %d steps: value %d is %v into a dirty dst, %v behind a prefix, %v into nil",
							f.Name(), steps, i, dirty[i], prefixed[i+2], want[i])
					}
				}
			}
		}
	}
}

// referenceMAFit is MA.Fit as first written: the whole residual sequence in an
// n-long array, the model's recent residuals read off its end. It also counts
// the residuals the ±1e6 clamp cut, so a test can show it reached the clamp.
func referenceMAFit(m MA, series []float64) (Model, int, error) {
	if len(series) == 0 {
		return nil, 0, ErrEmptySeries
	}
	if m.Q < 1 {
		return nil, 0, errors.New("timeseries: MA order must be >= 1")
	}
	q := m.Q
	if q > len(series)-1 {
		q = len(series) - 1
	}
	mean := stats.Mean(series)
	if q < 1 {
		return constModel{name: m.Name(), value: mean}, 0, nil
	}
	acov := stats.Autocovariance(series, q)
	theta, ok := innovations(acov, q)
	if !ok {
		return constModel{name: m.Name(), value: mean}, 0, nil
	}
	clamped := 0
	resid := make([]float64, len(series))
	for t := range series {
		e := series[t] - mean
		for j := 1; j <= q && j <= t; j++ {
			e -= theta[j-1] * resid[t-j]
		}
		if e > 1e6 {
			e = 1e6
			clamped++
		}
		if e < -1e6 {
			e = -1e6
			clamped++
		}
		resid[t] = e
	}
	recent := make([]float64, q)
	for i := 0; i < q; i++ {
		recent[i] = resid[len(resid)-1-i]
	}
	return &maModel{name: m.Name(), mean: mean, theta: theta, recent: recent}, clamped, nil
}

// referenceARMAFit is ARMA.Fit as first written, with its stage-2 start moved
// up to P (the first row with P lags; before, an order P above longP+Q read
// before the series): every stage-1 residual in an n-long array that the
// stage-2 rows index into.
func referenceARMAFit(a ARMA, series []float64) (Model, error) {
	if len(series) == 0 {
		return nil, ErrEmptySeries
	}
	if a.P < 1 || a.Q < 1 {
		return nil, errors.New("timeseries: ARMA orders must be >= 1")
	}
	mean := stats.Mean(series)
	n := len(series)
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
	resid := make([]float64, n)
	for t := longP; t < n; t++ {
		pred := 0.0
		for i, c := range arCoef {
			pred += c * (series[t-1-i] - mean)
		}
		resid[t] = (series[t] - mean) - pred
	}
	start := max(longP+a.Q, a.P)
	if start >= n {
		return constModel{name: a.Name(), value: mean}, nil
	}
	coef, err := linalg.LeastSquaresRows(n-start, a.P+a.Q, 1e-8, func(r int, row []float64) float64 {
		t := start + r
		for i := 0; i < a.P; i++ {
			row[i] = series[t-1-i] - mean
		}
		for j := 0; j < a.Q; j++ {
			row[a.P+j] = resid[t-1-j]
		}
		return series[t] - mean
	})
	if err != nil {
		return constModel{name: a.Name(), value: mean}, nil
	}
	recent := make([]float64, a.Q)
	for i := 0; i < a.Q; i++ {
		recent[i] = resid[n-1-i]
	}
	return &armaModel{name: a.Name(), mean: mean, phi: coef[:a.P], theta: coef[a.P:],
		tail: centeredTail(series, mean, a.P), recent: recent}, nil
}

// modelBits flattens a fitted MA, ARMA or constant model into the bits of
// every parameter and state value it forecasts from, tagged by its kind.
func modelBits(m Model) []uint64 {
	var vals []float64
	var kind uint64
	switch m := m.(type) {
	case constModel:
		kind, vals = 1, []float64{m.value}
	case *maModel:
		kind, vals = 2, append(append([]float64{m.mean}, m.theta...), m.recent...)
	case *armaModel:
		kind = 3
		vals = append(append(append(append([]float64{m.mean}, m.phi...), m.theta...), m.tail...), m.recent...)
	}
	out := []uint64{kind}
	for _, v := range vals {
		out = append(out, math.Float64bits(v))
	}
	return out
}

// checkLinearFitsMatchReference fits MA{Q: q} and ARMA{P: p, Q: q} to series
// both ways and reports the first difference: in an error, in a parameter or
// state value, or in a bit of the steps-long forecast. It returns how many
// residuals the reference MA fit clamped.
func checkLinearFitsMatchReference(series []float64, p, q, steps int) (int, error) {
	maWant, clamped, errWant := referenceMAFit(MA{Q: q}, series)
	maGot, errGot := MA{Q: q}.Fit(series)
	if err := sameFit("MA", maWant, errWant, maGot, errGot, steps); err != nil {
		return clamped, err
	}
	armaWant, errWant := referenceARMAFit(ARMA{P: p, Q: q}, series)
	armaGot, errGot := ARMA{P: p, Q: q}.Fit(series)
	return clamped, sameFit("ARMA", armaWant, errWant, armaGot, errGot, steps)
}

func sameFit(name string, want Model, errWant error, got Model, errGot error, steps int) error {
	if (errWant == nil) != (errGot == nil) {
		return fmt.Errorf("%s: error %v, reference %v", name, errGot, errWant)
	}
	if errWant != nil {
		return nil
	}
	if w, g := modelBits(want), modelBits(got); !slices.Equal(w, g) {
		return fmt.Errorf("%s: fitted %v, reference %v", name, g, w)
	}
	fw, fg := want.Forecast(nil, steps), got.Forecast(nil, steps)
	for i := range fw {
		if math.Float64bits(fg[i]) != math.Float64bits(fw[i]) {
			return fmt.Errorf("%s: forecast step %d of %d is %v, reference %v", name, i+1, steps, fg[i], fw[i])
		}
	}
	return nil
}

// TestLinearFitsMatchReference: MA and ARMA keep only the q residuals their
// forecasts start from, and fit bit for bit what the n-array references fit —
// on noisy series of every length from 1 to several times ARMA(8,8)'s
// stage-1 order (P+Q+4 = 20), on constant series, and on a periodic series
// whose MA fits are non-invertible and hit the ±1e6 residual clamp. The
// orders include P > longP+Q, where ARMA once indexed before the series.
func TestLinearFitsMatchReference(t *testing.T) {
	r := rng.New(31)
	var cases [][]float64
	for n := 1; n <= 90; n++ {
		s := make([]float64, n)
		for i := range s {
			s[i] = 40 + 25*math.Sin(float64(i)/5) + r.Normal(0, 8)
		}
		cases = append(cases, s)
	}
	for _, n := range []int{1, 2, 7, 30, 200} {
		cases = append(cases, constant(37, n))
	}
	spikes := make([]float64, 200)
	for i := 0; i < len(spikes); i += 3 {
		spikes[i] = 100
	}
	cases = append(cases, spikes)
	clamped := 0
	for _, series := range cases {
		for _, order := range [][2]int{{1, 1}, {2, 3}, {3, 2}, {8, 8}, {7, 4}, {12, 1}} {
			c, err := checkLinearFitsMatchReference(series, order[0], order[1], 2000)
			if err != nil {
				t.Fatalf("series of %d, P=%d Q=%d: %v", len(series), order[0], order[1], err)
			}
			clamped += c
		}
	}
	if clamped == 0 {
		t.Fatal("no MA fit reached the ±1e6 residual clamp: the non-invertible case is not covered")
	}
}

// FuzzLinearFitsMatchReference is TestLinearFitsMatchReference over arbitrary
// series (one byte a sample, a CPU-like 0–255 range), orders 1–12 and 1–2000
// forecast steps.
func FuzzLinearFitsMatchReference(f *testing.F) {
	f.Add([]byte{5}, uint8(8), uint8(8), uint16(2000))
	f.Add([]byte{9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9}, uint8(2), uint8(3), uint16(40))
	f.Add([]byte("a slowly varying load trace with a burst of activity in the middle"), uint8(8), uint8(8), uint16(700))
	spikes := make([]byte, 150)
	for i := 0; i < len(spikes); i += 3 {
		spikes[i] = 255
	}
	f.Add(spikes, uint8(8), uint8(8), uint16(2000))
	f.Fuzz(func(t *testing.T, data []byte, p, q uint8, steps uint16) {
		series := make([]float64, len(data))
		for i, b := range data {
			series[i] = float64(b)
		}
		if _, err := checkLinearFitsMatchReference(series, 1+int(p)%12, 1+int(q)%12, 1+int(steps)%2000); err != nil {
			t.Fatal(err)
		}
	})
}
