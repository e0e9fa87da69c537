package timeseries

import (
	"math"
	"testing"
	"testing/quick"

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
