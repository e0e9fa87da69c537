package stats

import (
	"math"
	"testing"
	"testing/quick"

	"fgcs/internal/rng"
)

func almost(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestMean(t *testing.T) {
	if got := Mean([]float64{1, 2, 3, 4}); got != 2.5 {
		t.Fatalf("Mean = %v", got)
	}
	if got := Mean(nil); got != 0 {
		t.Fatalf("Mean(nil) = %v", got)
	}
}

func TestVarianceAndStdDev(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Variance(xs); !almost(got, 4, 1e-12) {
		t.Fatalf("Variance = %v, want 4", got)
	}
	if got := StdDev(xs); !almost(got, 2, 1e-12) {
		t.Fatalf("StdDev = %v, want 2", got)
	}
	if Variance([]float64{5}) != 0 {
		t.Fatal("Variance of singleton should be 0")
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	med, err := Quantile(xs, 0.5)
	if err != nil || !almost(med, 2.5, 1e-12) {
		t.Fatalf("median = %v err=%v", med, err)
	}
	q0, _ := Quantile(xs, 0)
	q1, _ := Quantile(xs, 1)
	if q0 != 1 || q1 != 4 {
		t.Fatalf("extremes = %v %v", q0, q1)
	}
	if _, err := Quantile(xs, 1.5); err == nil {
		t.Fatal("out-of-range q accepted")
	}
	if _, err := Quantile(nil, 0.5); err != ErrEmpty {
		t.Fatal("empty input accepted")
	}
}

func TestAutocorrelationConstantSeries(t *testing.T) {
	for lag, c := range Autocovariance([]float64{5, 5, 5, 5, 5}, 3) {
		if c != 0 {
			t.Fatalf("constant series lag %d autocovariance = %v", lag, c)
		}
	}
}

func TestAutocorrelationAlternating(t *testing.T) {
	xs := make([]float64, 200)
	for i := range xs {
		if i%2 == 0 {
			xs[i] = 1
		} else {
			xs[i] = -1
		}
	}
	acov := Autocovariance(xs, 2)
	if ac := acov[1] / acov[0]; !almost(ac, -1, 0.02) {
		t.Fatalf("alternating lag-1 = %v, want ~-1", ac)
	}
	if ac := acov[2] / acov[0]; !almost(ac, 1, 0.02) {
		t.Fatalf("alternating lag-2 = %v, want ~1", ac)
	}
}

func TestAutocovarianceClampsLag(t *testing.T) {
	acov := Autocovariance([]float64{1, 2, 3}, 10)
	if len(acov) != 3 {
		t.Fatalf("len = %d, want 3", len(acov))
	}
}

func TestLevinsonDurbinRecoversAR1(t *testing.T) {
	// Simulate x[t] = 0.7 x[t-1] + e[t].
	r := rng.New(99)
	const phi = 0.7
	xs := make([]float64, 20000)
	for i := 1; i < len(xs); i++ {
		xs[i] = phi*xs[i-1] + r.Normal(0, 1)
	}
	acov := Autocovariance(xs, 1)
	coeffs, noise, err := LevinsonDurbin(acov, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !almost(coeffs[0], phi, 0.05) {
		t.Fatalf("AR(1) coefficient = %v, want ~%v", coeffs[0], phi)
	}
	if !almost(noise, 1, 0.1) {
		t.Fatalf("innovation variance = %v, want ~1", noise)
	}
}

func TestLevinsonDurbinRecoversAR2(t *testing.T) {
	r := rng.New(7)
	a1, a2 := 0.5, 0.3
	xs := make([]float64, 40000)
	for i := 2; i < len(xs); i++ {
		xs[i] = a1*xs[i-1] + a2*xs[i-2] + r.Normal(0, 1)
	}
	acov := Autocovariance(xs, 2)
	coeffs, _, err := LevinsonDurbin(acov, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !almost(coeffs[0], a1, 0.05) || !almost(coeffs[1], a2, 0.05) {
		t.Fatalf("AR(2) coefficients = %v, want ~[%v %v]", coeffs, a1, a2)
	}
}

func TestLevinsonDurbinErrors(t *testing.T) {
	if _, _, err := LevinsonDurbin([]float64{1, 0.5}, 0); err == nil {
		t.Fatal("order 0 accepted")
	}
	if _, _, err := LevinsonDurbin([]float64{1}, 1); err == nil {
		t.Fatal("short sequence accepted")
	}
	if _, _, err := LevinsonDurbin([]float64{0, 0}, 1); err == nil {
		t.Fatal("zero variance accepted")
	}
}

func TestLinearFit(t *testing.T) {
	x := []float64{0, 1, 2, 3}
	y := []float64{1, 3, 5, 7} // y = 2x + 1
	slope, intercept, err := LinearFit(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if !almost(slope, 2, 1e-12) || !almost(intercept, 1, 1e-12) {
		t.Fatalf("fit = %v, %v", slope, intercept)
	}
	if _, _, err := LinearFit([]float64{1}, []float64{1}); err == nil {
		t.Fatal("single point accepted")
	}
	if _, _, err := LinearFit([]float64{1, 1}, []float64{1, 2}); err == nil {
		t.Fatal("degenerate x accepted")
	}
	if _, _, err := LinearFit([]float64{1, 2}, []float64{1}); err == nil {
		t.Fatal("length mismatch accepted")
	}
}

func TestPowerLawExponent(t *testing.T) {
	// y = 3 x^1.85, the Figure 4 shape.
	var x, y []float64
	for _, v := range []float64{1, 2, 4, 8, 16} {
		x = append(x, v)
		y = append(y, 3*math.Pow(v, 1.85))
	}
	b, err := PowerLawExponent(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if !almost(b, 1.85, 1e-9) {
		t.Fatalf("exponent = %v, want 1.85", b)
	}
}

func TestRelativeError(t *testing.T) {
	if got := RelativeError(0.8, 1.0); !almost(got, 0.2, 1e-12) {
		t.Fatalf("RelativeError = %v", got)
	}
	if got := RelativeError(0, 0); got != 0 {
		t.Fatalf("RelativeError(0,0) = %v", got)
	}
	if got := RelativeError(0.1, 0); !math.IsInf(got, 1) {
		t.Fatalf("RelativeError(x,0) = %v", got)
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{1, 2, 3})
	if s.N != 3 || s.Mean != 2 || s.Min != 1 || s.Max != 3 {
		t.Fatalf("Summary = %+v", s)
	}
	inf := math.Inf(1)
	s = Summarize([]float64{1, inf, 3})
	if s.Mean != 2 {
		t.Fatalf("mean with inf = %v, want 2 (inf excluded)", s.Mean)
	}
	if !math.IsInf(s.Max, 1) {
		t.Fatalf("max should reflect inf, got %v", s.Max)
	}
	if s := Summarize(nil); s.N != 0 {
		t.Fatalf("empty summary N = %d", s.N)
	}
}

func TestQuantileMonotoneProperty(t *testing.T) {
	err := quick.Check(func(seed uint64) bool {
		r := rng.New(seed)
		xs := make([]float64, 50)
		for i := range xs {
			xs[i] = r.Uniform(-100, 100)
		}
		prev := math.Inf(-1)
		for _, q := range []float64{0, 0.25, 0.5, 0.75, 1} {
			v, err := Quantile(xs, q)
			if err != nil || v < prev {
				return false
			}
			prev = v
		}
		return true
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestLevinsonDurbinStationaryProperty(t *testing.T) {
	// For any (reasonable) series, the innovation variance must be
	// non-negative and no larger than the series variance.
	err := quick.Check(func(seed uint64) bool {
		r := rng.New(seed)
		xs := make([]float64, 300)
		for i := range xs {
			xs[i] = r.Uniform(0, 100)
		}
		acov := Autocovariance(xs, 8)
		if acov[0] == 0 {
			return true
		}
		_, noise, err := LevinsonDurbin(acov, 8)
		if err != nil {
			return false
		}
		return noise >= 0 && noise <= acov[0]*(1+1e-9)
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}
