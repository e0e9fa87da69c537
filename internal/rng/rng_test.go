package rng

import (
	"math"
	"testing"
)

func TestDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams with the same seed diverged at step %d", i)
		}
	}
}

func TestDifferentSeedsDiverge(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("streams with different seeds matched %d/100 times", same)
	}
}

func TestSplitStability(t *testing.T) {
	a := New(7).Split("workload")
	b := New(7).Split("workload")
	for i := 0; i < 50; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("Split is not stable")
		}
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := New(7)
	child := parent.Split("a")
	before := parent.state
	for i := 0; i < 10; i++ {
		child.Uint64()
	}
	if parent.state != before {
		t.Fatal("consuming a child stream advanced the parent")
	}
	other := parent.Split("b")
	if child.Uint64() == other.Uint64() {
		t.Fatal("children with different labels produced identical values")
	}
}

func TestSplitNDistinct(t *testing.T) {
	parent := New(11)
	seen := map[uint64]bool{}
	for i := 0; i < 100; i++ {
		v := parent.SplitN("machine", i).Uint64()
		if seen[v] {
			t.Fatalf("SplitN collision at index %d", i)
		}
		seen[v] = true
	}
}

func TestFloat64Range(t *testing.T) {
	s := New(3)
	for i := 0; i < 10000; i++ {
		f := s.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	s := New(5)
	sum := 0.0
	const n = 100000
	for i := 0; i < n; i++ {
		sum += s.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("Float64 mean %v, want ~0.5", mean)
	}
}

func TestIntnRange(t *testing.T) {
	s := New(9)
	counts := make([]int, 7)
	for i := 0; i < 7000; i++ {
		counts[s.Intn(7)]++
	}
	for i, c := range counts {
		if c == 0 {
			t.Fatalf("Intn never produced %d", i)
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestUniform(t *testing.T) {
	s := New(13)
	for i := 0; i < 1000; i++ {
		v := s.Uniform(5, 8)
		if v < 5 || v >= 8 {
			t.Fatalf("Uniform out of range: %v", v)
		}
	}
}

func TestUniformInt(t *testing.T) {
	s := New(13)
	if got := s.UniformInt(4, 4); got != 4 {
		t.Fatalf("UniformInt with empty range = %d, want 4", got)
	}
	for i := 0; i < 1000; i++ {
		v := s.UniformInt(-3, 9)
		if v < -3 || v >= 9 {
			t.Fatalf("UniformInt out of range: %v", v)
		}
	}
}

func TestExpMean(t *testing.T) {
	s := New(17)
	sum := 0.0
	const n = 200000
	for i := 0; i < n; i++ {
		sum += s.Exp(10)
	}
	mean := sum / n
	if math.Abs(mean-10) > 0.2 {
		t.Fatalf("Exp mean %v, want ~10", mean)
	}
}

func TestNormalMoments(t *testing.T) {
	s := New(19)
	sum, sumsq := 0.0, 0.0
	const n = 200000
	for i := 0; i < n; i++ {
		v := s.Normal(4, 2)
		sum += v
		sumsq += v * v
	}
	mean := sum / n
	variance := sumsq/n - mean*mean
	if math.Abs(mean-4) > 0.05 {
		t.Fatalf("Normal mean %v, want ~4", mean)
	}
	if math.Abs(variance-4) > 0.15 {
		t.Fatalf("Normal variance %v, want ~4", variance)
	}
}

func TestParetoLowerBound(t *testing.T) {
	s := New(23)
	for i := 0; i < 10000; i++ {
		if v := s.Pareto(2, 1.5); v < 2 {
			t.Fatalf("Pareto below xm: %v", v)
		}
	}
}

func TestLogNormalPositive(t *testing.T) {
	s := New(29)
	for i := 0; i < 1000; i++ {
		if v := s.LogNormal(0, 1); v <= 0 {
			t.Fatalf("LogNormal non-positive: %v", v)
		}
	}
}

func TestBoolProbability(t *testing.T) {
	s := New(31)
	hits := 0
	const n = 100000
	for i := 0; i < n; i++ {
		if s.Bool(0.3) {
			hits++
		}
	}
	p := float64(hits) / n
	if math.Abs(p-0.3) > 0.01 {
		t.Fatalf("Bool(0.3) hit rate %v", p)
	}
}

func TestCategoricalWeights(t *testing.T) {
	s := New(37)
	counts := [3]int{}
	const n = 90000
	for i := 0; i < n; i++ {
		counts[s.Categorical([]float64{1, 2, 3})]++
	}
	for i, want := range []float64{1.0 / 6, 2.0 / 6, 3.0 / 6} {
		got := float64(counts[i]) / n
		if math.Abs(got-want) > 0.01 {
			t.Fatalf("Categorical index %d frequency %v, want ~%v", i, got, want)
		}
	}
}

func TestCategoricalPanics(t *testing.T) {
	cases := [][]float64{nil, {}, {0, 0}, {-1, 2}}
	for _, w := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("Categorical(%v) did not panic", w)
				}
			}()
			New(1).Categorical(w)
		}()
	}
}
