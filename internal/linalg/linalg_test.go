package linalg

import (
	"math"
	"testing"
	"testing/quick"

	"fgcs/internal/rng"
)

func TestMatrixAtSet(t *testing.T) {
	m := NewMatrix(2, 3)
	m.Set(1, 2, 5)
	if m.At(1, 2) != 5 {
		t.Fatal("At/Set round trip failed")
	}
	if m.At(0, 0) != 0 {
		t.Fatal("fresh matrix not zero")
	}
}

func TestMatrixClone(t *testing.T) {
	m := NewMatrix(2, 2)
	m.Set(0, 0, 1)
	c := m.Clone()
	c.Set(0, 0, 9)
	if m.At(0, 0) != 1 {
		t.Fatal("Clone aliases the original")
	}
}

func TestNewMatrixPanicsOnNegative(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	NewMatrix(-1, 2)
}

func TestSolveLUIdentity(t *testing.T) {
	m := NewMatrix(3, 3)
	for i := 0; i < 3; i++ {
		m.Set(i, i, 1)
	}
	b := []float64{7, 8, 9}
	x, err := SolveLU(m, b)
	if err != nil {
		t.Fatal(err)
	}
	for i := range b {
		if x[i] != b[i] {
			t.Fatalf("identity solve wrong: %v", x)
		}
	}
}

func TestSolveLUKnownSystem(t *testing.T) {
	// 2x + y = 5; x + 3y = 10 → x = 1, y = 3.
	m := NewMatrix(2, 2)
	m.Set(0, 0, 2)
	m.Set(0, 1, 1)
	m.Set(1, 0, 1)
	m.Set(1, 1, 3)
	x, err := SolveLU(m, []float64{5, 10})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(x[0]-1) > 1e-12 || math.Abs(x[1]-3) > 1e-12 {
		t.Fatalf("solution = %v", x)
	}
}

func TestSolveLUNeedsPivoting(t *testing.T) {
	// Zero pivot in position (0,0): requires row exchange.
	m := NewMatrix(2, 2)
	m.Set(0, 0, 0)
	m.Set(0, 1, 1)
	m.Set(1, 0, 1)
	m.Set(1, 1, 0)
	x, err := SolveLU(m, []float64{3, 4})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(x[0]-4) > 1e-12 || math.Abs(x[1]-3) > 1e-12 {
		t.Fatalf("solution = %v", x)
	}
}

func TestSolveLUSingular(t *testing.T) {
	m := NewMatrix(2, 2)
	m.Set(0, 0, 1)
	m.Set(0, 1, 2)
	m.Set(1, 0, 2)
	m.Set(1, 1, 4)
	if _, err := SolveLU(m, []float64{1, 2}); err != ErrSingular {
		t.Fatalf("err = %v, want ErrSingular", err)
	}
}

func TestSolveLUDoesNotMutateInputs(t *testing.T) {
	m := NewMatrix(2, 2)
	m.Set(0, 0, 3)
	m.Set(1, 1, 4)
	b := []float64{6, 8}
	if _, err := SolveLU(m, b); err != nil {
		t.Fatal(err)
	}
	if m.At(0, 0) != 3 || b[0] != 6 {
		t.Fatal("SolveLU mutated its inputs")
	}
}

func TestSolveLUShapeErrors(t *testing.T) {
	if _, err := SolveLU(NewMatrix(2, 3), []float64{1, 2}); err == nil {
		t.Fatal("non-square accepted")
	}
	if _, err := SolveLU(NewMatrix(2, 2), []float64{1}); err == nil {
		t.Fatal("rhs mismatch accepted")
	}
}

// leastSquares solves a materialized design through LeastSquaresRows.
func leastSquares(a *Matrix, b []float64, ridge float64) ([]float64, error) {
	return LeastSquaresRows(a.Rows, a.Cols, ridge, func(i int, row []float64) float64 {
		copy(row, a.Data[i*a.Cols:(i+1)*a.Cols])
		return b[i]
	})
}

func TestLeastSquaresExact(t *testing.T) {
	// Overdetermined but consistent: y = 2a + 3b.
	a := NewMatrix(4, 2)
	rows := [][]float64{{1, 0}, {0, 1}, {1, 1}, {2, 1}}
	b := make([]float64, 4)
	for i, r := range rows {
		a.Set(i, 0, r[0])
		a.Set(i, 1, r[1])
		b[i] = 2*r[0] + 3*r[1]
	}
	x, err := leastSquares(a, b, 0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(x[0]-2) > 1e-9 || math.Abs(x[1]-3) > 1e-9 {
		t.Fatalf("LS solution = %v", x)
	}
}

func TestLeastSquaresRidgeHandlesCollinear(t *testing.T) {
	// Perfectly collinear columns: unsolvable without regularization.
	a := NewMatrix(3, 2)
	for i := 0; i < 3; i++ {
		a.Set(i, 0, float64(i+1))
		a.Set(i, 1, float64(i+1))
	}
	b := []float64{2, 4, 6}
	if _, err := leastSquares(a, b, 0); err == nil {
		t.Fatal("collinear design solved without ridge")
	}
	x, err := leastSquares(a, b, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	// With symmetric ridge the mass splits evenly: x0 ≈ x1 ≈ 1.
	if math.Abs(x[0]-1) > 1e-3 || math.Abs(x[1]-1) > 1e-3 {
		t.Fatalf("ridge solution = %v", x)
	}
}

func TestLeastSquaresErrors(t *testing.T) {
	if _, err := leastSquares(NewMatrix(2, 2), []float64{1, 2}, -1); err == nil {
		t.Fatal("negative ridge accepted")
	}
}

// Property: SolveLU(A, A·x) recovers x for random well-conditioned systems.
func TestSolveLURoundTripProperty(t *testing.T) {
	err := quick.Check(func(seed uint64) bool {
		r := rng.New(seed)
		n := 1 + r.Intn(6)
		a := NewMatrix(n, n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				a.Set(i, j, r.Uniform(-1, 1))
			}
			a.Set(i, i, a.At(i, i)+float64(n)) // diagonal dominance
		}
		x := make([]float64, n)
		for i := range x {
			x[i] = r.Uniform(-10, 10)
		}
		b := make([]float64, n)
		for i := range b {
			for j, v := range x {
				b[i] += a.At(i, j) * v
			}
		}
		got, err := SolveLU(a, b)
		if err != nil {
			return false
		}
		for i := range x {
			if math.Abs(got[i]-x[i]) > 1e-6 {
				return false
			}
		}
		return true
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

// matrixLeastSquares is the normal-equation accumulation as it was when the
// design had to be a materialized *Matrix: the reference LeastSquaresRows
// must match bit for bit, because an ARMA coefficient that differs in its
// last place can move a forecast across a threshold.
func matrixLeastSquares(a *Matrix, b []float64, ridge float64) ([]float64, error) {
	n := a.Cols
	ata := NewMatrix(n, n)
	atb := make([]float64, n)
	for i := 0; i < a.Rows; i++ {
		row := a.Data[i*n : (i+1)*n]
		for j := 0; j < n; j++ {
			if row[j] == 0 {
				continue
			}
			atb[j] += row[j] * b[i]
			for k := j; k < n; k++ {
				ata.Data[j*n+k] += row[j] * row[k]
			}
		}
	}
	for j := 0; j < n; j++ {
		for k := j + 1; k < n; k++ {
			ata.Data[k*n+j] = ata.Data[j*n+k]
		}
		ata.Data[j*n+j] += ridge
	}
	return SolveLU(ata, atb)
}

// TestLeastSquaresRowsMatchesMatrixForm: seeded designs — tall and square,
// with exact zeros (which the accumulation skips) and with and without a
// ridge — solved from rows produced on demand and from the matrix.
func TestLeastSquaresRowsMatchesMatrixForm(t *testing.T) {
	r := rng.New(7)
	for trial := 0; trial < 200; trial++ {
		cols := 1 + r.Intn(16)
		rows := cols + r.Intn(40)
		ridge := 0.0
		if trial%2 == 0 {
			ridge = 1e-8
		}
		a := NewMatrix(rows, cols)
		b := make([]float64, rows)
		for i := range a.Data {
			if r.Intn(4) != 0 {
				a.Data[i] = r.Uniform(-50, 50)
			}
		}
		for i := range b {
			b[i] = r.Uniform(-50, 50)
		}
		want, wantErr := matrixLeastSquares(a, b, ridge)
		calls := 0
		got, err := LeastSquaresRows(rows, cols, ridge, func(i int, row []float64) float64 {
			if i != calls || len(row) != cols {
				t.Fatalf("trial %d: fill(%d, len %d), want row %d of length %d", trial, i, len(row), calls, cols)
			}
			calls++
			copy(row, a.Data[i*cols:(i+1)*cols])
			return b[i]
		})
		if (err == nil) != (wantErr == nil) || calls != rows {
			t.Fatalf("trial %d: err %v after %d rows, matrix form %v", trial, err, calls, wantErr)
		}
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("trial %d (%dx%d, ridge %g): x[%d] = %x from rows, %x from the matrix form",
					trial, rows, cols, ridge, i, math.Float64bits(got[i]), math.Float64bits(want[i]))
			}
		}
	}
}
