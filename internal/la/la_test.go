package la

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewMatrixZeroed(t *testing.T) {
	m := NewMatrix(3, 4)
	if m.Rows() != 3 || m.Cols() != 4 {
		t.Fatalf("got %d×%d, want 3×4", m.Rows(), m.Cols())
	}
	for i := 0; i < 3; i++ {
		for j := 0; j < 4; j++ {
			if m.At(i, j) != 0 {
				t.Fatalf("At(%d,%d) = %v, want 0", i, j, m.At(i, j))
			}
		}
	}
}

func TestNewMatrixNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for negative dimension")
		}
	}()
	NewMatrix(-1, 2)
}

func TestAtOutOfRangePanics(t *testing.T) {
	m := NewMatrix(2, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for out-of-range index")
		}
	}()
	m.At(2, 0)
}

func TestTransposeKnown(t *testing.T) {
	m := fromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	want := fromRows([][]float64{{1, 4}, {2, 5}, {3, 6}})
	if !equalWithin(m.T(), want, 0) {
		t.Fatalf("transpose = %v, want %v", m.T(), want)
	}
}

func TestMulKnown(t *testing.T) {
	a := fromRows([][]float64{{1, 2}, {3, 4}})
	b := fromRows([][]float64{{5, 6}, {7, 8}})
	got, err := a.Mul(b)
	if err != nil {
		t.Fatal(err)
	}
	want := fromRows([][]float64{{19, 22}, {43, 50}})
	if !equalWithin(got, want, 1e-12) {
		t.Fatalf("Mul = %v, want %v", got, want)
	}
}

func TestMulShapeError(t *testing.T) {
	a := NewMatrix(2, 3)
	b := NewMatrix(2, 3)
	if _, err := a.Mul(b); err == nil {
		t.Fatal("expected shape error")
	}
}

func TestMulIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := randMatrix(rng, 5, 5)
	got, err := a.Mul(identity(5))
	if err != nil {
		t.Fatal(err)
	}
	if !equalWithin(got, a, 1e-12) {
		t.Fatal("A·I != A")
	}
}

func TestMulVec(t *testing.T) {
	a := fromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	got, err := a.MulVec([]float64{1, 0, -1})
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != -2 || got[1] != -2 {
		t.Fatalf("MulVec = %v, want [-2 -2]", got)
	}
	if _, err := a.MulVec([]float64{1}); err == nil {
		t.Fatal("expected shape error")
	}
}

func TestCloneIndependent(t *testing.T) {
	a := fromRows([][]float64{{1, 2}, {3, 4}})
	c := a.Clone()
	c.Set(0, 0, 99)
	if a.At(0, 0) != 1 {
		t.Fatal("Clone must not share storage")
	}
}

func TestSolveKnown(t *testing.T) {
	a := fromRows([][]float64{{2, 1}, {1, 3}})
	x, err := Solve(a, []float64{3, 5})
	if err != nil {
		t.Fatal(err)
	}
	// 2x+y=3, x+3y=5 -> x=4/5, y=7/5
	if math.Abs(x[0]-0.8) > 1e-12 || math.Abs(x[1]-1.4) > 1e-12 {
		t.Fatalf("Solve = %v, want [0.8 1.4]", x)
	}
}

func TestSolveSingular(t *testing.T) {
	a := fromRows([][]float64{{1, 2}, {2, 4}})
	if _, err := Solve(a, []float64{1, 2}); err == nil {
		t.Fatal("expected singular error")
	}
}

func TestSolveShapeErrors(t *testing.T) {
	if _, err := Solve(NewMatrix(2, 3), []float64{1, 2}); err == nil {
		t.Fatal("expected shape error for non-square matrix")
	}
	if _, err := Solve(identity(2), []float64{1}); err == nil {
		t.Fatal("expected shape error for rhs length")
	}
}

func TestSolveNeedsPivoting(t *testing.T) {
	// Leading zero pivot forces a row swap.
	a := fromRows([][]float64{{0, 1}, {1, 0}})
	x, err := Solve(a, []float64{2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if x[0] != 3 || x[1] != 2 {
		t.Fatalf("Solve = %v, want [3 2]", x)
	}
}

func TestQRReconstruction(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		m := 4 + rng.Intn(6)
		n := 1 + rng.Intn(m)
		a := randMatrix(rng, m, n)
		x := randVec(rng, n)
		b, err := a.MulVec(x)
		if err != nil {
			t.Fatal(err)
		}
		got, err := LeastSquares(a, b)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for i := range x {
			if math.Abs(got[i]-x[i]) > 1e-8 {
				t.Fatalf("trial %d: x[%d] = %v, want %v", trial, i, got[i], x[i])
			}
		}
	}
}

func TestQROverdetermined(t *testing.T) {
	// Fit y = 1 + 2t over noisy-free samples; LSQ must recover exactly.
	ts := []float64{0, 1, 2, 3, 4}
	a := NewMatrix(len(ts), 2)
	b := make([]float64, len(ts))
	for i, tv := range ts {
		a.Set(i, 0, 1)
		a.Set(i, 1, tv)
		b[i] = 1 + 2*tv
	}
	x, err := LeastSquares(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(x[0]-1) > 1e-10 || math.Abs(x[1]-2) > 1e-10 {
		t.Fatalf("LeastSquares = %v, want [1 2]", x)
	}
}

func TestQRShapeError(t *testing.T) {
	if _, err := NewQR(NewMatrix(2, 3)); err == nil {
		t.Fatal("expected shape error for wide matrix")
	}
	qr, err := NewQR(identity(3))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := qr.Solve([]float64{1}); err == nil {
		t.Fatal("expected rhs shape error")
	}
}

func TestQRRankDeficient(t *testing.T) {
	a := fromRows([][]float64{{1, 1}, {1, 1}, {1, 1}})
	if _, err := LeastSquares(a, []float64{1, 2, 3}); err == nil {
		t.Fatal("expected singular error for rank-deficient matrix")
	}
}

// Property: transpose is an involution.
func TestTransposeInvolutionProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	f := func(rows, cols uint8) bool {
		m := randMatrix(rng, int(rows%12)+1, int(cols%12)+1)
		return equalWithin(m.T().T(), m, 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: (A·B)ᵀ = Bᵀ·Aᵀ.
func TestMulTransposeProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	f := func(a8, b8, c8 uint8) bool {
		ar, ac, bc := int(a8%6)+1, int(b8%6)+1, int(c8%6)+1
		a := randMatrix(rng, ar, ac)
		b := randMatrix(rng, ac, bc)
		ab, err := a.Mul(b)
		if err != nil {
			return false
		}
		btat, err := b.T().Mul(a.T())
		if err != nil {
			return false
		}
		return equalWithin(ab.T(), btat, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: Solve(A, A·x) recovers x for well-conditioned random A.
func TestSolveRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	f := func(n8 uint8) bool {
		n := int(n8%8) + 1
		a := randMatrix(rng, n, n)
		// Make diagonally dominant to guarantee good conditioning.
		for i := 0; i < n; i++ {
			a.Add(i, i, float64(n)+1)
		}
		x := randVec(rng, n)
		b, err := a.MulVec(x)
		if err != nil {
			return false
		}
		got, err := Solve(a, b)
		if err != nil {
			return false
		}
		for i := range x {
			if math.Abs(got[i]-x[i]) > 1e-8 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// Property: QR least-squares residual is orthogonal to the column space.
func TestQRResidualOrthogonalProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	f := func(seed uint8) bool {
		m := int(seed%5) + 4
		n := 2
		a := randMatrix(rng, m, n)
		b := randVec(rng, m)
		x, err := LeastSquares(a, b)
		if err != nil {
			return true // rank-deficient random draw; skip
		}
		ax, err := a.MulVec(x)
		if err != nil {
			return false
		}
		r := make([]float64, m)
		for i := range r {
			r[i] = b[i] - ax[i]
		}
		// Aᵀ·r ≈ 0
		atr, err := a.T().MulVec(r)
		if err != nil {
			return false
		}
		return norm(atr) < 1e-7*(1+norm(b))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// fromRows builds a matrix from equal-length rows.
func fromRows(rows [][]float64) *Matrix {
	m := NewMatrix(len(rows), len(rows[0]))
	for i, r := range rows {
		copy(m.RowView(i), r)
	}
	return m
}

// identity returns the n×n identity matrix.
func identity(n int) *Matrix {
	m := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, 1)
	}
	return m
}

// equalWithin reports whether a and b have the same shape and every
// element within tol.
func equalWithin(a, b *Matrix, tol float64) bool {
	if a.Rows() != b.Rows() || a.Cols() != b.Cols() {
		return false
	}
	for i := 0; i < a.Rows(); i++ {
		for j := 0; j < a.Cols(); j++ {
			if math.Abs(a.At(i, j)-b.At(i, j)) > tol {
				return false
			}
		}
	}
	return true
}

// maxAbs returns the largest absolute element of m, 0 when m is empty.
func maxAbs(m *Matrix) float64 {
	max := 0.0
	for i := 0; i < m.Rows(); i++ {
		for j := 0; j < m.Cols(); j++ {
			max = math.Max(max, math.Abs(m.At(i, j)))
		}
	}
	return max
}

// norm returns the Euclidean norm of v.
func norm(v []float64) float64 {
	s := 0.0
	for _, x := range v {
		s += x * x
	}
	return math.Sqrt(s)
}

func randMatrix(rng *rand.Rand, rows, cols int) *Matrix {
	m := NewMatrix(rows, cols)
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			m.Set(i, j, rng.NormFloat64())
		}
	}
	return m
}

func randVec(rng *rand.Rand, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	return v
}
