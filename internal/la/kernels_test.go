package la

import (
	"math"
	"math/rand"
	"testing"
)

// kernRandMatrix fills a rows×cols matrix with deterministic pseudo-random
// values spanning several orders of magnitude, so parity tests exercise
// non-trivial rounding.
func kernRandMatrix(rng *rand.Rand, rows, cols int) *Matrix {
	m := NewMatrix(rows, cols)
	for i := range m.data {
		m.data[i] = (rng.Float64() - 0.5) * math.Pow(10, float64(rng.Intn(7)-3))
	}
	return m
}

func kernRandVec(rng *rand.Rand, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = (rng.Float64() - 0.5) * math.Pow(10, float64(rng.Intn(7)-3))
	}
	return v
}

// requireBitwise fails unless got and want are bit-for-bit equal.
func requireBitwise(t *testing.T, name string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d, want %d", name, len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s[%d] = %v (bits %x), want %v (bits %x)",
				name, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// shapes covers tiny, odd, and above-tile sizes (mulBlock = 64) so the
// blocked and banded kernel paths all execute.
var kernelShapes = []struct{ r, k, c int }{
	{1, 1, 1},
	{3, 5, 2},
	{7, 4, 9},
	{65, 70, 66}, // crosses the mulBlock tile edge
	{130, 3, 1},
}

func TestMulTIntoMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, sh := range kernelShapes {
		m := kernRandMatrix(rng, sh.r, sh.k)
		b := kernRandMatrix(rng, sh.c, sh.k)
		dst := kernRandMatrix(rng, sh.r, sh.c) // pre-filled garbage must be overwritten
		if err := m.MulTInto(dst, b); err != nil {
			t.Fatalf("MulTInto(%d×%d, %d×%d): %v", sh.r, sh.k, sh.c, sh.k, err)
		}
		// Reference: plain ascending-k dot products from zero.
		want := NewMatrix(sh.r, sh.c)
		for i := 0; i < sh.r; i++ {
			for j := 0; j < sh.c; j++ {
				s := 0.0
				for k := 0; k < sh.k; k++ {
					s += m.At(i, k) * b.At(j, k)
				}
				want.Set(i, j, s)
			}
		}
		requireBitwise(t, "MulTInto", dst.data, want.data)
	}
}

func TestMulTAddIntoMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, sh := range kernelShapes {
		m := kernRandMatrix(rng, sh.r, sh.k)
		b := kernRandMatrix(rng, sh.c, sh.k)
		bias := kernRandMatrix(rng, sh.r, sh.c)
		dst := bias.Clone()
		if err := m.MulTAddInto(dst, b); err != nil {
			t.Fatalf("MulTAddInto(%d×%d, %d×%d): %v", sh.r, sh.k, sh.c, sh.k, err)
		}
		// Reference: the scalar layer loop s = bias + Σ_k ascending.
		want := NewMatrix(sh.r, sh.c)
		for i := 0; i < sh.r; i++ {
			for j := 0; j < sh.c; j++ {
				s := bias.At(i, j)
				for k := 0; k < sh.k; k++ {
					s += m.At(i, k) * b.At(j, k)
				}
				want.Set(i, j, s)
			}
		}
		requireBitwise(t, "MulTAddInto", dst.data, want.data)
	}
}

func TestMulVecIntoMatchesMulVec(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for _, sh := range kernelShapes {
		m := kernRandMatrix(rng, sh.r, sh.k)
		v := kernRandVec(rng, sh.k)
		want, err := m.MulVec(v)
		if err != nil {
			t.Fatal(err)
		}
		got := kernRandVec(rng, sh.r)
		if err := m.MulVecInto(got, v); err != nil {
			t.Fatal(err)
		}
		requireBitwise(t, "MulVecInto", got, want)
	}
}

func TestMulVecAddIntoMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for _, sh := range kernelShapes {
		m := kernRandMatrix(rng, sh.r, sh.k)
		v := kernRandVec(rng, sh.k)
		bias := kernRandVec(rng, sh.r)
		got := append([]float64(nil), bias...)
		if err := m.MulVecAddInto(got, v); err != nil {
			t.Fatal(err)
		}
		// Reference: the scalar layer loop s = bias + Σ_k ascending.
		want := make([]float64, sh.r)
		for i := 0; i < sh.r; i++ {
			s := bias[i]
			for k := 0; k < sh.k; k++ {
				s += m.At(i, k) * v[k]
			}
			want[i] = s
		}
		requireBitwise(t, "MulVecAddInto", got, want)
	}
}

func TestMulVecTIntoMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for _, sh := range kernelShapes {
		m := kernRandMatrix(rng, sh.r, sh.k)
		v := kernRandVec(rng, sh.r)
		got := kernRandVec(rng, sh.k)
		if err := m.MulVecTInto(got, v); err != nil {
			t.Fatal(err)
		}
		// Reference: the back-propagation loop dst[j] = Σ_i ascending
		// m[i][j]·v[i].
		want := make([]float64, sh.k)
		for j := 0; j < sh.k; j++ {
			s := 0.0
			for i := 0; i < sh.r; i++ {
				s += m.At(i, j) * v[i]
			}
			want[j] = s
		}
		requireBitwise(t, "MulVecTInto", got, want)
	}
}

func TestTIntoMatchesT(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for _, sh := range kernelShapes {
		m := kernRandMatrix(rng, sh.r, sh.k)
		want := m.T()
		dst := kernRandMatrix(rng, sh.k, sh.r)
		if err := m.TInto(dst); err != nil {
			t.Fatal(err)
		}
		requireBitwise(t, "TInto", dst.data, want.data)
	}
}

// TestScaleInPlaceMatchesScaleVec checks ScaleInPlace against a scaled
// copy built element by element, as the deleted ScaleVec built it.
func TestScaleInPlaceMatchesScaleVec(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	v := kernRandVec(rng, 33)
	s := rng.Float64() * 3
	want := make([]float64, len(v))
	for i, x := range v {
		want[i] = s * x
	}
	ScaleInPlace(s, v)
	requireBitwise(t, "ScaleInPlace", v, want)
}

func TestSolveIntoMatchesSolve(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	for _, n := range []int{1, 2, 5, 9} {
		a := kernRandMatrix(rng, n, n)
		for i := 0; i < n; i++ {
			a.Add(i, i, 3) // keep well-conditioned
		}
		b := kernRandVec(rng, n)
		want, err := Solve(a, b)
		if err != nil {
			t.Fatal(err)
		}
		x := kernRandVec(rng, n)
		aug := ReuseMatrix(nil, n, n+1)
		if err := SolveInto(x, a, b, aug); err != nil {
			t.Fatal(err)
		}
		requireBitwise(t, "SolveInto", x, want)

		// A pooled, reshaped scratch must give the same bits.
		big := ReuseMatrix(nil, n+4, n+5)
		x2 := kernRandVec(rng, n)
		if err := SolveInto(x2, a, b, ReuseMatrix(big, n, n+1)); err != nil {
			t.Fatal(err)
		}
		requireBitwise(t, "SolveInto pooled", x2, want)
	}
}

func TestReuseMatrix(t *testing.T) {
	m := ReuseMatrix(nil, 3, 4)
	if m.Rows() != 3 || m.Cols() != 4 {
		t.Fatalf("ReuseMatrix(nil) = %d×%d", m.Rows(), m.Cols())
	}
	m.Set(0, 0, 42)
	// Shrinking reuses the backing.
	small := ReuseMatrix(m, 2, 2)
	if small != m {
		t.Fatal("ReuseMatrix should reuse capacity when shrinking")
	}
	if small.Rows() != 2 || small.Cols() != 2 || small.Stride() != 2 {
		t.Fatalf("reshaped to %d×%d stride %d", small.Rows(), small.Cols(), small.Stride())
	}
	// Growing past capacity allocates.
	grown := ReuseMatrix(small, 5, 6)
	if grown == small {
		t.Fatal("ReuseMatrix must allocate when capacity is exceeded")
	}
	// A view must never be reused in place (its stride lies about rows).
	parent := NewMatrix(6, 6)
	view := parent.SubMatrixView(1, 1, 3, 3)
	if ReuseMatrix(view, 3, 3) == view {
		t.Fatal("ReuseMatrix must not reuse a view")
	}
}

func TestNewMatrixFromFlat(t *testing.T) {
	data := []float64{1, 2, 3, 4, 5, 6}
	m, err := NewMatrixFromFlat(2, 3, data)
	if err != nil {
		t.Fatal(err)
	}
	if m.At(1, 2) != 6 {
		t.Fatalf("At(1,2) = %v", m.At(1, 2))
	}
	m.Set(0, 1, 9)
	if data[1] != 9 {
		t.Fatal("NewMatrixFromFlat must alias the backing slice")
	}
	if _, err := NewMatrixFromFlat(2, 2, data); err == nil {
		t.Fatal("want shape error for mismatched backing length")
	}
}
