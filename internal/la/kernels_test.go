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

// kernelShapes covers tiny, odd, and above-tile sizes (mulBlock = 64).
var kernelShapes = []struct{ r, k, c int }{
	{1, 1, 1},
	{3, 5, 2},
	{7, 4, 9},
	{65, 70, 66}, // crosses the mulBlock tile edge
	{130, 3, 1},
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
	if small.Rows() != 2 || small.Cols() != 2 || small.stride != 2 {
		t.Fatalf("reshaped to %d×%d stride %d", small.Rows(), small.Cols(), small.stride)
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
