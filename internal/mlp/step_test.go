package mlp

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// stepCase is one random input to a multi-unit step kernel: units rows
// of weights and momenta n wide, the inputs and next inputs, gradient
// scales, and updated biases.
type stepCase struct {
	w, dw, in, next, grad, sums []float64
	mu                          float64
}

func newStepCase(rng *rand.Rand, units, n int) stepCase {
	vec := func(m int, scale float64) []float64 {
		v := make([]float64, m)
		for i := range v {
			v[i] = (rng.Float64() - 0.5) * scale
		}
		return v
	}
	return stepCase{
		w: vec(units*n, 1), dw: vec(units*n, 0.1),
		in: vec(n, 2), next: vec(n, 2),
		grad: vec(units, 0.3), sums: vec(units, 1),
		mu: 0.2,
	}
}

func (c stepCase) clone() stepCase {
	return stepCase{
		w: slices.Clone(c.w), dw: slices.Clone(c.dw),
		in: c.in, next: c.next,
		grad: c.grad, sums: slices.Clone(c.sums), mu: c.mu,
	}
}

func requireSameBits(t *testing.T, ctx, what string, got, want []float64) {
	t.Helper()
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: %s[%d] = %v (%#x), Go kernel %v (%#x)",
				ctx, what, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

func (c stepCase) requireSame(t *testing.T, ctx string, want stepCase) {
	t.Helper()
	requireSameBits(t, ctx, "w", c.w, want.w)
	requireSameBits(t, ctx, "dw", c.dw, want.dw)
	requireSameBits(t, ctx, "sums", c.sums, want.sums)
}

// stepWidths covers the served shapes (n = 28 hidden-layer inputs, 14
// output-layer inputs) and the odd-n tail of the two-k kernels.
var stepWidths = []int{1, 2, 3, 14, 28}

// TestStep4MatchesGo pins step4 (the SSE2 kernel on amd64, step4Go
// itself on other GOARCHes) to step4Go bit for bit,
// over several steps so updated weights and momenta feed the next one.
func TestStep4MatchesGo(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range stepWidths {
		got := newStepCase(rng, 4, n)
		want := got.clone()
		for it := 0; it < 5; it++ {
			step4(got.w, got.dw, got.in, got.next, (*[4]float64)(got.grad), got.mu, (*[4]float64)(got.sums))
			step4Go(want.w, want.dw, want.in, want.next, (*[4]float64)(want.grad), want.mu, (*[4]float64)(want.sums))
			got.requireSame(t, "step4", want)
		}
	}
}

// TestStep2MatchesGo is TestStep4MatchesGo for the two-unit kernel.
func TestStep2MatchesGo(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, n := range stepWidths {
		got := newStepCase(rng, 2, n)
		want := got.clone()
		for it := 0; it < 5; it++ {
			step2(got.w, got.dw, got.in, got.next, (*[2]float64)(got.grad), got.mu, (*[2]float64)(got.sums))
			step2Go(want.w, want.dw, want.in, want.next, (*[2]float64)(want.grad), want.mu, (*[2]float64)(want.sums))
			got.requireSame(t, "step2", want)
		}
	}
}
