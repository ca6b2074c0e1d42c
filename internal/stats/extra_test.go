package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestKendallKnown(t *testing.T) {
	x := []float64{1, 2, 3, 4, 5}
	tau, err := Kendall(x, []float64{2, 4, 6, 8, 10})
	if err != nil || tau != 1 {
		t.Fatalf("tau = %v, %v", tau, err)
	}
	tau, err = Kendall(x, []float64{10, 8, 6, 4, 2})
	if err != nil || tau != -1 {
		t.Fatalf("tau = %v, %v", tau, err)
	}
	// One swapped pair out of 10: tau = (9-1)/10 = 0.8.
	tau, err = Kendall(x, []float64{1, 2, 4, 3, 5})
	if err != nil || !almost(tau, 0.8, 1e-12) {
		t.Fatalf("tau = %v, %v", tau, err)
	}
	tau, err = Kendall(x, []float64{3, 3, 3, 3, 3})
	if err != nil || tau != 0 {
		t.Fatalf("constant tau = %v, %v", tau, err)
	}
	if _, err := Kendall(x, x[:2]); err == nil {
		t.Fatal("want length error")
	}
	if _, err := Kendall(nil, nil); err == nil {
		t.Fatal("want empty error")
	}
}

// Property: Kendall and Spearman live in [-1, 1] and agree in sign
// whenever both are decisively non-zero. (For tiny samples the two
// statistics can legitimately straddle zero, so near-zero values are
// exempt from the sign check — the old formulation made this test flaky.)
// The sweep is exhaustive and deterministically seeded per input, unlike
// quick.Check whose input stream is time-seeded.
func TestKendallSpearmanAgreementProperty(t *testing.T) {
	for n8 := 0; n8 < 256; n8++ {
		rng := rand.New(rand.NewSource(21 + int64(n8)*1_000_003))
		n := n8%12 + 4
		x := make([]float64, n)
		y := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
			y[i] = x[i]*0.8 + rng.NormFloat64()*0.2 // strongly correlated
		}
		tau, err1 := Kendall(x, y)
		rho, err2 := Spearman(x, y)
		if err1 != nil || err2 != nil {
			t.Fatalf("#%d: %v / %v", n8, err1, err2)
		}
		if tau < -1-1e-12 || tau > 1+1e-12 {
			t.Fatalf("#%d: tau = %v outside [-1, 1]", n8, tau)
		}
		if rho < -1-1e-12 || rho > 1+1e-12 {
			t.Fatalf("#%d: rho = %v outside [-1, 1]", n8, rho)
		}
		if math.Abs(tau) >= 0.1 && math.Abs(rho) >= 0.1 && (tau > 0) != (rho > 0) {
			t.Fatalf("#%d: sign disagreement: tau = %v, rho = %v (n = %d)", n8, tau, rho, n)
		}
	}
}

func TestHistogram(t *testing.T) {
	counts, edges, err := Histogram([]float64{0, 0.5, 1, 1.5, 2}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(counts) != 2 || len(edges) != 3 {
		t.Fatalf("shape: %v %v", counts, edges)
	}
	if counts[0]+counts[1] != 5 {
		t.Fatalf("counts %v don't sum to n", counts)
	}
	// The max value lands in the last bin.
	if counts[1] < 2 {
		t.Fatalf("counts = %v", counts)
	}
	if _, _, err := Histogram(nil, 2); err == nil {
		t.Fatal("want empty error")
	}
	if _, _, err := Histogram([]float64{1}, 0); err == nil {
		t.Fatal("want bin-count error")
	}
	// Constant sample must not divide by zero.
	counts, _, err = Histogram([]float64{3, 3, 3}, 4)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, c := range counts {
		total += c
	}
	if total != 3 {
		t.Fatalf("constant histogram counts %v", counts)
	}
}

// Property: histogram counts always sum to the sample size.
func TestHistogramMassProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	f := func(n8, bins8 uint8) bool {
		n := int(n8%50) + 1
		bins := int(bins8%10) + 1
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rng.NormFloat64() * 100
		}
		counts, edges, err := Histogram(xs, bins)
		if err != nil || len(edges) != bins+1 {
			return false
		}
		total := 0
		for _, c := range counts {
			total += c
		}
		return total == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}
