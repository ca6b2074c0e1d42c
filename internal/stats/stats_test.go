package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almost(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestMeanVarianceStdDev(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Mean(xs); got != 5 {
		t.Fatalf("Mean = %v, want 5", got)
	}
	// Unbiased variance of this classic sample is 32/7.
	if got := Variance(xs); !almost(got, 32.0/7.0, 1e-12) {
		t.Fatalf("Variance = %v, want %v", got, 32.0/7.0)
	}
	if got := StdDev(xs); !almost(got, math.Sqrt(32.0/7.0), 1e-12) {
		t.Fatalf("StdDev = %v", got)
	}
	if Mean(nil) != 0 || Variance([]float64{1}) != 0 {
		t.Fatal("degenerate samples must yield 0")
	}
}

func TestMinMaxArg(t *testing.T) {
	xs := []float64{3, -1, 7, 7, 2}
	mn, err := Min(xs)
	if err != nil || mn != -1 {
		t.Fatalf("Min = %v, %v", mn, err)
	}
	mx, err := Max(xs)
	if err != nil || mx != 7 {
		t.Fatalf("Max = %v, %v", mx, err)
	}
	am, err := ArgMax(xs)
	if err != nil || am != 2 {
		t.Fatalf("ArgMax = %v (want first of ties = 2), %v", am, err)
	}
	if _, err := Min(nil); err == nil {
		t.Fatal("expected ErrEmpty")
	}
	if _, err := Max(nil); err == nil {
		t.Fatal("expected ErrEmpty")
	}
	if _, err := ArgMax(nil); err == nil {
		t.Fatal("expected ErrEmpty")
	}
}

func TestGeoMean(t *testing.T) {
	g, err := GeoMean([]float64{1, 4, 16})
	if err != nil || !almost(g, 4, 1e-12) {
		t.Fatalf("GeoMean = %v, %v", g, err)
	}
	if _, err := GeoMean([]float64{1, -2}); err == nil {
		t.Fatal("expected error for non-positive value")
	}
	if _, err := GeoMean(nil); err == nil {
		t.Fatal("expected ErrEmpty")
	}
}

func TestPearsonKnown(t *testing.T) {
	x := []float64{1, 2, 3, 4, 5}
	y := []float64{2, 4, 6, 8, 10}
	r, err := Pearson(x, y)
	if err != nil || !almost(r, 1, 1e-12) {
		t.Fatalf("Pearson = %v, %v", r, err)
	}
	yNeg := []float64{10, 8, 6, 4, 2}
	r, err = Pearson(x, yNeg)
	if err != nil || !almost(r, -1, 1e-12) {
		t.Fatalf("Pearson = %v, %v", r, err)
	}
	// Zero variance -> 0 by convention.
	r, err = Pearson(x, []float64{3, 3, 3, 3, 3})
	if err != nil || r != 0 {
		t.Fatalf("Pearson(const) = %v, %v", r, err)
	}
	if _, err := Pearson(x, []float64{1}); err == nil {
		t.Fatal("expected ErrLength")
	}
	if _, err := Pearson(nil, nil); err == nil {
		t.Fatal("expected ErrEmpty")
	}
}

func TestRanksTies(t *testing.T) {
	got := Ranks([]float64{10, 20, 20, 30})
	want := []float64{1, 2.5, 2.5, 4}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Ranks = %v, want %v", got, want)
		}
	}
	got = Ranks([]float64{5, 5, 5})
	for _, r := range got {
		if r != 2 {
			t.Fatalf("all-ties ranks = %v, want all 2", got)
		}
	}
	if len(Ranks(nil)) != 0 {
		t.Fatal("Ranks(nil) must be empty")
	}
}

func TestSpearmanKnown(t *testing.T) {
	// Monotone nonlinear relation: Spearman 1, Pearson < 1.
	x := []float64{1, 2, 3, 4, 5}
	y := []float64{1, 8, 27, 64, 125}
	rs, err := Spearman(x, y)
	if err != nil || !almost(rs, 1, 1e-12) {
		t.Fatalf("Spearman = %v, %v", rs, err)
	}
	rp, _ := Pearson(x, y)
	if rp >= 1 {
		t.Fatalf("Pearson = %v, expected < 1 for cubic data", rp)
	}
	// Classic worked example with a known value.
	a := []float64{106, 86, 100, 101, 99, 103, 97, 113, 112, 110}
	b := []float64{7, 0, 27, 50, 28, 29, 20, 12, 6, 17}
	rs, err = Spearman(a, b)
	if err != nil || !almost(rs, -29.0/165.0, 1e-12) {
		t.Fatalf("Spearman = %v, want %v", rs, -29.0/165.0)
	}
	if _, err := Spearman([]float64{1}, []float64{1, 2}); err == nil {
		t.Fatal("expected ErrLength")
	}
}

func TestRSquared(t *testing.T) {
	obs := []float64{1, 2, 3, 4}
	r2, err := RSquared(obs, obs)
	if err != nil || !almost(r2, 1, 1e-12) {
		t.Fatalf("perfect R² = %v, %v", r2, err)
	}
	meanPred := []float64{2.5, 2.5, 2.5, 2.5}
	r2, err = RSquared(obs, meanPred)
	if err != nil || !almost(r2, 0, 1e-12) {
		t.Fatalf("mean-prediction R² = %v, %v", r2, err)
	}
	worse := []float64{4, 3, 2, 1}
	r2, err = RSquared(obs, worse)
	if err != nil || r2 >= 0 {
		t.Fatalf("anti-correlated R² = %v, expected negative", r2)
	}
	r2, err = RSquared([]float64{5, 5}, []float64{4, 6})
	if err != nil || r2 != 0 {
		t.Fatalf("zero-variance obs R² = %v, %v", r2, err)
	}
	if _, err := RSquared(obs, obs[:2]); err == nil {
		t.Fatal("expected ErrLength")
	}
}

func TestMAPE(t *testing.T) {
	obs := []float64{100, 200}
	pred := []float64{110, 180}
	got, err := MAPE(obs, pred)
	if err != nil || !almost(got, 10, 1e-12) {
		t.Fatalf("MAPE = %v, %v (want 10)", got, err)
	}
	if _, err := MAPE([]float64{0}, []float64{1}); err == nil {
		t.Fatal("expected error on zero observation")
	}
	if _, err := MAPE(obs, pred[:1]); err == nil {
		t.Fatal("expected ErrLength")
	}
	if _, err := MAPE(nil, nil); err == nil {
		t.Fatal("expected ErrEmpty")
	}
}

func TestTop1Deficiency(t *testing.T) {
	obs := []float64{10, 30, 20}
	// Prediction picks index 1, which is the true best: deficiency 0.
	d, err := Top1Deficiency(obs, []float64{5, 50, 9})
	if err != nil || d != 0 {
		t.Fatalf("deficiency = %v, %v, want 0", d, err)
	}
	// Prediction picks index 2 (perf 20); actual best 30 -> 50%.
	d, err = Top1Deficiency(obs, []float64{5, 9, 50})
	if err != nil || !almost(d, 50, 1e-12) {
		t.Fatalf("deficiency = %v, %v, want 50", d, err)
	}
	if _, err := Top1Deficiency([]float64{-1, 2}, []float64{5, 1}); err == nil {
		t.Fatal("expected error for non-positive chosen performance")
	}
	if _, err := Top1Deficiency(obs, obs[:1]); err == nil {
		t.Fatal("expected ErrLength")
	}
	if _, err := Top1Deficiency(nil, nil); err == nil {
		t.Fatal("expected ErrEmpty")
	}
}

// Property: correlation coefficients stay within [-1, 1].
func TestCorrelationBoundsProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	f := func(n8 uint8) bool {
		n := int(n8%20) + 2
		x, y := make([]float64, n), make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
			y[i] = rng.NormFloat64()
		}
		rp, err := Pearson(x, y)
		if err != nil || rp < -1-1e-12 || rp > 1+1e-12 {
			return false
		}
		rs, err := Spearman(x, y)
		return err == nil && rs >= -1-1e-12 && rs <= 1+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: Spearman is invariant under strictly monotone transforms.
func TestSpearmanMonotoneInvarianceProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	f := func(n8 uint8) bool {
		n := int(n8%15) + 3
		x, y := make([]float64, n), make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
			y[i] = rng.NormFloat64()
		}
		r1, err1 := Spearman(x, y)
		yt := make([]float64, n)
		for i, v := range y {
			yt[i] = math.Exp(v) // strictly increasing
		}
		r2, err2 := Spearman(x, yt)
		return err1 == nil && err2 == nil && almost(r1, r2, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: ranks are a permutation-compatible relabelling — the multiset of
// ranks sums to n(n+1)/2 regardless of ties.
func TestRanksSumProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	f := func(n8 uint8) bool {
		n := int(n8%30) + 1
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(rng.Intn(5)) // deliberately many ties
		}
		s := 0.0
		for _, r := range Ranks(xs) {
			s += r
		}
		return almost(s, float64(n*(n+1))/2, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: top-1 deficiency is non-negative and zero when predictions are
// a positive rescaling of the observations.
func TestTop1DeficiencyProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	f := func(n8 uint8) bool {
		n := int(n8%10) + 1
		obs := make([]float64, n)
		for i := range obs {
			obs[i] = 1 + rng.Float64()*99
		}
		pred := make([]float64, n)
		for i := range pred {
			pred[i] = rng.Float64() * 100
		}
		d, err := Top1Deficiency(obs, pred)
		if err != nil || d < 0 {
			return false
		}
		d2, err := Top1Deficiency(obs, obs)
		return err == nil && d2 == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
