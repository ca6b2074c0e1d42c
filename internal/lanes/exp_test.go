package lanes

import (
	"math"
	"math/rand"
	"os"
	"runtime"
	"strings"
	"testing"
)

// mathExpIsSSE2 reports whether math.Exp runs the SSE2 sequence that Exp
// repeats: on amd64 with GODEBUG's cpu.fma=off or cpu.avx=off, which
// take math.Exp off its FMA path.
func mathExpIsSSE2() bool {
	if runtime.GOARCH != "amd64" {
		return false
	}
	for _, kv := range strings.Split(os.Getenv("GODEBUG"), ",") {
		if kv == "cpu.fma=off" || kv == "cpu.avx=off" {
			return true
		}
	}
	return false
}

// ulpsApart is the distance between two finite float64s of one sign in
// units in the last place.
func ulpsApart(a, b float64) uint64 {
	x, y := math.Float64bits(a), math.Float64bits(b)
	if x < y {
		x, y = y, x
	}
	return x - y
}

// TestExpMatchesMathExp compares Exp with math.Exp on 1M inputs drawn
// from [-745, 710], which spans the subnormal results, the overflow
// threshold and the normal range between, plus the special values.
// Where math.Exp runs the SSE2 sequence (make test runs this package
// under GODEBUG=cpu.fma=off) every result must match bit for bit;
// elsewhere math.Exp's fused sequence lands up to two places apart on
// about one input in eleven.
func TestExpMatchesMathExp(t *testing.T) {
	strict := mathExpIsSSE2()
	xs := []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(),
		expOverflow, math.Nextafter(expOverflow, 0), 709.7, -708.4, -745.1, -1e300, 1e300}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1<<20; i++ {
		xs = append(xs, -745+rng.Float64()*(710+745))
	}
	apart := 0
	for _, x := range xs {
		got, want := Exp(x), math.Exp(x)
		if math.Float64bits(got) == math.Float64bits(want) {
			continue
		}
		apart++
		if strict || math.IsInf(want, 0) || want == 0 || ulpsApart(got, want) > 2 {
			t.Fatalf("Exp(%v) = %v (%#x), math.Exp %v (%#x)",
				x, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
	t.Logf("%d of %d inputs apart from math.Exp (strict %v)", apart, len(xs), strict)
}

// TestPowMatchesMathPow compares Pow with math.Pow over the bases and
// exponents the performance model passes (positive bases around 1, the
// exponent 0.7) and the inputs Pow hands straight to math.Pow. Where
// math.Exp runs the SSE2 sequence the results must match bit for bit;
// elsewhere they may differ by the few places one rounding of Exp
// grows into.
func TestPowMatchesMathPow(t *testing.T) {
	strict := mathExpIsSSE2()
	inf, nan := math.Inf(1), math.NaN()
	type pair struct{ x, y float64 }
	ps := []pair{{2, 0.5}, {2, -0.5}, {2, 3}, {2, -3}, {1, 0.7}, {0, 0.7}, {inf, 0.7},
		{-2, 0.7}, {-2, 3}, {nan, 0.7}, {2, nan}, {2, inf}, {0.5, -inf}, {2, 0}, {1e-300, 2.5}, {1e300, 7.25}}
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 1<<16; i++ {
		x := math.Exp2(40 * (rng.Float64() - 0.5))
		ps = append(ps, pair{x, 0.7}, pair{x, 16 * (rng.Float64() - 0.5)})
	}
	for _, p := range ps {
		got, want := Pow(p.x, p.y), math.Pow(p.x, p.y)
		if math.Float64bits(got) == math.Float64bits(want) ||
			!strict && got == got && !math.IsInf(want, 0) && want != 0 && ulpsApart(got, want) <= 4 {
			continue
		}
		t.Fatalf("Pow(%v, %v) = %v (%#x), math.Pow %v (%#x)",
			p.x, p.y, got, math.Float64bits(got), want, math.Float64bits(want))
	}
}
