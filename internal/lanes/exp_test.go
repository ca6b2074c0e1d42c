package lanes

import "math"

// The constants of math.Exp's amd64 assembly (math/exp_amd64.s).
const (
	expLog2e = 1.4426950408889634073599246810018920
	expLn2U  = 0.69314718055966295651160180568695068359375
	expLn2L  = 0.28235290563031577122588448175013436025525412068e-12
)

// expTaylor are its Taylor coefficients, highest order first.
var expTaylor = [...]float64{
	2.4801587301587301587e-5, 1.9841269841269841270e-4, 1.3888888888888888889e-3,
	8.3333333333333333333e-3, 4.1666666666666666667e-2, 1.6666666666666666667e-1,
	0.5, 1.0,
}

// expSSE2 transcribes math.Exp's amd64 SSE2 path for |x| <= expLimit:
// every product and sum rounds on its own. The float64 conversions keep
// the compiler from fusing any of them.
func expSSE2(x float64) float64 {
	k := math.RoundToEven(expLog2e * x)
	r := x - float64(k*expLn2U)
	r = (r - float64(k*expLn2L)) * 0.0625
	p := expTaylor[0]
	for _, c := range expTaylor[1:] {
		p = float64(p*r) + c
	}
	r *= p
	for i := 0; i < 4; i++ {
		r *= r + 2
	}
	return (r + 1) * math.Float64frombits(uint64(int64(k)+1023)<<52)
}

// expFMA transcribes math.Exp's amd64 FMA path for |x| <= expLimit,
// the path the packed sigmoid repeats.
func expFMA(x float64) float64 {
	k := math.RoundToEven(expLog2e * x)
	r := math.FMA(-k, expLn2U, x)
	r = math.FMA(-k, expLn2L, r) * 0.0625
	p := expTaylor[0]
	for _, c := range expTaylor[1:] {
		p = math.FMA(r, p, c)
	}
	r *= p
	for i := 0; i < 3; i++ {
		r *= r + 2
	}
	r = math.FMA(r+2, r, 1)
	return r * math.Float64frombits(uint64(int64(k)+1023)<<52)
}
