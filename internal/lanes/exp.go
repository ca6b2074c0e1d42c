package lanes

import "math"

// The constants of math.Exp's amd64 assembly (math/exp_amd64.s).
const (
	expLog2e    = 1.4426950408889634073599246810018920
	expLn2U     = 0.69314718055966295651160180568695068359375
	expLn2L     = 0.28235290563031577122588448175013436025525412068e-12
	expOverflow = 7.09782712893384e+02
)

// expTaylor are its Taylor coefficients, highest order first.
var expTaylor = [...]float64{
	2.4801587301587301587e-5, 1.9841269841269841270e-4, 1.3888888888888888889e-3,
	8.3333333333333333333e-3, 4.1666666666666666667e-2, 1.6666666666666666667e-1,
	0.5, 1.0,
}

// Exp returns e**x. It runs math.Exp's amd64 SSE2 sequence, which
// rounds every product and every sum on its own, so one input gives one
// result whatever the CPU: math.Exp itself switches to a fused
// multiply-add sequence on CPUs that have FMA, and the two differ in
// the last bit on some inputs. The float64 conversions keep the
// compiler from fusing a product into the sum it feeds.
//
// Special cases are those of math.Exp: Exp(+Inf) = +Inf, Exp(NaN) = NaN,
// Exp(-Inf) = 0; results past the float64 range are +Inf or 0.
func Exp(x float64) float64 {
	if x != x {
		return x
	}
	if x > expOverflow {
		return math.Inf(1)
	}
	t := math.RoundToEven(expLog2e * x)
	if t < -1023-52 { // below the smallest subnormal; -Inf too
		return 0
	}
	k := int(t)
	fk := float64(k) // +0 where t is -0, as math.Exp's int32 round trip gives
	r := x - float64(fk*expLn2U)
	r = (r - float64(fk*expLn2L)) * 0.0625
	p := expTaylor[0]
	for _, c := range expTaylor[1:] {
		p = float64(p*r) + c
	}
	r *= p
	for i := 0; i < 4; i++ {
		r *= r + 2
	}
	r++
	// r·2^k, with the assembly's ldexp: a subnormal result scales in two
	// steps, to 2^(k+1022) and then 2^-1022.
	e := k + 1023
	switch {
	case e >= 0x7ff:
		return math.Inf(1)
	case e <= 0:
		r *= math.Float64frombits(uint64(e+1022) << 52)
		e = 1
	}
	return r * math.Float64frombits(uint64(e)<<52)
}

// Pow returns x**y as math.Pow does, with Exp in place of math.Exp.
// math.Pow calls math.Exp only for finite x > 0, x ≠ 1, and a finite y
// with a fractional part, other than ±0.5; Pow repeats its steps there
// and hands every other input to math.Pow.
func Pow(x, y float64) float64 {
	yi, yf := math.Modf(math.Abs(y))
	if !(x > 0 && x < math.Inf(1)) || x == 1 || !(yf > 0) || y == 0.5 || y == -0.5 {
		return math.Pow(x, y)
	}
	// ans = a1·2^ae: x^yf by Exp, then x^yi by successive squarings
	// of x's mantissa, powers of two gathered in ae.
	if yf > 0.5 {
		yf--
		yi++
	}
	a1 := Exp(yf * math.Log(x))
	ae := 0
	x1, xe := math.Frexp(x)
	for i := int64(yi); i != 0; i >>= 1 {
		if xe < -1<<12 || 1<<12 < xe {
			// ae will only grow past the float64 exponent range, so
			// Ldexp gives 0 or +Inf.
			ae += xe
			break
		}
		if i&1 == 1 {
			a1 *= x1
			ae += xe
		}
		x1 *= x1
		xe <<= 1
		if x1 < .5 {
			x1 += x1
			xe--
		}
	}
	if y < 0 {
		a1 = 1 / a1
		ae = -ae
	}
	return math.Ldexp(a1, ae)
}
