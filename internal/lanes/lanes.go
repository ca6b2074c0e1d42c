// Package lanes holds the fit kernels that run four float64 lanes to a
// register: MLP^T's hidden-layer training step, the logistic sigmoid
// over a layer's sums, and GA-kNN's weighted pair distances.
//
// Every kernel exists twice: AVX2 assembly on amd64 CPUs that pass the
// gate, and a Go loop over the same lane layout everywhere else. The
// two are bit-identical. Each lane runs the IEEE operations of the
// scalar code on the same operands in the same order, with no fused
// multiply-add where the scalar code rounds twice and no horizontal
// sums. The packed sigmoid repeats math.Exp's amd64 FMA path
// instruction for instruction, so it can equal math.Exp only where
// math.Exp takes that path. The gate therefore probes it against the
// scalar sigmoid at start-up: GODEBUG=cpu.fma=off or cpu.avx=off sends
// math.Exp down its SSE2 path, the probe fails, and the Go loops run.
// No flag, variable or build tag picks a kernel.
package lanes

import "math"

// enabled reports whether the assembly kernels run: the CPU has AVX2
// and FMA, the OS saves YMM state, and the packed sigmoid equals
// Sigmoid bit for bit on every probe input.
var enabled = hasAVX2FMA && probe()

// Sigmoid is the logistic function 1/(1+e^-x), the activation of
// MLP^T's hidden units.
func Sigmoid(x float64) float64 { return 1 / (1 + math.Exp(-x)) }

// expLimit bounds the inputs the packed sigmoid handles: within it
// math.Exp(-x) takes neither its overflow nor its subnormal branch.
// Lanes beyond it, and NaN or ±Inf lanes, fall back to Sigmoid.
const expLimit = 700

// Sigmoids replaces every x[i] with Sigmoid(x[i]).
func Sigmoids(x []float64) {
	n := 0
	if enabled {
		n = len(x) &^ 3
		sigmoidLanes(x[:n])
	}
	for i, v := range x[n:] {
		x[n+i] = Sigmoid(v)
	}
}

// sigmoidLanes is Sigmoids in assembly for len(x) a multiple of four.
func sigmoidLanes(x []float64) {
	if sigmoidAVX2(x) {
		// Some lane was out of range and kept its input; every computed
		// lane lies in [0, 1], well inside the limit.
		for i, v := range x {
			if !(math.Abs(v) <= expLimit) {
				x[i] = Sigmoid(v)
			}
		}
	}
}

// probeInputs are sigmoid inputs the packed kernel must match before it
// is used. -0.46401051982578045 and 1.5221724909664682 are inputs on
// which math.Exp's FMA and SSE2 paths round differently, so the probe
// fails whenever math.Exp does not take the path the kernel repeats.
// The rest span the served range, both signs of zero, and the fallback
// lanes. The length is a multiple of four.
var probeInputs = [...]float64{
	-0.46401051982578045, 1.5221724909664682, 0, math.Copysign(0, -1),
	1e-300, -3.25, 17.5, -699.9,
	699.9, -700.5, math.Inf(-1), math.NaN(),
}

func probe() bool {
	got := probeInputs
	sigmoidLanes(got[:])
	for i, x := range probeInputs {
		if math.Float64bits(got[i]) != math.Float64bits(Sigmoid(x)) {
			return false
		}
	}
	return true
}

// stepUnits is the most units one stepAVX2 call keeps in registers.
const stepUnits = 16

// Step runs one sample's momentum update of a sigmoid or linear layer
// fused with the next sample's forward sums, four units to a lane
// group. w and dw are the layer's weights and momenta in k-major form:
// input k's weights of units 0..stride-1 lie at w[k*stride:][:stride],
// units past the layer's zero. d, b, db and s are stride long, stride
// a multiple of four: the units' deltas, biases, bias momenta, and on
// exit their forward sums. For every unit j, with g = lr·d_j, it steps
// the bias
//
//	u = g + mu·db_j;  b_j += u;  db_j = u;  s_j = b_j
//
// and then runs, k ascending,
//
//	u = g·in_k + mu·dw_jk;  w_jk += u;  dw_jk = u;  s_j += w_jk·next_k
//
// so each unit's operations and their order are the scalar loop's.
func Step(w, dw, in, next, d, b, db, s []float64, lr, mu float64) {
	n, stride := len(in), len(b)
	if stride%4 != 0 || len(d) != stride || len(db) != stride || len(s) != stride ||
		len(next) < n || len(w) < n*stride || len(dw) < n*stride {
		panic("lanes: Step operands do not match the layer shape")
	}
	if n == 0 {
		return
	}
	if enabled {
		stepAsm(w, dw, in, next, d, b, db, s, lr, mu)
	} else {
		stepGo(w, dw, in, next[:n], d, b, db, s, lr, mu)
	}
}

// stepAsm runs Step in assembly, up to stepUnits units per call.
func stepAsm(w, dw, in, next, d, b, db, s []float64, lr, mu float64) {
	stride := len(b)
	for j := 0; j < stride; j += stepUnits {
		c := j + min(stepUnits, stride-j)
		stepAVX2(w[j:], dw[j:], stride, in, next, d[j:c], b[j:c], db[j:c], s[j:c], lr, mu)
	}
}

// stepGo is Step's lane loop in Go, stepUnits units at a time as in
// the assembly: the portable kernel and the reference the assembly is
// tested against.
func stepGo(w, dw, in, next, d, b, db, s []float64, lr, mu float64) {
	stride := len(b)
	var g [stepUnits]float64
	for j0 := 0; j0 < stride; j0 += stepUnits {
		c := min(stepUnits, stride-j0)
		for j := range g[:c] {
			g[j] = lr * d[j0+j]
			u := g[j] + mu*db[j0+j]
			b[j0+j] += u
			db[j0+j] = u
			s[j0+j] = b[j0+j]
		}
		sk := s[j0:][:c]
		for k, x := range in {
			xn := next[k]
			wk, dwk := w[k*stride+j0:][:c], dw[k*stride+j0:][:c]
			for j, gj := range g[:c] {
				u := gj*x + mu*dwk[j]
				v := wk[j] + u
				wk[j], dwk[j] = v, u
				sk[j] += v * xn
			}
		}
	}
}

// PairGroups is the number of four-pair lane groups that hold np pairs.
func PairGroups(np int) int { return (np + 3) / 4 }

// Distances writes the weighted distance sqrt(Σ_j (w_j·d_j)·d_j) of
// every pair in diff to out, four pairs to a lane group. diff holds the
// pairs' differences lane-major: group q's dim = len(w) differences
// lie at diff[q*4*dim:][:4*dim], difference j of its pair i at
// [j*4+i], and a last group short of four pairs is zero-padded. out has
// one slot per pair slot, 4 per group. Each pair's sum runs j
// ascending from +0, as the scalar chain does.
func Distances(diff, w, out []float64) {
	if len(out)%4 != 0 || len(diff) != len(out)*len(w) {
		panic("lanes: Distances operands do not match the pair layout")
	}
	if len(w) == 0 {
		clear(out)
		return
	}
	if enabled {
		distancesAVX2(diff, w, out)
		return
	}
	distancesGo(diff, w, out)
}

// distancesGo is Distances' lane loop in Go: the portable kernel and
// the reference the assembly is tested against.
func distancesGo(diff, w, out []float64) {
	dim := len(w)
	for q := 0; q < len(out); q += 4 {
		var s [4]float64
		grp := diff[q*dim:][:4*dim]
		for j, wj := range w {
			d := grp[j*4:][:4]
			for i := range s {
				s[i] += wj * d[i] * d[i]
			}
		}
		for i, v := range s {
			out[q+i] = math.Sqrt(v)
		}
	}
}
