// Package lanes holds the fit kernels that run four float64 lanes to a
// register: MLP^T's hidden-layer training step, the logistic sigmoid
// over a layer's sums, and three for GA-kNN's leave-one-out fitness:
// the weighted pair distances, the rank of every candidate neighbour in
// each benchmark's distance row, and the weighted vote with its error
// sum.
//
// Every kernel exists twice: AVX2 assembly on amd64 CPUs that pass the
// gate, and a Go loop over the same lane layout everywhere else. The
// two are bit-identical. Each lane runs the IEEE operations of the
// scalar code on the same operands in the same order, with no fused
// multiply-add where the scalar code rounds twice, and a sum across
// lanes adds them one at a time in the scalar order. The packed sigmoid repeats math.Exp's amd64 FMA path
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

// Ranks writes the rank of every entry of the symmetric n×n row-major
// matrix d within its row, under (value, then column index), for n a
// multiple of four:
//
//	r[b*n+i] = #{j < i : d[b][j] <= d[b][i]} + #{j > i : d[b][j] < d[b][i]}
//
// Only ordered compares count, so a NaN entry counts toward no rank,
// and a NaN entry itself ranks n−1. NaN thus marks the entries a row
// leaves out (a query's own cell, padding); an +Inf would not do, as a
// real +Inf ties with it. In a row that holds NaN only there, the other
// m entries rank 0..m−1, each at the position a sort by (value, index)
// gives it, and none reaches n−1, so scattering the row by rank needs
// no branch. The kernel reads column b as row b, four columns to a lane
// group, and does not branch on the data.
func Ranks(d []float64, n int, r []int64) {
	if n%4 != 0 || len(d) != n*n || len(r) != n*n {
		panic("lanes: Ranks operands do not match the matrix shape")
	}
	if n == 0 {
		return
	}
	if enabled {
		ranksAVX2(d, n, r)
		return
	}
	ranksGo(d, n, r)
}

// ranksGo is Ranks' lane loop in Go: the portable kernel and the
// reference the assembly is tested against.
func ranksGo(d []float64, n int, r []int64) {
	for b := 0; b < n; b += 4 {
		for i := 0; i < n; i++ {
			x := d[i*n+b:][:4]
			var c [4]int64
			for j := 0; j < i; j++ {
				y := d[j*n+b:][:4]
				for l := range c {
					if y[l] <= x[l] {
						c[l]++
					}
				}
			}
			for j := i + 1; j < n; j++ {
				y := d[j*n+b:][:4]
				for l := range c {
					if y[l] < x[l] {
						c[l]++
					}
				}
			}
			for l, v := range x {
				if v != v {
					c[l] = int64(n - 1)
				}
				r[(b+l)*n+i] = c[l]
			}
		}
	}
}

// VoteErrors sums the relative errors of GA-kNN's leave-one-out vote
// over nb = len(near)/n queries. Query b's k neighbours are
// order[b*n:][:k], closest first, at the distances near[b*n:][:k]; n is
// a multiple of four, at least k. Neighbour r votes with weight
// w_r = 1/(d_r·d_r + eps), den = Σ_r w_r, and target t gets
// pred_t = (Σ_r w_r·s[order_r][t]) / den, both sums in neighbour order
// from +0. s is the score table: rows of stride columns, a multiple of
// four, whose first nt are the targets; row b holds query b's own
// scores a_t. The result is Σ |pred_t − a_t| / a_t added one term at a
// time in (b, t) order from +0. The weights and the target groups run
// four to a register; every lane repeats the scalar operations in the
// same order, with no fused multiply-add. Weights are computed for k
// rounded up to a multiple of four, into the scratch w, and the lanes
// past k go unused.
func VoteErrors(near []float64, order []int64, n, k int, s []float64, stride, nt int, eps float64, w []float64) float64 {
	nb := 0
	if n > 0 {
		nb = len(near) / n
	}
	kl := (k + 3) &^ 3
	if n%4 != 0 || stride%4 != 0 || k < 1 || kl > n || len(near) != nb*n || len(order) != nb*n ||
		nt < 1 || nt > stride || len(s) < nb*stride || len(w) < kl {
		panic("lanes: VoteErrors operands do not match the vote layout")
	}
	if nb == 0 {
		return 0
	}
	if !enabled {
		return voteErrorsGo(near, order, s, w, n, nb, k, stride, nt, eps)
	}
	total, ok := voteErrorsAVX2(near, order, s, w, n, nb, k, stride, nt, eps, len(s)/stride)
	if !ok {
		panic("lanes: VoteErrors neighbour outside the score table")
	}
	return total
}

// voteErrorsGo is VoteErrors' loop in Go: the portable kernel and the
// reference the assembly is tested against.
func voteErrorsGo(near []float64, order []int64, s, w []float64, n, nb, k, stride, nt int, eps float64) float64 {
	total := 0.0
	for b := 0; b < nb; b++ {
		nd, nbrs := near[b*n:][:k], order[b*n:][:k]
		den := 0.0
		for r, d := range nd {
			w[r] = 1 / (d*d + eps)
			den += w[r]
		}
		for t, a := range s[b*stride:][:nt] {
			num := 0.0
			for r, i := range nbrs {
				num += w[r] * s[int(i)*stride+t]
			}
			total += math.Abs(num/den-a) / a
		}
	}
	return total
}
