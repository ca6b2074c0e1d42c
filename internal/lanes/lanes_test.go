package lanes

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

func requireSameBits(t *testing.T, ctx, what string, got, want []float64) {
	t.Helper()
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: %s[%d] = %v (%#x), want %v (%#x)",
				ctx, what, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// TestLaneGateProbe pins the gate to the path math.Exp takes. The probe
// must hold an input on which math.Exp's SSE2 and FMA paths give
// different sigmoids; on every in-range probe input math.Exp must equal
// one of the two transcriptions; and the lanes are on exactly when the
// CPU has them and math.Exp took the FMA path that the packed sigmoid
// repeats. Under GODEBUG=cpu.fma=off the gate must read off.
func TestLaneGateProbe(t *testing.T) {
	differs, onFMA, onSSE2 := false, 0, 0
	for _, s := range probeInputs {
		if !(math.Abs(s) <= expLimit) {
			continue
		}
		x := -s
		got, sse2, fma := math.Exp(x), expSSE2(x), expFMA(x)
		if got != sse2 && got != fma {
			t.Fatalf("math.Exp(%v) = %v matches neither the SSE2 (%v) nor the FMA (%v) transcription", x, got, sse2, fma)
		}
		if 1/(1+sse2) != 1/(1+fma) {
			differs = true
		}
		if sse2 != fma {
			if got == fma {
				onFMA++
			} else {
				onSSE2++
			}
		}
	}
	if !differs {
		t.Fatal("no probe input tells math.Exp's SSE2 path from its FMA path")
	}
	if onFMA > 0 && onSSE2 > 0 {
		t.Fatalf("math.Exp took the FMA path on %d probe inputs and the SSE2 path on %d", onFMA, onSSE2)
	}
	if want := hasAVX2FMA && onSSE2 == 0; enabled != want {
		t.Fatalf("enabled = %v with AVX2+FMA %v and math.Exp on its FMA path %v", enabled, hasAVX2FMA, onSSE2 == 0)
	}
}

// TestSigmoidsMatchSigmoid covers every slice length's split between
// the lanes and the scalar tail, with fallback lanes among them, and
// then sweeps random inputs over the served range and up to the limit.
func TestSigmoidsMatchSigmoid(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	check := func(x []float64) {
		t.Helper()
		got := slices.Clone(x)
		Sigmoids(got)
		for i, v := range x {
			if math.Float64bits(got[i]) != math.Float64bits(Sigmoid(v)) {
				t.Fatalf("len %d: Sigmoids[%d] of %v = %v, Sigmoid %v", len(x), i, v, got[i], Sigmoid(v))
			}
		}
	}
	for n := 0; n <= 17; n++ {
		x := randVec(rng, n, 40)
		if n > 5 {
			x[1], x[5] = -703, math.NaN()
		}
		check(x)
	}
	for _, scale := range []float64{2, 40, 1420} {
		check(randVec(rng, 1<<16, scale))
	}
}

// FuzzSigmoidLanes feeds four raw bit patterns to Sigmoids, the packed
// kernel wherever the gate is on, and requires each lane to equal the
// scalar Sigmoid bit for bit. Seeds in testdata/fuzz/FuzzSigmoidLanes
// cover NaN, ±Inf, ±0, subnormal inputs and results, the ±700 limit
// and the inputs where math.Exp's two amd64 paths differ.
func FuzzSigmoidLanes(f *testing.F) {
	f.Fuzz(func(t *testing.T, a, b, c, d uint64) {
		x := []float64{
			math.Float64frombits(a), math.Float64frombits(b),
			math.Float64frombits(c), math.Float64frombits(d),
		}
		got := slices.Clone(x)
		Sigmoids(got)
		for i, v := range x {
			if want := Sigmoid(v); math.Float64bits(got[i]) != math.Float64bits(want) {
				t.Fatalf("lane %d: sigmoid(%v) = %v (%#x), scalar %v (%#x)",
					i, v, got[i], math.Float64bits(got[i]), want, math.Float64bits(want))
			}
		}
	})
}

func randVec(rng *rand.Rand, n int, scale float64) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = (rng.Float64() - 0.5) * scale
	}
	return v
}

// TestStepLanesMatchesGo pins the assembly step to stepGo bit for bit
// over several steps, so updated weights, biases and momenta feed the
// next one. The unit counts cover one to five groups, a partial last
// group and more units than one call keeps in registers; the widths
// cover the served hidden layer (28 inputs) and short rows.
func TestStepLanesMatchesGo(t *testing.T) {
	if !hasAVX2FMA {
		t.Skip("no AVX2+FMA: only the Go lane loop runs here")
	}
	rng := rand.New(rand.NewSource(1))
	padded := func(units, stride int, scale float64) []float64 {
		v := make([]float64, stride)
		copy(v, randVec(rng, units, scale))
		return v
	}
	for _, units := range []int{1, 2, 3, 4, 5, 14, 16, 17} {
		for _, n := range []int{1, 2, 3, 14, 28} {
			stride := (units + 3) &^ 3
			w, dw := make([]float64, n*stride), make([]float64, n*stride)
			for k := 0; k < n; k++ {
				copy(w[k*stride:][:units], randVec(rng, units, 1))
				copy(dw[k*stride:][:units], randVec(rng, units, 0.1))
			}
			b, db := padded(units, stride, 1), padded(units, stride, 0.1)
			s := make([]float64, stride)
			want := [][]float64{slices.Clone(w), slices.Clone(dw), slices.Clone(b), slices.Clone(db), slices.Clone(s)}
			for it := 0; it < 5; it++ {
				in, next := randVec(rng, n, 2), randVec(rng, n, 2)
				d := padded(units, stride, 1)
				stepAsm(w, dw, in, next, d, b, db, s, 0.3, 0.2)
				stepGo(want[0], want[1], in, next, d, want[2], want[3], want[4], 0.3, 0.2)
				for i, got := range [][]float64{w, dw, b, db, s} {
					requireSameBits(t, fmt.Sprintf("step units=%d n=%d step %d", units, n, it),
						[]string{"w", "dw", "b", "db", "s"}[i], got, want[i])
				}
			}
		}
	}
}

// TestDistanceLanesMatchGo pins the assembly distances to distancesGo
// bit for bit, and distancesGo to the scalar chain sqrt(Σ_j (w_j·d)·d)
// of each pair. Pair counts nb(nb-1)/2 of 1, 3, 6, 10 and 378 leave
// partial last groups and run both the four-group and one-group loops.
func TestDistanceLanesMatchGo(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, nb := range []int{2, 3, 4, 5, 28} {
		for _, dim := range []int{1, 3, 47} {
			np := nb * (nb - 1) / 2
			slots := 4 * PairGroups(np)
			diff := make([]float64, slots*dim)
			pairs := make([][]float64, np)
			for p := range pairs {
				pairs[p] = randVec(rng, dim, 4)
				for j, v := range pairs[p] {
					diff[(p/4)*4*dim+j*4+p%4] = v
				}
			}
			w := randVec(rng, dim, 2)
			for j := range w {
				w[j] = math.Abs(w[j])
			}
			want := make([]float64, slots)
			distancesGo(diff, w, want)
			ctx := fmt.Sprintf("distances nb=%d dim=%d", nb, dim)
			for p, d := range pairs {
				s := 0.0
				for j, x := range d {
					s += w[j] * x * x
				}
				requireSameBits(t, ctx, "Go lanes vs chain", want[p:p+1], []float64{math.Sqrt(s)})
			}
			if hasAVX2FMA {
				got := make([]float64, slots)
				distancesAVX2(diff, w, got)
				requireSameBits(t, ctx, "out", got, want)
			}
		}
	}
}

// TestRanksLanesMatchGo pins the assembly ranks to ranksGo bit for bit,
// and ranksGo to a sort: in each row the non-NaN entries, sorted
// stably by value, sit at their ranks, and every NaN entry ranks n−1.
// The symmetric matrices hold ties (values drawn from a few levels),
// ±0, +Inf and NaN cells besides the NaN diagonal, and n covers one to
// eight lane groups.
func TestRanksLanesMatchGo(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	levels := []float64{0, math.Copysign(0, -1), 0.5, 1, 1, 2.25, math.Inf(1), math.NaN()}
	for _, n := range []int{4, 8, 12, 28, 32} {
		for _, spread := range []int{2, 4, len(levels), 0} {
			d := make([]float64, n*n)
			for i := 0; i < n; i++ {
				d[i*n+i] = math.NaN()
				for j := i + 1; j < n; j++ {
					v := rng.Float64()
					if spread > 0 {
						v = levels[rng.Intn(spread)]
					}
					d[i*n+j], d[j*n+i] = v, v
				}
			}
			want := make([]int64, n*n)
			ranksGo(d, n, want)
			ctx := fmt.Sprintf("ranks n=%d spread=%d", n, spread)
			for b := 0; b < n; b++ {
				row, ranks := d[b*n:][:n], want[b*n:][:n]
				var order []int
				for i, v := range row {
					if v == v {
						order = append(order, i)
					} else if ranks[i] != int64(n-1) {
						t.Fatalf("%s: NaN entry (%d, %d) ranks %d, want %d", ctx, b, i, ranks[i], n-1)
					}
				}
				slices.SortStableFunc(order, func(i, j int) int {
					if row[i] < row[j] {
						return -1
					}
					if row[i] > row[j] {
						return 1
					}
					return 0
				})
				for q, i := range order {
					if ranks[i] != int64(q) {
						t.Fatalf("%s: row %d entry %d ranks %d, sorts to %d", ctx, b, i, ranks[i], q)
					}
				}
			}
			if hasAVX2FMA {
				got := make([]int64, n*n)
				ranksAVX2(d, n, got)
				if !slices.Equal(got, want) {
					t.Fatalf("%s: assembly ranks %v, Go %v", ctx, got, want)
				}
			}
		}
	}
}

// TestVoteErrorsLanesMatchGo pins the assembly vote to voteErrorsGo bit
// for bit, and voteErrorsGo to GA-kNN's vote written out per query and
// target. The shapes cover one and several lane groups of neighbours
// and of targets, partial last groups, a neighbour at distance 0 and
// +Inf distances, whose weight is 0.
func TestVoteErrorsLanesMatchGo(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	const eps = 1e-6
	for _, k := range []int{1, 2, 3, 4, 5, 10, 27} {
		for _, nt := range []int{1, 2, 3, 4, 5, 8, 39} {
			nb, n, stride := k+3, (k+4)&^3, (nt+3)&^3
			near, order := make([]float64, nb*n), make([]int64, nb*n)
			s := make([]float64, nb*stride)
			for b := 0; b < nb; b++ {
				for t := 0; t < nt; t++ {
					s[b*stride+t] = 0.5 + 10*rng.Float64()
				}
				for r := 0; r < k; r++ {
					order[b*n+r] = int64(rng.Intn(nb))
					near[b*n+r] = 3 * rng.Float64()
				}
			}
			near[0], near[n+k-1] = 0, math.Inf(1)
			w := make([]float64, n)
			want := voteErrorsGo(near, order, s, w, n, nb, k, stride, nt, eps)
			ctx := fmt.Sprintf("vote k=%d nt=%d", k, nt)
			ref := 0.0
			for b := 0; b < nb; b++ {
				for t := 0; t < nt; t++ {
					num, den := 0.0, 0.0
					for r := 0; r < k; r++ {
						d := near[b*n+r]
						wr := 1 / (d*d + eps)
						num += wr * s[int(order[b*n+r])*stride+t]
						den += wr
					}
					a := s[b*stride+t]
					ref += math.Abs(num/den-a) / a
				}
			}
			requireSameBits(t, ctx, "Go lanes vs per-target vote", []float64{want}, []float64{ref})
			if hasAVX2FMA {
				got, ok := voteErrorsAVX2(near, order, s, w, n, nb, k, stride, nt, eps, nb)
				if !ok {
					t.Fatalf("%s: assembly rejected in-range neighbours", ctx)
				}
				requireSameBits(t, ctx, "total", []float64{got}, []float64{want})
			}
		}
	}
}

// TestVoteErrorsRejectsOutsideNeighbour checks that a neighbour index
// outside the score table panics instead of reading past it.
func TestVoteErrorsRejectsOutsideNeighbour(t *testing.T) {
	for _, i := range []int64{2, -1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("neighbour %d of 2 benchmarks: no panic", i)
				}
			}()
			near, order := []float64{1, 1, 1, 1, 1, 1, 1, 1}, []int64{0, 1, 0, 0, i, 0, 0, 0}
			VoteErrors(near, order, 4, 1, make([]float64, 8), 4, 3, 1e-6, make([]float64, 4))
		}()
	}
}
