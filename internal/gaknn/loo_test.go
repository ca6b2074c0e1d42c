package gaknn

import (
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/knn"
	"repro/internal/synth"
	"repro/internal/transpose"
)

// refNearest is the sort-based selection looError and Fit replaced: the
// k nearest benchmarks to query, excluding index skip (-1 keeps all),
// by sorting every candidate under (Distance, Index) and truncating.
func refNearest(k int, w []float64, zBench [][]float64, query []float64, skip int) []knn.Neighbour {
	var all []knn.Neighbour
	for i, v := range zBench {
		if i == skip {
			continue
		}
		s := 0.0
		for j := range query {
			d := query[j] - v[j]
			s += w[j] * d * d
		}
		all = append(all, knn.Neighbour{Index: i, Distance: math.Sqrt(s)})
	}
	slices.SortStableFunc(all, func(a, b knn.Neighbour) int {
		if a.Distance != b.Distance {
			if a.Distance < b.Distance {
				return -1
			}
			return 1
		}
		return a.Index - b.Index
	})
	return all[:min(k, len(all))]
}

// refWeightedMean is the per-target vote looError replaced.
func refWeightedMean(nbrs []knn.Neighbour, value func(benchIdx int) float64) float64 {
	const eps = 1e-6
	var num, den float64
	for _, n := range nbrs {
		w := 1 / (n.Distance*n.Distance + eps)
		num += w * value(n.Index)
		den += w
	}
	return num / den
}

// refLooError is the fitness looError replaced: one sorted query per
// benchmark, vote weights recomputed per target machine.
func refLooError(k int, w []float64, zBench [][]float64, scores rowMajor) float64 {
	total, count := 0.0, 0
	for b := range zBench {
		nbrs := refNearest(k, w, zBench, zBench[b], b)
		for t, actual := range scores.row(b) {
			pred := refWeightedMean(nbrs, func(nb int) float64 { return scores.at(nb, t) })
			total += math.Abs(pred-actual) / actual
			count++
		}
	}
	if count == 0 {
		return math.Inf(1)
	}
	return total / float64(count)
}

// looInput is what Fit hands the fitness function for one fold.
type looInput struct {
	name   string
	zBench [][]float64
	zApp   []float64
	scores rowMajor
}

// foldInput prepares a fold the way Fit does: z-normalised benchmark and
// application characteristics and the row-major target score table.
func foldInput(t testing.TB, name string, f transpose.Fold) looInput {
	t.Helper()
	bench := f.Tgt.Benchmarks
	vectors := make([][]float64, len(bench))
	for i, b := range bench {
		vectors[i] = f.Chars[b]
	}
	zBench, zApp := normalise(vectors, f.Chars[f.AppName])
	nt := f.Tgt.NumMachines()
	scores := rowMajor{data: make([]float64, len(bench)*nt), cols: nt}
	for b := range bench {
		f.Tgt.CopyRowInto(b, scores.row(b))
	}
	return looInput{name: name, zBench: zBench, zApp: zApp, scores: scores}
}

func clusteredInput(t *testing.T, seed int64, app string, chars func(map[string][]float64)) looInput {
	t.Helper()
	pred, tgt, c := clusteredWorld(t, seed)
	if chars != nil {
		chars(c)
	}
	fold, _, err := transpose.NewFold(pred, tgt, app, c)
	if err != nil {
		t.Fatal(err)
	}
	return foldInput(t, "clustered/"+app, fold)
}

// servedInput is a fold of the dataset dtrankd serves: 28 training
// benchmarks with their measured characteristics, one family's targets.
func servedInput(t testing.TB, family, app string) looInput {
	t.Helper()
	data, err := synth.Generate(synth.DefaultOptions(1))
	if err != nil {
		t.Fatal(err)
	}
	tgt, pred, err := data.Matrix.FamilySplit(family)
	if err != nil {
		t.Fatal(err)
	}
	fold, _, err := transpose.NewFold(pred, tgt, app, data.Characteristics)
	if err != nil {
		t.Fatal(err)
	}
	return foldInput(t, "served/"+family+"/"+app, fold)
}

func randomGenome(rng *rand.Rand, dim int) []float64 {
	w := make([]float64, dim)
	for j := range w {
		w[j] = rng.Float64()
		if rng.Intn(5) == 0 { // zeroed dimensions tie more pairs
			w[j] = 0
		}
	}
	return w
}

func assertLooMatchesReference(t *testing.T, in looInput, k int, w []float64) {
	t.Helper()
	p := &Predictor{K: k}
	got := p.looError(w, in.zBench, in.scores)
	want := refLooError(k, w, in.zBench, in.scores)
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("%s k=%d w=%v: looError %v (%#x), sort-based reference %v (%#x)",
			in.name, k, w, got, math.Float64bits(got), want, math.Float64bits(want))
	}
}

// TestLooErrorMatchesReference pins the symmetric-matrix, bounded-top-k
// fitness to the sort-based implementation it replaced, bit for bit,
// over random genomes on the clustered test world and on served folds.
func TestLooErrorMatchesReference(t *testing.T) {
	inputs := []looInput{
		clusteredInput(t, 1, "a0", nil),
		clusteredInput(t, 2, "b3", nil),
		servedInput(t, "Intel Xeon", "gcc"),
		servedInput(t, "AMD Phenom", "mcf"),
	}
	rng := rand.New(rand.NewSource(7))
	for _, in := range inputs {
		nb, dim := len(in.zBench), len(in.zApp)
		for _, k := range []int{1, 3, 10, nb - 1, nb + 4} {
			for g := 0; g < 60; g++ {
				assertLooMatchesReference(t, in, k, randomGenome(rng, dim))
			}
		}
	}
}

// TestLooErrorMatchesReferenceOnTies covers the inputs where neighbour
// order rests on the index tie-break: duplicate characteristic vectors
// (equal distances) and all-zero weights (every distance 0), at k = 1
// and at the clamp k >= nb−1.
func TestLooErrorMatchesReferenceOnTies(t *testing.T) {
	twins := clusteredInput(t, 3, "a0", func(c map[string][]float64) {
		c["a2"] = append([]float64(nil), c["a1"]...)
		c["b1"] = append([]float64(nil), c["b0"]...)
		c["b2"] = append([]float64(nil), c["b0"]...)
	})
	served := servedInput(t, "Intel Xeon", "gcc")
	rng := rand.New(rand.NewSource(8))
	for _, in := range []looInput{twins, served} {
		nb, dim := len(in.zBench), len(in.zApp)
		for _, k := range []int{1, 2, nb - 2, nb - 1, nb, 100} {
			assertLooMatchesReference(t, in, k, make([]float64, dim))
			for g := 0; g < 20; g++ {
				assertLooMatchesReference(t, in, k, randomGenome(rng, dim))
			}
		}
	}
}

// TestFitNeighboursMatchReference checks the fitted model's neighbours
// against the sort-based selection under the learned weights.
func TestFitNeighboursMatchReference(t *testing.T) {
	pred, tgt, chars := clusteredWorld(t, 6)
	chars["a3"] = append([]float64(nil), chars["a2"]...) // a tie
	for _, k := range []int{1, 3, 7, 20} {
		fold, _, err := transpose.NewFold(pred, tgt, "a0", chars)
		if err != nil {
			t.Fatal(err)
		}
		m, err := fastNew(6, k).Fit(fold)
		if err != nil {
			t.Fatal(err)
		}
		in := foldInput(t, "fit", fold)
		got := m.(*Model).Neighbours
		want := refNearest(k, m.(*Model).Weights, in.zBench, in.zApp, -1)
		if !slices.Equal(got, want) {
			t.Fatalf("k=%d: fitted neighbours %+v, sort-based %+v", k, got, want)
		}
		if cap(got) != len(got) {
			t.Fatalf("k=%d: model pins %d neighbour slots for %d neighbours", k, cap(got), len(got))
		}
		dst := make([]float64, m.NumTargets())
		if err := m.PredictTargets(dst); err != nil {
			t.Fatal(err)
		}
		for tt, v := range dst {
			ref := refWeightedMean(want, func(b int) float64 { return in.scores.at(b, tt) })
			if math.Float64bits(v) != math.Float64bits(ref) {
				t.Fatalf("k=%d target %d: predicted %v, per-target reference %v", k, tt, v, ref)
			}
		}
	}
}

// BenchmarkLoo times one fitness evaluation, the function a served
// GA-kNN fit calls about a thousand times, on the AMD Phenom/mcf served
// fold (28 benchmarks, 3 targets) at k = 10 with a warm scratch pool.
func BenchmarkLoo(b *testing.B) {
	in := servedInput(b, "AMD Phenom", "mcf")
	w := randomGenome(rand.New(rand.NewSource(1)), len(in.zApp))
	p := &Predictor{K: 10}
	var pairs pairTable
	pairs.fill(in.zBench, in.scores)
	p.loo(w, &pairs)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.loo(w, &pairs)
	}
}

// FuzzLooLanes checks the fitness, the lane kernels wherever the gate is
// on, against refLooError bit for bit. The fuzzer picks the shape (nb
// from 2 to 33, so most are not multiples of four, and up to 8 targets:
// one or two lane groups), how many benchmarks copy benchmark 0's
// characteristics (ties), k among 1, 2, nb−2, nb−1, nb and nb+4, and
// the genome's bits. A gene is the absolute value of its eight bytes
// read as a float64, or 0 where that is not finite: huge genes give
// +Inf distances, which tie. With nanRow set, one benchmark's
// characteristics hold a NaN, so its row and column of distances are
// NaN; every implementation then scores NaN, and only that is compared.
// Seeds in testdata/fuzz/FuzzLooLanes cover each k and the NaN row.
func FuzzLooLanes(f *testing.F) {
	f.Fuzz(func(t *testing.T, nbSel, dimSel, ntSel, dups, kSel uint8, nanRow bool, seed int64, genome []byte) {
		nb, dim, nt := 2+int(nbSel)%32, 1+int(dimSel)%6, 1+int(ntSel)%8
		rng := rand.New(rand.NewSource(seed))
		zBench := make([][]float64, nb)
		for b := range zBench {
			zBench[b] = make([]float64, dim)
			for j := range zBench[b] {
				zBench[b][j] = rng.NormFloat64()
			}
		}
		for b := 1; b <= int(dups)%nb; b++ {
			copy(zBench[b], zBench[0])
		}
		if nanRow {
			zBench[int(dups)%nb][dim-1] = math.NaN()
		}
		scores := rowMajor{data: make([]float64, nb*nt), cols: nt}
		for i := range scores.data {
			scores.data[i] = 0.5 + 10*rng.Float64()
		}
		w := make([]float64, dim)
		for j := range w {
			if len(genome) >= 8*(j+1) {
				v := math.Abs(math.Float64frombits(binary.LittleEndian.Uint64(genome[8*j:])))
				if v <= math.MaxFloat64 {
					w[j] = v
				}
			}
		}
		k := max(1, []int{1, 2, nb - 2, nb - 1, nb, nb + 4}[int(kSel)%6])
		p := &Predictor{K: k}
		got := p.looError(w, zBench, scores)
		want := refLooError(k, w, zBench, scores)
		if nanRow {
			if !math.IsNaN(got) || !math.IsNaN(want) {
				t.Fatalf("nb=%d k=%d w=%v with a NaN row: fitness %v, reference %v, want both NaN", nb, k, w, got, want)
			}
			return
		}
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("nb=%d nt=%d k=%d w=%v: fitness %v (%#x), reference %v (%#x)",
				nb, nt, k, w, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	})
}
