// Package gaknn reimplements the prior-art baseline the paper compares
// against: performance prediction based on inherent program similarity
// (Hoste et al., PACT 2006), referred to as GA-kNN.
//
// The method works in workload space rather than machine space: a genetic
// algorithm learns per-dimension weights of a distance over
// microarchitecture-independent program characteristics, such that
// benchmarks close under that distance have similar performance. The
// application of interest is then predicted, on every target machine, as
// the similarity-weighted mean score of its k = 10 nearest benchmarks on
// that machine.
//
// Note the asymmetry the paper highlights in §6.3: GA-kNN uses only the
// target machines' published scores and the benchmark characterisation — it
// needs no runs on predictive machines, but it also cannot extrapolate
// outlier applications that resemble no benchmark.
package gaknn

import (
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"math"

	"repro/internal/engine"
	"repro/internal/ga"
	"repro/internal/knn"
	"repro/internal/lanes"
	"repro/internal/stats"
	"repro/internal/transpose"
)

// Predictor implements transpose.Predictor and transpose.Fitter with the
// GA-kNN method.
type Predictor struct {
	// K is the number of nearest-neighbour benchmarks (the paper uses 10).
	K int
	// GA configures the weight-learning run; Genes is filled in from the
	// characteristic dimensionality at prediction time.
	GA ga.Config
}

// New returns a GA-kNN predictor with the paper's k = 10 and a moderate,
// seeded GA budget. Fitness evaluation fans out on the engine's default
// worker pool; the leave-one-out error is a pure function of the genome,
// so results are identical to a serial run.
func New(seed int64) *Predictor {
	return &Predictor{
		K: 10,
		GA: ga.Config{
			Pop:         30,
			Generations: 40,
			Patience:    10,
			Seed:        seed,
			Parallel:    true,
		},
	}
}

// Name implements transpose.Predictor.
func (p *Predictor) Name() string { return "GA-kNN" }

// Model is the trained GA-kNN artifact: the learned distance weights and
// the application's nearest benchmarks under them, bound to the fold's
// target machines.
type Model struct {
	// Weights are the GA-learned per-dimension distance weights.
	Weights []float64
	// Neighbours are the application's k nearest benchmarks (benchmark
	// index into the fold's target matrix plus weighted distance).
	Neighbours []knn.Neighbour

	tgt rowMajor
	nt  int
}

// NumTargets implements transpose.Model.
func (m *Model) NumTargets() int { return m.nt }

// PredictTargets implements transpose.Model: the application's score on
// every target machine is the similarity-weighted mean of its nearest
// benchmarks' scores on that machine.
func (m *Model) PredictTargets(dst []float64) error {
	if len(dst) != m.nt {
		return fmt.Errorf("gaknn: model predicts %d targets, got %d slots", m.nt, len(dst))
	}
	vote(dst, m.Neighbours, make([]float64, len(m.Neighbours)), m.tgt)
	return nil
}

// PredictApp implements transpose.Predictor as a thin adapter over Fit.
func (p *Predictor) PredictApp(f transpose.Fold) ([]float64, error) {
	return transpose.FitPredict(p, f)
}

// modelWire is the serialized form of a trained GA-kNN model: learned
// weights, the application's neighbours, and the dense target score table
// they vote over.
type modelWire struct {
	Weights    []float64
	Neighbours []knn.Neighbour
	Tgt        []float64
	Cols       int
	NT         int
}

// ModelKind implements transpose.BinaryModel.
func (m *Model) ModelKind() string { return "gaknn" }

// EncodePayload implements transpose.BinaryModel.
func (m *Model) EncodePayload(w io.Writer) error {
	return gob.NewEncoder(w).Encode(modelWire{
		Weights:    m.Weights,
		Neighbours: m.Neighbours,
		Tgt:        m.tgt.data,
		Cols:       m.tgt.cols,
		NT:         m.nt,
	})
}

func decodeModel(r io.Reader) (transpose.Model, error) {
	var w modelWire
	if err := gob.NewDecoder(r).Decode(&w); err != nil {
		return nil, err
	}
	if w.Cols < 1 || w.NT != w.Cols {
		return nil, fmt.Errorf("gaknn payload predicts %d targets over a %d-column table", w.NT, w.Cols)
	}
	if len(w.Tgt)%w.Cols != 0 {
		return nil, fmt.Errorf("gaknn payload has %d scores for a %d-column table", len(w.Tgt), w.Cols)
	}
	rows := len(w.Tgt) / w.Cols
	if len(w.Neighbours) == 0 || len(w.Neighbours) > rows {
		return nil, fmt.Errorf("gaknn payload has %d neighbours over %d benchmarks", len(w.Neighbours), rows)
	}
	for _, n := range w.Neighbours {
		if n.Index < 0 || n.Index >= rows {
			return nil, fmt.Errorf("gaknn payload neighbour %d outside %d benchmarks", n.Index, rows)
		}
		// A vote weight is 1/(d·d+ε): a non-finite denominator makes it 0,
		// and a vote of zero weights divides 0 by 0.
		if !(n.Distance >= 0) || math.IsInf(n.Distance*n.Distance+voteEps, 1) {
			return nil, fmt.Errorf("gaknn payload neighbour distance %v", n.Distance)
		}
	}
	for _, v := range w.Tgt {
		if !(v > 0 && v <= math.MaxFloat64) {
			return nil, fmt.Errorf("gaknn payload target score %v is not finite and positive", v)
		}
	}
	m := &Model{
		Weights:    w.Weights,
		Neighbours: w.Neighbours,
		tgt:        rowMajor{data: w.Tgt, cols: w.Cols},
		nt:         w.NT,
	}
	// Finite weights and scores can still overflow a numerator.
	pred := make([]float64, m.nt)
	if err := m.PredictTargets(pred); err != nil {
		return nil, err
	}
	for t, v := range pred {
		if math.IsInf(v, 0) || math.IsNaN(v) {
			return nil, fmt.Errorf("gaknn payload predicts %v on target %d", v, t)
		}
	}
	return m, nil
}

func init() {
	// The kind string must equal the CodecKind of this method's
	// descriptor in internal/method (the registry's drift test holds the
	// two together; method cannot be imported from here without a cycle).
	transpose.RegisterModelKind("gaknn", decodeModel)
}

// rowMajor is a flat row-major benchmarks × machines score table — the
// target half of the fold materialised once per fit, so the GA fitness
// loop streams it cache-friendly with no per-evaluation indirection.
type rowMajor struct {
	data []float64
	cols int
}

func (r rowMajor) at(b, t int) float64 { return r.data[b*r.cols+t] }
func (r rowMajor) row(b int) []float64 { return r.data[b*r.cols : (b+1)*r.cols] }

// looScratch is the per-worker buffer set of one GA fitness evaluation.
// Fitness evaluations run concurrently across genomes; each borrows one
// scratch, fills it from its inputs, and returns it.
type looScratch struct {
	// buf holds the ls×ls distance matrix, then the ls×ls matrix of each
	// benchmark's candidate distances by rank, then the vote weights,
	// then the pair table's lane slots of distances.
	buf []float64
	// ranks is the ls×ls rank matrix; order holds each benchmark's
	// candidates by rank, ls to a row.
	ranks, order []int64
}

var looScratchPool = engine.NewScratch(func() *looScratch { return &looScratch{} })

// Fit implements transpose.Fitter: it learns the distance weights on the
// fold and returns the trained model.
func (p *Predictor) Fit(f transpose.Fold) (transpose.Model, error) {
	if err := f.Validate(); err != nil {
		return nil, err
	}
	if p.K < 1 {
		return nil, fmt.Errorf("gaknn: k = %d must be >= 1", p.K)
	}
	if f.Chars == nil {
		return nil, errors.New("gaknn: fold carries no workload characteristics")
	}
	benchNames := f.Tgt.Benchmarks
	nb := len(benchNames)
	if nb < 2 {
		return nil, fmt.Errorf("gaknn: need >= 2 benchmarks, have %d", nb)
	}
	appVec, ok := f.Chars[f.AppName]
	if !ok {
		return nil, fmt.Errorf("gaknn: no characteristics for application %q", f.AppName)
	}
	dim := len(appVec)
	vectors := make([][]float64, nb)
	for i, name := range benchNames {
		v, ok := f.Chars[name]
		if !ok {
			return nil, fmt.Errorf("gaknn: no characteristics for benchmark %q", name)
		}
		if len(v) != dim {
			return nil, fmt.Errorf("gaknn: benchmark %q has %d characteristic dims, application has %d", name, len(v), dim)
		}
		vectors[i] = v
	}

	// Z-normalise per dimension over benchmarks + application so that the
	// learned weights are scale-free.
	zBench, zApp := normalise(vectors, appVec)

	// Materialise the target scores once: the fitness loop reads every
	// cell per evaluation, so it must not pay view indirection there.
	nt := f.Tgt.NumMachines()
	scores := rowMajor{data: make([]float64, nb*nt), cols: nt}
	for b := 0; b < nb; b++ {
		f.Tgt.CopyRowInto(b, scores.row(b))
	}

	// Learn distance weights: minimise the leave-one-out kNN prediction
	// error over the training benchmarks on the target machines. The
	// pair differences do not depend on the weights, so every fitness
	// evaluation of the fit shares one table.
	var pairs pairTable
	pairs.fill(zBench, scores)
	cfg := p.GA
	cfg.Genes = dim
	res, err := ga.Run(func(w []float64) float64 {
		return p.loo(w, &pairs)
	}, cfg)
	if err != nil {
		return nil, fmt.Errorf("gaknn: weight learning: %w", err)
	}

	return &Model{
		Weights:    res.Best,
		Neighbours: nearest(res.Best, zBench, zApp, min(p.K, nb)),
		tgt:        scores,
		nt:         nt,
	}, nil
}

// loo is the GA fitness: mean relative error of leave-one-out kNN
// prediction over the training benchmarks and all target machines.
//
// The weighted distances fill an ls×ls matrix, ls = nb rounded up to a
// multiple of four, with NaN on the diagonal and in the padding. Row b
// holds b's distance to every candidate. The matrix is symmetric, so
// column b equals row b, and lanes.Ranks ranks b's candidates under
// (Distance, Index), leaving b itself out. Writing each candidate and
// its distance into the slot of its rank lists b's neighbours in the
// order knn.Insert keeps them. A NaN distance leaves its row without
// that order, so the fitness is then NaN; Fit never meets one, as its
// z-scores are finite and its genes non-negative. lanes.VoteErrors runs
// vote on every benchmark's first k slots and sums the relative errors
// in (benchmark, target) order. Buffers come from a per-worker scratch
// pool, so one evaluation allocates nothing once the pool is warm.
func (p *Predictor) loo(w []float64, pairs *pairTable) float64 {
	s := looScratchPool.Get()
	defer looScratchPool.Put(s)
	nb, nt := pairs.nb, pairs.nt
	if nt == 0 {
		return math.Inf(1)
	}
	ls := laneStride(nb)
	k := min(p.K, nb-1)
	s.buf = engine.GrowFloats(s.buf, 2*ls*ls+ls+pairs.slots())
	dist, near := s.buf[:ls*ls], s.buf[ls*ls:][:ls*ls]
	weights, out := s.buf[2*ls*ls:][:ls], s.buf[2*ls*ls+ls:]
	if cap(s.ranks) < ls*ls {
		s.ranks, s.order = make([]int64, ls*ls), make([]int64, ls*ls)
	}
	ranks, order := s.ranks[:ls*ls], s.order[:ls*ls]
	if pairs.distances(w, dist, out) {
		return math.NaN()
	}
	lanes.Ranks(dist, ls, ranks)
	for b := 0; b < nb; b++ {
		row, nd, ord := dist[b*ls:][:nb], near[b*ls:][:ls], order[b*ls:][:ls]
		// b's own cell is NaN and ranks ls−1, a slot no neighbour reaches.
		for i, r := range ranks[b*ls:][:nb] {
			ord[r], nd[r] = int64(i), row[i]
		}
	}
	total := lanes.VoteErrors(near[:nb*ls], order[:nb*ls], ls, k, pairs.scores, pairs.stride, nt, voteEps, weights)
	return total / float64(nb*nt)
}

// laneStride is n rounded up to a multiple of four, the lane group.
func laneStride(n int) int { return (n + 3) &^ 3 }

// pairTable holds what every fitness evaluation of one fit shares. diff
// holds the characteristic differences zBench[a][j] − zBench[b][j] of
// every benchmark pair a < b, pairs in (a, b) row-major order, in the
// lane-major form lanes.Distances reads: groups of four pairs, j-major
// within a group, the last group zero-padded. scores is the nb × nt
// target score table with its rows zero-padded to stride columns, a
// multiple of four, the form lanes.VoteErrors reads.
type pairTable struct {
	nb, dim    int
	diff       []float64
	scores     []float64
	stride, nt int
}

// slots is the number of pair slots, four per lane group.
func (t *pairTable) slots() int { return 4 * lanes.PairGroups(t.nb*(t.nb-1)/2) }

// fill rebuilds t from zBench and scores, reusing its storage.
func (t *pairTable) fill(zBench [][]float64, scores rowMajor) {
	t.nb, t.dim = len(zBench), len(zBench[0])
	t.nt, t.stride = scores.cols, laneStride(scores.cols)
	t.scores = engine.GrowFloats(t.scores, t.nb*t.stride)
	clear(t.scores)
	for b := 0; b < t.nb; b++ {
		copy(t.scores[b*t.stride:], scores.row(b))
	}
	t.diff = engine.GrowFloats(t.diff, t.slots()*t.dim)
	clear(t.diff)
	p := 0
	for a, za := range zBench {
		for _, zb := range zBench[a+1:] {
			grp := t.diff[(p/4)*4*t.dim:]
			for j, v := range zb[:t.dim] {
				grp[j*4+p%4] = za[j] - v
			}
			p++
		}
	}
}

// distances writes the weighted distance of every pair into dist, an
// ls×ls row-major matrix (ls = laneStride(nb)), at both (a, b) and
// (b, a), and NaN on the diagonal and in the padding rows and columns;
// out is scratch of t.slots() values. It reports whether any distance is
// NaN. Each pair's sum runs in ascending j from +0 with terms (w_j·d)·d,
// the chain distance computes, so the values are bit-identical to it.
func (t *pairTable) distances(w, dist, out []float64) (hasNaN bool) {
	nb, ls := t.nb, laneStride(t.nb)
	lanes.Distances(t.diff, w[:t.dim], out)
	nan := math.NaN()
	p := 0
	for a := 0; a < nb; a++ {
		dist[a*ls+a] = nan
		for b := a + 1; b < nb; b++ {
			v := out[p]
			dist[a*ls+b], dist[b*ls+a] = v, v
			if v != v {
				hasNaN = true
			}
			p++
		}
		for c := nb; c < ls; c++ {
			dist[a*ls+c] = nan
		}
	}
	for i := range dist[nb*ls:] {
		dist[nb*ls+i] = nan
	}
	return hasNaN
}

// nearest returns the k nearest benchmarks to query under the weights w,
// closest first, in a slice of exactly k entries.
func nearest(w []float64, zBench [][]float64, query []float64, k int) []knn.Neighbour {
	nbrs := make([]knn.Neighbour, 0, k)
	for i, v := range zBench {
		nbrs = knn.Insert(nbrs, k, knn.Neighbour{Index: i, Distance: distance(w, query, v)})
	}
	return nbrs
}

// distance is the weighted Euclidean distance sqrt(Σ wⱼ (aⱼ−bⱼ)²) whose
// weights the GA learns.
func distance(w, a, b []float64) float64 {
	s := 0.0
	for j := range a {
		d := a[j] - b[j]
		s += w[j] * d * d
	}
	return math.Sqrt(s)
}

// voteEps keeps a vote weight finite at distance 0.
const voteEps = 1e-6

// vote predicts every target machine as the mean of the neighbours'
// scores on it, weighted by inverse squared distance (the standard
// distance weighting of kNN regression, cf. WEKA's IBk -I): nearby
// benchmarks dominate the vote. It serves a fitted model's
// predictions; the fitness runs the same operations on its own layout
// in lanes.VoteErrors, so a model predicts what its fitness scored.
// weights is scratch of len(nbrs); the weights and their sum are
// computed once for all targets. Each target's numerator is accumulated
// in dst neighbour by neighbour, the same addition chain as a
// per-target loop, while streaming score rows.
func vote(dst []float64, nbrs []knn.Neighbour, weights []float64, scores rowMajor) {
	den := 0.0
	for i, n := range nbrs {
		weights[i] = 1 / (n.Distance*n.Distance + voteEps)
		den += weights[i]
	}
	clear(dst)
	for i, n := range nbrs {
		w, row := weights[i], scores.row(n.Index)[:len(dst)]
		for t, v := range row {
			dst[t] += w * v
		}
	}
	for t := range dst {
		dst[t] /= den
	}
}

// normalise z-scores each dimension over the benchmark vectors plus the
// application vector. Zero-variance dimensions map to zero.
func normalise(bench [][]float64, app []float64) (zBench [][]float64, zApp []float64) {
	dim := len(app)
	all := make([][]float64, 0, len(bench)+1)
	all = append(all, bench...)
	all = append(all, app)
	mean := make([]float64, dim)
	sd := make([]float64, dim)
	for j := 0; j < dim; j++ {
		col := make([]float64, len(all))
		for i, v := range all {
			col[i] = v[j]
		}
		mean[j] = stats.Mean(col)
		sd[j] = stats.StdDev(col)
	}
	z := func(v []float64) []float64 {
		out := make([]float64, dim)
		for j, x := range v {
			if sd[j] > 0 {
				out[j] = (x - mean[j]) / sd[j]
			}
		}
		return out
	}
	zBench = make([][]float64, len(bench))
	for i, v := range bench {
		zBench[i] = z(v)
	}
	return zBench, z(app)
}
