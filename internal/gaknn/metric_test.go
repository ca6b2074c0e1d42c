package gaknn

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/knn"
)

func TestDistances(t *testing.T) {
	a := []float64{0, 0}
	b := []float64{3, 4}
	if got := distance([]float64{1, 0}, a, b); got != 3 {
		t.Fatalf("distance = %v, want 3 (second dim zeroed)", got)
	}
	if got := distance([]float64{1, 1}, a, b); got != 5 {
		t.Fatalf("unit-weight distance = %v, want 5", got)
	}
	if got := distance([]float64{4, 0}, a, b); got != 6 {
		t.Fatalf("distance = %v, want 6 (weight scales the squared term)", got)
	}
}

// Property: the weighted distance is bitwise symmetric (looError mirrors
// each pair's distance across the matrix diagonal), zero on the
// diagonal, and satisfies the triangle inequality.
func TestDistanceAxiomsProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	f := func(seed uint8) bool {
		dim := int(seed%12) + 1
		v := func() []float64 {
			x := make([]float64, dim)
			for i := range x {
				x[i] = rng.NormFloat64()
			}
			return x
		}
		a, b, c := v(), v(), v()
		w := randomGenome(rng, dim)
		if math.Float64bits(distance(w, a, b)) != math.Float64bits(distance(w, b, a)) {
			return false
		}
		if distance(w, a, c) > distance(w, a, b)+distance(w, b, c)+1e-9 {
			return false
		}
		return distance(w, a, a) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestWeightedMetricChangesNeighbours(t *testing.T) {
	// Benchmark 0 is near the query in dim 0, benchmark 1 in dim 1; the
	// weights decide which is nearest.
	bench := [][]float64{{0, 5}, {5, 0}}
	q := []float64{0, 0}
	if got := nearest([]float64{1, 0}, bench, q, 1); got[0].Index != 0 {
		t.Fatalf("weight dim0: nearest %+v, want benchmark 0", got)
	}
	if got := nearest([]float64{0, 1}, bench, q, 1); got[0].Index != 1 {
		t.Fatalf("weight dim1: nearest %+v, want benchmark 1", got)
	}
}

func TestPredictInverseDistance(t *testing.T) {
	scores := rowMajor{data: []float64{0, 10}, cols: 1}
	nbrs := []knn.Neighbour{{Index: 0, Distance: 0.5}, {Index: 1, Distance: 1.5}}
	got := make([]float64, 1)
	vote(got, nbrs, make([]float64, 2), scores)
	// Weights 1/0.25 = 4 and 1/2.25 = 4/9: (4·0 + 4/9·10) / (4 + 4/9) = 1.
	if math.Abs(got[0]-1) > 1e-5 {
		t.Fatalf("vote = %v, want ≈ 1", got[0])
	}
	// An exact hit dominates: the prediction is (almost) its score.
	nbrs[1].Distance = 0
	vote(got, nbrs, make([]float64, 2), scores)
	if math.Abs(got[0]-10) > 1e-4 {
		t.Fatalf("exact-hit vote = %v, want ≈ 10", got[0])
	}
}

// Property: every vote lies within [min, max] of the neighbours' scores
// on that machine.
func TestPredictionWithinTargetRangeProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	f := func(n8, k8, nt8 uint8) bool {
		n := int(n8%20) + 1
		k := min(int(k8%5)+1, n)
		nt := int(nt8%4) + 1
		scores := rowMajor{data: make([]float64, n*nt), cols: nt}
		for i := range scores.data {
			scores.data[i] = rng.NormFloat64()
		}
		nbrs := make([]knn.Neighbour, k)
		for i, idx := range rng.Perm(n)[:k] {
			nbrs[i] = knn.Neighbour{Index: idx, Distance: rng.ExpFloat64()}
		}
		got := make([]float64, nt)
		vote(got, nbrs, make([]float64, k), scores)
		for tt, v := range got {
			lo, hi := math.Inf(1), math.Inf(-1)
			for _, nb := range nbrs {
				lo, hi = math.Min(lo, scores.at(nb.Index, tt)), math.Max(hi, scores.at(nb.Index, tt))
			}
			if v < lo-1e-9 || v > hi+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
