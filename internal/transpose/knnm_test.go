package transpose

import (
	"bytes"
	"math"
	"slices"
	"testing"

	"repro/internal/knn"
)

func knnmFold(t *testing.T) Fold {
	t.Helper()
	pred, tgt := syntheticPair(t, 9, 7, 5, 0.02, 11)
	fold, _, err := NewFold(pred, tgt, "benchD", nil)
	if err != nil {
		t.Fatal(err)
	}
	return fold
}

func TestKNNMName(t *testing.T) {
	if NewKNNM().Name() != "kNN^M" {
		t.Fatalf("name %q", NewKNNM().Name())
	}
	if (&KNNMModel{}).ModelKind() != "knnm" {
		t.Fatal("kind drifted")
	}
}

// TestKNNMNeighbourStructure pins the fitted artifact's shape: K
// neighbours per target (clamped to the predictive-set size), closest
// first, with finite distances.
func TestKNNMNeighbourStructure(t *testing.T) {
	fold := knnmFold(t)
	m, err := NewKNNM().Fit(fold)
	if err != nil {
		t.Fatal(err)
	}
	km := m.(*KNNMModel)
	if km.NumTargets() != fold.Tgt.NumMachines() {
		t.Fatalf("%d targets", km.NumTargets())
	}
	wantK := DefaultKNNMK
	if np := fold.Pred.NumMachines(); np < wantK {
		wantK = np
	}
	for t2, nbrs := range km.Neighbours {
		if len(nbrs) != wantK {
			t.Fatalf("target %d has %d neighbours, want %d", t2, len(nbrs), wantK)
		}
		for i := 1; i < len(nbrs); i++ {
			if nbrs[i].Distance < nbrs[i-1].Distance {
				t.Fatalf("target %d neighbours out of order", t2)
			}
		}
		for _, n := range nbrs {
			if math.IsNaN(n.Distance) || n.Distance < 0 {
				t.Fatalf("distance %v", n.Distance)
			}
		}
	}
}

// refKNNMNeighbours is the selection KNNM.Fit ran before the bounded
// top-k: every predictive machine's log₂-profile distance to target t,
// sorted by (Distance, Index) and truncated to k.
func refKNNMNeighbours(f Fold, t, k int) []knn.Neighbour {
	logCol := func(col []float64) []float64 {
		out := make([]float64, len(col))
		for i, v := range col {
			out[i] = math.Log2(v)
		}
		return out
	}
	y := logCol(f.Tgt.Col(t))
	all := make([]knn.Neighbour, f.Pred.NumMachines())
	for c := range all {
		col := logCol(f.Pred.Col(c))
		d := 0.0
		for i := range y {
			diff := y[i] - col[i]
			d += diff * diff
		}
		all[c] = knn.Neighbour{Index: c, Distance: math.Sqrt(d)}
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

// TestKNNMNeighboursMatchSortTruncate pins the fitted neighbour sets to
// the sort-then-truncate selection, including tied distances from
// duplicated predictive machines and k at and beyond the clamp.
func TestKNNMNeighboursMatchSortTruncate(t *testing.T) {
	pred, tgt := syntheticPair(t, 9, 7, 5, 0.02, 11)
	for b := 0; b < pred.NumBenchmarks(); b++ { // machines 1 and 4 duplicate machine 2
		pred.Set(b, 1, pred.At(b, 2))
		pred.Set(b, 4, pred.At(b, 2))
	}
	fold, _, err := NewFold(pred, tgt, "benchD", nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{1, 2, 3, DefaultKNNMK, 7, 12} {
		m, err := (&KNNM{K: k}).Fit(fold)
		if err != nil {
			t.Fatal(err)
		}
		for tt, got := range m.(*KNNMModel).Neighbours {
			if want := refKNNMNeighbours(fold, tt, k); !slices.Equal(got, want) {
				t.Fatalf("k=%d target %d: fitted %+v, sort-then-truncate %+v", k, tt, got, want)
			}
		}
	}
}

// TestKNNMPredictionsAreScoreConvexCombinations pins the predictor's
// semantics: every prediction is a weighted mean of the application's
// scores on predictive machines, hence inside their range.
func TestKNNMPredictionsAreScoreConvexCombinations(t *testing.T) {
	fold := knnmFold(t)
	preds, err := NewKNNM().PredictApp(fold)
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, v := range fold.AppOnPred {
		lo, hi = math.Min(lo, v), math.Max(hi, v)
	}
	for i, p := range preds {
		if math.IsNaN(p) || p < lo-1e-9 || p > hi+1e-9 {
			t.Fatalf("prediction %d = %v outside app score range [%v, %v]", i, p, lo, hi)
		}
	}
}

// TestKNNMFreshScoresPath pins the serving contract shared with NNᵀ and
// SPLᵀ: PredictTargetsWith over the fitted fold's own measurements
// equals PredictTargets, and the neighbour sets are application-
// independent, so fresh scores reuse the same fitted model.
func TestKNNMFreshScoresPath(t *testing.T) {
	fold := knnmFold(t)
	m, err := NewKNNM().Fit(fold)
	if err != nil {
		t.Fatal(err)
	}
	km := m.(*KNNMModel)
	a := make([]float64, km.NumTargets())
	b := make([]float64, km.NumTargets())
	if err := km.PredictTargets(a); err != nil {
		t.Fatal(err)
	}
	if err := km.PredictTargetsWith(fold.AppOnPred, b); err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			t.Fatalf("target %d: %v vs %v", i, a[i], b[i])
		}
	}
	// A constant application must predict exactly that constant on every
	// target (weights sum to 1).
	fresh := make([]float64, len(fold.AppOnPred))
	for i := range fresh {
		fresh[i] = 42
	}
	if err := km.PredictTargetsWith(fresh, b); err != nil {
		t.Fatal(err)
	}
	for i, v := range b {
		if math.Abs(v-42) > 1e-9 {
			t.Fatalf("constant app target %d = %v", i, v)
		}
	}
	if err := km.PredictTargetsWith(fresh[:2], b); err == nil {
		t.Fatal("short score vector must error")
	}
}

func TestKNNMRejectsBadInput(t *testing.T) {
	fold := knnmFold(t)
	if _, err := (&KNNM{K: 0}).Fit(fold); err == nil {
		t.Fatal("k=0 must error")
	}
	if _, err := NewKNNM().Fit(Fold{}); err == nil {
		t.Fatal("invalid fold must error")
	}
	// Non-positive scores have no log-space profile.
	bad := knnmFold(t)
	compact := bad.Tgt.Compact()
	compact.Set(0, 0, -1)
	bad.Tgt = compact
	if _, err := NewKNNM().Fit(bad); err == nil {
		t.Fatal("negative score must error")
	}
}

// TestKNNMDecodeRejectsDamage exercises the payload validator.
func TestKNNMDecodeRejectsDamage(t *testing.T) {
	fold := knnmFold(t)
	m, err := NewKNNM().Fit(fold)
	if err != nil {
		t.Fatal(err)
	}
	km := m.(*KNNMModel)
	// Corrupt the neighbour indices out of range and re-encode.
	km.Neighbours[0][0].Index = len(fold.AppOnPred) + 7
	var buf bytes.Buffer
	if err := EncodeModel(&buf, km); err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeModel(bytes.NewReader(buf.Bytes())); err == nil {
		t.Fatal("out-of-range neighbour index must be rejected")
	}
}
