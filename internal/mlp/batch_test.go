package mlp

import (
	"math/rand"
	"testing"
)

// trainedEnsemble fits a small deterministic ensemble plus a query set.
func trainedEnsemble(t *testing.T, members int) (*Ensemble, [][]float64) {
	t.Helper()
	rng := rand.New(rand.NewSource(9))
	inputs := make([][]float64, 24)
	targets := make([][]float64, 24)
	for i := range inputs {
		x := []float64{rng.Float64() * 10, rng.Float64() * 10, rng.Float64() * 10}
		inputs[i] = x
		targets[i] = []float64{x[0] + 2*x[1] - x[2]}
	}
	cfg := DefaultConfig(5)
	cfg.Epochs = 30
	e, err := TrainEnsemble(inputs, targets, cfg, members, nil)
	if err != nil {
		t.Fatal(err)
	}
	queries := make([][]float64, 12)
	for i := range queries {
		queries[i] = []float64{rng.Float64() * 10, rng.Float64() * 10, rng.Float64() * 10}
	}
	return e, queries
}

// TestPredict1BatchMatchesPredict1 asserts the batch path is bitwise
// identical to per-query prediction, for single and multi-member
// ensembles.
func TestPredict1BatchMatchesPredict1(t *testing.T) {
	for _, members := range []int{1, 3} {
		e, queries := trainedEnsemble(t, members)
		batch := make([]float64, len(queries))
		if err := e.Predict1Batch(queries, batch); err != nil {
			t.Fatal(err)
		}
		for i, q := range queries {
			want, err := e.Predict1(q)
			if err != nil {
				t.Fatal(err)
			}
			if batch[i] != want {
				t.Fatalf("members=%d query %d: batch %v, single %v", members, i, batch[i], want)
			}
		}
	}
}

// TestPredict1BatchAllocFree asserts the batch path draws its forward
// buffers from the scratch pool: after one warming call, a batch
// allocates nothing — the property the serving micro-batcher relies on.
func TestPredict1BatchAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts at random under the race detector")
	}
	e, queries := trainedEnsemble(t, 3)
	dst := make([]float64, len(queries))
	if err := e.Predict1Batch(queries, dst); err != nil {
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(100, func() {
		if err := e.Predict1Batch(queries, dst); err != nil {
			t.Fatal(err)
		}
	})
	if avg != 0 {
		t.Fatalf("Predict1Batch allocates %.1f objects per call at steady state, want 0", avg)
	}
}

func TestPredict1BatchErrors(t *testing.T) {
	e, queries := trainedEnsemble(t, 1)
	if err := e.Predict1Batch(queries, make([]float64, 1)); err == nil {
		t.Fatal("want arity error for short dst")
	}
	bad := [][]float64{{1, 2}} // wrong input arity
	if err := e.Predict1Batch(bad, make([]float64, 1)); err == nil {
		t.Fatal("want input-arity error")
	}
	empty := &Ensemble{}
	if err := empty.Predict1Batch(queries, make([]float64, len(queries))); err == nil {
		t.Fatal("want empty-ensemble error")
	}
}
