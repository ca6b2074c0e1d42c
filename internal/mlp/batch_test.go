package mlp

import (
	"math/rand"
	"testing"
)

// trainedNetwork fits a small deterministic network plus a query set.
func trainedNetwork(t *testing.T) (*Network, [][]float64) {
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
	net, err := Train(inputs, targets, cfg)
	if err != nil {
		t.Fatal(err)
	}
	queries := make([][]float64, 12)
	for i := range queries {
		queries[i] = []float64{rng.Float64() * 10, rng.Float64() * 10, rng.Float64() * 10}
	}
	return net, queries
}

// TestPredict1BatchMatchesPredict1 asserts the batch path is bitwise
// identical to per-query prediction, including on a network restored by
// Repack, whose flat storage is rebuilt from the weight rows.
func TestPredict1BatchMatchesPredict1(t *testing.T) {
	net, queries := trainedNetwork(t)
	restored := &Network{Layers: append([]layer(nil), net.Layers...), In: net.In, Out: net.Out, NIn: net.NIn, NOut: net.NOut}
	if err := restored.Repack(); err != nil {
		t.Fatal(err)
	}
	for name, n := range map[string]*Network{"trained": net, "repacked": restored} {
		batch := make([]float64, len(queries))
		if err := n.Predict1Batch(queries, batch); err != nil {
			t.Fatal(err)
		}
		for i, q := range queries {
			want, err := net.Predict1(q)
			if err != nil {
				t.Fatal(err)
			}
			if batch[i] != want {
				t.Fatalf("%s query %d: batch %v, single %v", name, i, batch[i], want)
			}
		}
	}
}

// TestPredict1BatchAllocFree asserts the batch path draws its forward
// buffers from the scratch pool: after one warming call, a batch
// allocates nothing — the property the serving path relies on.
func TestPredict1BatchAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts at random under the race detector")
	}
	net, queries := trainedNetwork(t)
	dst := make([]float64, len(queries))
	if err := net.Predict1Batch(queries, dst); err != nil {
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(100, func() {
		if err := net.Predict1Batch(queries, dst); err != nil {
			t.Fatal(err)
		}
	})
	if avg != 0 {
		t.Fatalf("Predict1Batch allocates %.1f objects per call at steady state, want 0", avg)
	}
}

func TestPredict1BatchErrors(t *testing.T) {
	net, queries := trainedNetwork(t)
	if err := net.Predict1Batch(queries, make([]float64, 1)); err == nil {
		t.Fatal("want arity error for short dst")
	}
	bad := [][]float64{{1, 2}} // wrong input arity
	if err := net.Predict1Batch(bad, make([]float64, 1)); err == nil {
		t.Fatal("want input-arity error")
	}
	cfg := DefaultConfig(1)
	cfg.Epochs = 1
	two, err := Train([][]float64{{0}, {1}}, [][]float64{{0, 1}, {1, 0}}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := two.Predict1Batch([][]float64{{0.5}}, make([]float64, 1)); err == nil {
		t.Fatal("want error for a two-output network")
	}
}
