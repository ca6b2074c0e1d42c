package mlp

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/engine"
)

func ensembleData() (inputs, targets [][]float64) {
	for i := 0; i < 12; i++ {
		x := float64(i) / 4
		inputs = append(inputs, []float64{x, x * x})
		targets = append(targets, []float64{3*x - 1})
	}
	return
}

func TestTrainEnsembleSingleMatchesTrain(t *testing.T) {
	inputs, targets := ensembleData()
	cfg := DefaultConfig(7)
	cfg.Epochs = 50
	net, err := Train(inputs, targets, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ens, err := TrainEnsemble(inputs, targets, cfg, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range inputs {
		want, err := net.Predict1(x)
		if err != nil {
			t.Fatal(err)
		}
		got, err := ens.Predict1(x)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("single-member ensemble diverges from Train at %v: %v vs %v", x, got, want)
		}
	}
}

func TestTrainEnsembleDeterministicAcrossWorkers(t *testing.T) {
	inputs, targets := ensembleData()
	cfg := DefaultConfig(3)
	cfg.Epochs = 40
	train := func(workers int) *Ensemble {
		ens, err := TrainEnsemble(inputs, targets, cfg, 4, engine.New(workers))
		if err != nil {
			t.Fatal(err)
		}
		return ens
	}
	a, b := train(1), train(8)
	probe := []float64{1.5, 2.25}
	ya, err := a.Predict1(probe)
	if err != nil {
		t.Fatal(err)
	}
	yb, err := b.Predict1(probe)
	if err != nil {
		t.Fatal(err)
	}
	if ya != yb {
		t.Fatalf("ensemble prediction depends on worker count: %v vs %v", ya, yb)
	}
	if math.IsNaN(ya) {
		t.Fatal("NaN prediction")
	}
}

// requireMembersMatchTrain fails unless every member of a TrainEnsemble
// of each size, on 1 and 3 workers, is bit for bit the network Train
// fits alone with that member's seed (cfg.Seed itself for a single
// member).
func requireMembersMatchTrain(t *testing.T, name string, cfg Config, sizes []int) {
	t.Helper()
	inputs, targets := batchTrainingSet(19)
	for _, size := range sizes {
		for _, workers := range []int{1, 3} {
			ens, err := TrainEnsemble(inputs, targets, cfg, size, engine.New(workers))
			if err != nil {
				t.Fatalf("%s size=%d workers=%d: %v", name, size, workers, err)
			}
			if len(ens.Nets) != size {
				t.Fatalf("%s: %d members, want %d", name, len(ens.Nets), size)
			}
			for i, net := range ens.Nets {
				c := cfg
				if size > 1 {
					c.Seed = engine.Seed(cfg.Seed, int64(i))
				}
				want, err := Train(inputs, targets, c)
				if err != nil {
					t.Fatal(err)
				}
				requireSameNetwork(t, fmt.Sprintf("%s size=%d workers=%d member %d", name, size, workers, i), net, want)
			}
		}
	}
}

// TestTrainBatchMatchesPerSample asserts training a batch of ensemble
// members gives each member exactly the per-sample Train result for its
// seed, across ensemble sizes, depths, and the decayed-learning-rate
// schedule.
func TestTrainBatchMatchesPerSample(t *testing.T) {
	cfgs := map[string]Config{
		"default": {LearningRate: 0.3, Momentum: 0.2, Epochs: 25, Seed: 4},
		"deep":    {LearningRate: 0.25, Momentum: 0.1, Epochs: 15, Seed: 5, Hidden: []int{5, 3}},
		"decay":   {LearningRate: 0.3, Momentum: 0.2, Epochs: 12, Seed: 6, Decay: true},
	}
	for name, cfg := range cfgs {
		requireMembersMatchTrain(t, name, cfg, []int{1, 2, 3, 5})
	}
}

// TestTrainBatchShuffleFallsBack asserts shuffled training, where every
// member draws its own instance order, still gives each ensemble member
// exactly the per-sample Train result for its seed.
func TestTrainBatchShuffleFallsBack(t *testing.T) {
	cfg := Config{LearningRate: 0.3, Momentum: 0.2, Epochs: 10, Seed: 7, Shuffle: true}
	requireMembersMatchTrain(t, "shuffle", cfg, []int{3, 5})
}

func TestTrainEnsembleMembersDiffer(t *testing.T) {
	inputs, targets := ensembleData()
	cfg := DefaultConfig(3)
	cfg.Epochs = 10
	ens, err := TrainEnsemble(inputs, targets, cfg, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	probe := []float64{0.5, 0.25}
	y0, _ := ens.Nets[0].Predict1(probe)
	y1, _ := ens.Nets[1].Predict1(probe)
	if y0 == y1 {
		t.Fatal("members share initialisation; per-member seeds not applied")
	}
}

func TestEnsembleErrors(t *testing.T) {
	inputs, targets := ensembleData()
	if _, err := TrainEnsemble(inputs, targets, DefaultConfig(1), 0, nil); err == nil {
		t.Fatal("want error for zero members")
	}
	var empty Ensemble
	if _, err := empty.Predict([]float64{1, 2}); err == nil {
		t.Fatal("want error for empty ensemble")
	}
	cfg := DefaultConfig(1)
	cfg.Epochs = 1
	ens, err := TrainEnsemble(inputs, targets, cfg, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ens.Predict([]float64{1}); err == nil {
		t.Fatal("want arity error")
	}
}
