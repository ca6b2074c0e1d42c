package mlp

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestTrainValidation(t *testing.T) {
	if _, err := Train(nil, nil, DefaultConfig(1)); !errors.Is(err, ErrNoData) {
		t.Fatalf("want ErrNoData, got %v", err)
	}
	if _, err := Train([][]float64{{1}}, [][]float64{{1}, {2}}, DefaultConfig(1)); err == nil {
		t.Fatal("want arity error")
	}
	if _, err := Train([][]float64{{1}, {1, 2}}, [][]float64{{1}, {2}}, DefaultConfig(1)); err == nil {
		t.Fatal("want inconsistent-arity error")
	}
	if _, err := Train([][]float64{{}}, [][]float64{{1}}, DefaultConfig(1)); err == nil {
		t.Fatal("want zero-width error")
	}
	bad := DefaultConfig(1)
	bad.Momentum = 1.5
	if _, err := Train([][]float64{{1}}, [][]float64{{1}}, bad); err == nil {
		t.Fatal("want momentum validation error")
	}
	bad = DefaultConfig(1)
	bad.LearningRate = -1
	if _, err := Train([][]float64{{1}}, [][]float64{{1}}, bad); err == nil {
		t.Fatal("want learning-rate validation error")
	}
	bad = DefaultConfig(1)
	bad.Epochs = -3
	if _, err := Train([][]float64{{1}}, [][]float64{{1}}, bad); err == nil {
		t.Fatal("want epochs validation error")
	}
	bad = DefaultConfig(1)
	bad.Hidden = []int{0}
	if _, err := Train([][]float64{{1}}, [][]float64{{1}}, bad); err == nil {
		t.Fatal("want hidden-layer validation error")
	}
}

func TestLearnsLinearFunction(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	var xs, ys [][]float64
	for i := 0; i < 60; i++ {
		a, b := rng.Float64()*4-2, rng.Float64()*4-2
		xs = append(xs, []float64{a, b})
		ys = append(ys, []float64{1 + 2*a - b})
	}
	net, err := Train(xs, ys, DefaultConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	rmse, err := net.RMSE(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if rmse > 0.15 {
		t.Fatalf("training RMSE = %v, expected < 0.15", rmse)
	}
	// Generalisation inside the training hull.
	got, err := net.Predict1([]float64{0.5, -0.5})
	if err != nil {
		t.Fatal(err)
	}
	want := 1 + 2*0.5 - (-0.5)
	if math.Abs(got-want) > 0.35 {
		t.Fatalf("Predict = %v, want ≈ %v", got, want)
	}
}

func TestLearnsXOR(t *testing.T) {
	// XOR is the canonical non-linear sanity check for backprop.
	xs := [][]float64{{0, 0}, {0, 1}, {1, 0}, {1, 1}}
	ys := [][]float64{{0}, {1}, {1}, {0}}
	cfg := DefaultConfig(5)
	cfg.Hidden = []int{4}
	cfg.Epochs = 4000
	net, err := Train(xs, ys, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, x := range xs {
		got, err := net.Predict1(x)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-ys[i][0]) > 0.25 {
			t.Fatalf("XOR(%v) = %v, want %v", x, got, ys[i][0])
		}
	}
}

func TestLearnsNonlinearSurface(t *testing.T) {
	// The MLPᵀ rationale: capture non-linear cross-machine relations.
	rng := rand.New(rand.NewSource(9))
	var xs, ys [][]float64
	for i := 0; i < 120; i++ {
		a := rng.Float64()*2 - 1
		xs = append(xs, []float64{a})
		ys = append(ys, []float64{a * a})
	}
	cfg := DefaultConfig(7)
	cfg.Hidden = []int{6}
	cfg.Epochs = 2000
	// Online backprop with the WEKA default rate 0.3 oscillates on this
	// dense 120-instance task; 0.1 converges (the paper's training sets are
	// far smaller, where 0.3 is fine).
	cfg.LearningRate = 0.1
	net, err := Train(xs, ys, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rmse, err := net.RMSE(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if rmse > 0.05 {
		t.Fatalf("quadratic RMSE = %v, expected < 0.05", rmse)
	}
}

func TestDeterminismAcrossRuns(t *testing.T) {
	xs := [][]float64{{0}, {1}, {2}, {3}}
	ys := [][]float64{{1}, {3}, {5}, {7}}
	cfg := DefaultConfig(42)
	cfg.Epochs = 50
	n1, err := Train(xs, ys, cfg)
	if err != nil {
		t.Fatal(err)
	}
	n2, err := Train(xs, ys, cfg)
	if err != nil {
		t.Fatal(err)
	}
	p1, _ := n1.Predict1([]float64{1.5})
	p2, _ := n2.Predict1([]float64{1.5})
	if p1 != p2 {
		t.Fatalf("same seed gave different predictions: %v vs %v", p1, p2)
	}
	cfg2 := cfg
	cfg2.Seed = 43
	n3, err := Train(xs, ys, cfg2)
	if err != nil {
		t.Fatal(err)
	}
	p3, _ := n3.Predict1([]float64{1.5})
	if p1 == p3 {
		t.Fatal("different seeds should give different weights (and predictions)")
	}
}

func TestShuffleAndDecayStillLearn(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	var xs, ys [][]float64
	for i := 0; i < 40; i++ {
		a := rng.Float64()*2 - 1
		xs = append(xs, []float64{a})
		ys = append(ys, []float64{3 * a})
	}
	cfg := DefaultConfig(1)
	cfg.Shuffle = true
	cfg.Decay = true
	cfg.Epochs = 800
	net, err := Train(xs, ys, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rmse, err := net.RMSE(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if rmse > 0.4 {
		t.Fatalf("shuffle+decay RMSE = %v", rmse)
	}
}

func TestDefaultHiddenSize(t *testing.T) {
	// 28 inputs + 1 output => WEKA "a" = 14 hidden units.
	xs := make([][]float64, 10)
	ys := make([][]float64, 10)
	rng := rand.New(rand.NewSource(2))
	for i := range xs {
		xs[i] = make([]float64, 28)
		for j := range xs[i] {
			xs[i][j] = rng.Float64()
		}
		ys[i] = []float64{rng.Float64()}
	}
	cfg := DefaultConfig(1)
	cfg.Epochs = 2
	net, err := Train(xs, ys, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(net.Layers) != 2 {
		t.Fatalf("layers = %d, want 2", len(net.Layers))
	}
	if got := len(net.Layers[0].W); got != 14 {
		t.Fatalf("hidden units = %d, want 14", got)
	}
	if !net.Layers[1].Linear {
		t.Fatal("output layer must be linear for regression")
	}
	if net.Layers[0].Linear {
		t.Fatal("hidden layer must be sigmoid")
	}
}

func TestPredictArityError(t *testing.T) {
	net, err := Train([][]float64{{1, 2}, {2, 1}, {0, 0}}, [][]float64{{1}, {2}, {0}}, Config{Epochs: 1, LearningRate: 0.1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := net.Predict([]float64{1}); err == nil {
		t.Fatal("want arity error")
	}
	if _, err := net.Predict1([]float64{1}); err == nil {
		t.Fatal("want arity error from Predict1")
	}
}

func TestPredict1MultiOutputError(t *testing.T) {
	net, err := Train([][]float64{{1}, {0}}, [][]float64{{1, 2}, {0, 1}}, Config{Epochs: 1, LearningRate: 0.1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := net.Predict1([]float64{1}); err == nil {
		t.Fatal("want multi-output error")
	}
}

func TestConstantColumnHandled(t *testing.T) {
	// A zero-variance attribute must normalise to 0, not NaN.
	xs := [][]float64{{5, 0}, {5, 1}, {5, 2}}
	ys := [][]float64{{0}, {1}, {2}}
	cfg := DefaultConfig(1)
	cfg.Epochs = 200
	net, err := Train(xs, ys, cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := net.Predict1([]float64{5, 1})
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(got) || math.IsInf(got, 0) {
		t.Fatalf("Predict = %v", got)
	}
}

// TestRepackRejectsInconsistentShape pins the decoder-side check: a
// serialised network whose widths do not chain is refused, not repacked
// into a forward pass that indexes out of range.
func TestRepackRejectsInconsistentShape(t *testing.T) {
	xs := [][]float64{{0, 0}, {1, 0}, {0, 1}, {1, 1}}
	ys := [][]float64{{0}, {1}, {1}, {2}}
	cfg := DefaultConfig(11)
	cfg.Epochs = 5
	for name, mutate := range map[string]func(n *Network){
		"no layers":        func(n *Network) { n.Layers = nil },
		"short weight row": func(n *Network) { n.Layers[0].W[0] = n.Layers[0].W[0][:1] },
		"missing bias":     func(n *Network) { n.Layers[0].B = n.Layers[0].B[:0] },
		"output width":     func(n *Network) { n.NOut = 2 },
		"input scaler":     func(n *Network) { n.In.Min = nil },
		"zero inputs":      func(n *Network) { n.NIn = 0 },
	} {
		net, err := Train(xs, ys, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := net.Repack(); err != nil {
			t.Fatalf("trained network: %v", err)
		}
		mutate(net)
		if err := net.Repack(); err == nil {
			t.Errorf("%s: inconsistent network repacked", name)
		}
	}
}

func TestRMSEErrors(t *testing.T) {
	net, err := Train([][]float64{{0}, {1}}, [][]float64{{0}, {1}}, Config{Epochs: 1, LearningRate: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := net.RMSE(nil, nil); !errors.Is(err, ErrNoData) {
		t.Fatalf("want ErrNoData, got %v", err)
	}
	if _, err := net.RMSE([][]float64{{1}}, nil); err == nil {
		t.Fatal("want length error")
	}
	if _, err := net.RMSE([][]float64{{1, 2}}, [][]float64{{1}}); err == nil {
		t.Fatal("want arity error")
	}
}

// Property: predictions are always finite for finite inputs, even far
// outside the training range.
func TestPredictionFiniteProperty(t *testing.T) {
	xs := [][]float64{{-1, 2}, {0, 0}, {1, -2}, {2, 1}}
	ys := [][]float64{{1}, {0}, {-1}, {2}}
	cfg := DefaultConfig(13)
	cfg.Epochs = 100
	net, err := Train(xs, ys, cfg)
	if err != nil {
		t.Fatal(err)
	}
	f := func(a, b int16) bool {
		got, err := net.Predict1([]float64{float64(a), float64(b)})
		return err == nil && !math.IsNaN(got) && !math.IsInf(got, 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: training reduces RMSE versus the untrained (1-epoch, tiny-rate)
// network on a learnable linear task.
func TestTrainingImprovesProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	f := func(seed8 uint8) bool {
		var xs, ys [][]float64
		for i := 0; i < 30; i++ {
			a := rng.Float64()*2 - 1
			xs = append(xs, []float64{a})
			ys = append(ys, []float64{2 * a})
		}
		weak := Config{Epochs: 1, LearningRate: 1e-6, Seed: int64(seed8)}
		strong := Config{Epochs: 300, LearningRate: 0.3, Momentum: 0.2, Seed: int64(seed8)}
		nw, err := Train(xs, ys, weak)
		if err != nil {
			return false
		}
		ns, err := Train(xs, ys, strong)
		if err != nil {
			return false
		}
		rw, err1 := nw.RMSE(xs, ys)
		rs, err2 := ns.RMSE(xs, ys)
		return err1 == nil && err2 == nil && rs < rw
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}
