package mlp

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/lanes"
)

// batchTrainingSet builds a small deterministic regression set.
func batchTrainingSet(n int) (inputs, targets [][]float64) {
	rng := rand.New(rand.NewSource(77))
	for i := 0; i < n; i++ {
		x := []float64{rng.Float64() * 4, rng.Float64() * 9, rng.Float64()*2 - 1}
		inputs = append(inputs, x)
		targets = append(targets, []float64{0.5*x[0] - x[1] + 3*x[2]})
	}
	return inputs, targets
}

// narrowTrainingSet builds n instances of width inputs and nOut targets.
func narrowTrainingSet(n, width, nOut int) (inputs, targets [][]float64) {
	rng := rand.New(rand.NewSource(int64(31*width + nOut)))
	for i := 0; i < n; i++ {
		x := make([]float64, width)
		sum := 0.0
		for k := range x {
			x[k] = rng.Float64()*6 - 2
			sum += x[k] * float64(k+1)
		}
		y := make([]float64, nOut)
		for o := range y {
			y[o] = math.Sin(sum) + float64(o)*sum
		}
		inputs = append(inputs, x)
		targets = append(targets, y)
	}
	return inputs, targets
}

// requireSameNetwork fails unless the two networks have bit-for-bit
// identical weights, biases, and scalers.
func requireSameNetwork(t *testing.T, ctx string, got, want *Network) {
	t.Helper()
	if len(got.Layers) != len(want.Layers) {
		t.Fatalf("%s: %d layers, want %d", ctx, len(got.Layers), len(want.Layers))
	}
	same := func(name string, g, w []float64) {
		t.Helper()
		if len(g) != len(w) {
			t.Fatalf("%s: %s length %d, want %d", ctx, name, len(g), len(w))
		}
		for i := range g {
			if math.Float64bits(g[i]) != math.Float64bits(w[i]) {
				t.Fatalf("%s: %s[%d] = %v, want %v", ctx, name, i, g[i], w[i])
			}
		}
	}
	for l := range got.Layers {
		gl, wl := got.Layers[l], want.Layers[l]
		if len(gl.W) != len(wl.W) || gl.Linear != wl.Linear {
			t.Fatalf("%s: layer %d shape mismatch", ctx, l)
		}
		for j := range gl.W {
			same("W", gl.W[j], wl.W[j])
		}
		same("B", gl.B, wl.B)
	}
	same("In.Min", got.In.Min, want.In.Min)
	same("In.Max", got.In.Max, want.In.Max)
	same("Out.Min", got.Out.Min, want.Out.Min)
	same("Out.Max", got.Out.Max, want.Out.Max)
}

// referenceTrain is the three-phase online back-propagation trainer that
// Train's fused pass replaced, kept as its specification: per sample a
// full forward pass, then the deltas, then a momentum update of every
// weight row (upd = g·x + mu·dw; w += upd; dw = upd) and bias, all as
// plain scalar loops.
func referenceTrain(inputs, targets [][]float64, cfg Config) *Network {
	cfg.fillDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	net := newNetwork(inputs, targets, cfg.hiddenSizes(len(inputs[0]), len(targets[0])), rng)
	xs, ys := make([][]float64, len(inputs)), make([][]float64, len(inputs))
	order := make([]int, len(inputs))
	for i := range inputs {
		xs[i], ys[i] = net.In.apply(inputs[i]), net.Out.apply(targets[i])
		order[i] = i
	}
	acts, deltas := net.newActivations(), net.newActivations()
	last := len(net.Layers)
	for epoch := 1; epoch <= cfg.Epochs; epoch++ {
		lr := cfg.LearningRate
		if cfg.Decay {
			lr /= float64(epoch)
		}
		if cfg.Shuffle {
			rng.Shuffle(len(order), func(a, b int) { order[a], order[b] = order[b], order[a] })
		}
		for _, i := range order {
			copy(acts[0], xs[i])
			for l, ly := range net.Layers {
				for j := range ly.W {
					s := ly.B[j]
					for k, v := range acts[l] {
						s += ly.W[j][k] * v
					}
					if !ly.Linear {
						s = lanes.Sigmoid(s)
					}
					acts[l+1][j] = s
				}
			}
			for j, o := range acts[last] {
				deltas[last][j] = ys[i][j] - o
			}
			for l := last - 1; l >= 1; l-- {
				ly := net.Layers[l]
				for j := range deltas[l] {
					s := 0.0
					for k := range ly.W {
						s += ly.W[k][j] * deltas[l+1][k]
					}
					a := acts[l][j]
					deltas[l][j] = a * (1 - a) * s
				}
			}
			for l := range net.Layers {
				ly := &net.Layers[l]
				for j := range ly.W {
					g := lr * deltas[l+1][j]
					w, dw := ly.W[j], ly.dwf[j*len(acts[l]):(j+1)*len(acts[l])]
					for k, v := range acts[l] {
						upd := g*v + cfg.Momentum*dw[k]
						w[k] += upd
						dw[k] = upd
					}
					upd := g + cfg.Momentum*ly.dB[j]
					ly.B[j] += upd
					ly.dB[j] = upd
				}
			}
		}
	}
	return net
}

// TestTrainMatchesReference pins the fused trainer to the three-phase
// reference bit for bit: the WEKA defaults, decay, shuffling, two hidden
// layers, a single momentum-free epoch, every leftover-row count of the
// four-unit blocks (hidden widths 1–5 and 14), inputs narrower than a
// block, several outputs, one instance, and the served fold shape.
func TestTrainMatchesReference(t *testing.T) {
	bx, by := batchTrainingSet(19)
	sx, sy := benchData(100)
	type tc struct {
		name    string
		inputs  [][]float64
		targets [][]float64
		cfg     Config
	}
	cases := []tc{
		{"default", bx, by, DefaultConfig(11)},
		{"decay", bx, by, Config{LearningRate: 0.3, Momentum: 0.2, Epochs: 40, Seed: 12, Decay: true}},
		{"shuffle+decay", bx, by, Config{LearningRate: 0.3, Momentum: 0.2, Epochs: 40, Seed: 13, Shuffle: true, Decay: true}},
		{"shuffle", bx, by, Config{LearningRate: 0.3, Momentum: 0.2, Epochs: 7, Seed: 14, Shuffle: true}},
		{"hidden{5,3}", bx, by, Config{LearningRate: 0.25, Momentum: 0.1, Epochs: 30, Seed: 15, Hidden: []int{5, 3}}},
		{"hidden{5,3}+shuffle", bx, by, Config{LearningRate: 0.25, Momentum: 0.1, Epochs: 9, Seed: 16, Hidden: []int{5, 3}, Shuffle: true}},
		{"epochs1-momentum0", bx, by, Config{LearningRate: 0.3, Momentum: 0, Epochs: 1, Seed: 17}},
		{"served", sx, sy, DefaultConfig(1)},
		{"one-instance", bx[:1], by[:1], Config{LearningRate: 0.3, Momentum: 0.2, Epochs: 5, Seed: 18}},
	}
	for _, h := range []int{1, 2, 3, 4, 5, 14} {
		cases = append(cases,
			tc{fmt.Sprintf("hidden%d", h), bx, by, Config{LearningRate: 0.3, Momentum: 0.2, Epochs: 25, Seed: int64(20 + h), Hidden: []int{h}}},
			tc{fmt.Sprintf("served-hidden%d", h), sx, sy, Config{LearningRate: 0.3, Momentum: 0.2, Epochs: 15, Seed: int64(40 + h), Hidden: []int{h}}})
	}
	for _, width := range []int{1, 2, 3} {
		for _, nOut := range []int{1, 2} {
			x, y := narrowTrainingSet(17, width, nOut)
			cases = append(cases,
				tc{fmt.Sprintf("in%d-out%d", width, nOut), x, y, Config{LearningRate: 0.3, Momentum: 0.2, Epochs: 30, Seed: int64(60 + width)}},
				tc{fmt.Sprintf("in%d-out%d-hidden{6,4}", width, nOut), x, y, Config{LearningRate: 0.3, Momentum: 0.2, Epochs: 30, Seed: int64(70 + width), Hidden: []int{6, 4}}})
		}
	}
	for _, c := range cases {
		got, err := Train(c.inputs, c.targets, c.cfg)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		requireSameNetwork(t, c.name, got, referenceTrain(c.inputs, c.targets, c.cfg))
	}
}

// TestTrainAllocsIndependentOfEpochs asserts the trainer's allocation
// count does not scale with training length: the epoch loop runs
// entirely on pooled scratch, so doubling the epochs must not add a
// single allocation.
func TestTrainAllocsIndependentOfEpochs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts at random under the race detector")
	}
	inputs, targets := batchTrainingSet(16)
	measure := func(epochs int) float64 {
		cfg := Config{LearningRate: 0.3, Momentum: 0.2, Epochs: epochs, Seed: 3}
		if _, err := Train(inputs, targets, cfg); err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(20, func() {
			if _, err := Train(inputs, targets, cfg); err != nil {
				t.Fatal(err)
			}
		})
	}
	short, long := measure(2), measure(40)
	if long > short {
		t.Fatalf("Train allocations grew with epochs: %0.1f at 2 epochs, %0.1f at 40", short, long)
	}
}

// TestTrainWarmAllocs asserts a warm-pool Train allocates no more than
// the three-phase trainer it replaced (the limits are that trainer's
// counts): the fused trainer's second activation set is pooled scratch,
// not a per-call allocation.
func TestTrainWarmAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts at random under the race detector")
	}
	sx, sy := benchData(100)
	bx, by := batchTrainingSet(19)
	for _, c := range []struct {
		name            string
		inputs, targets [][]float64
		cfg             Config
		limit           float64
	}{
		{"served", sx, sy, Config{LearningRate: 0.3, Momentum: 0.2, Epochs: 3, Seed: 1}, 22},
		{"hidden{5,3}", bx, by, Config{LearningRate: 0.3, Momentum: 0.2, Epochs: 3, Seed: 1, Hidden: []int{5, 3}}, 30},
	} {
		if _, err := Train(c.inputs, c.targets, c.cfg); err != nil {
			t.Fatal(err)
		}
		got := testing.AllocsPerRun(20, func() {
			if _, err := Train(c.inputs, c.targets, c.cfg); err != nil {
				t.Fatal(err)
			}
		})
		if got > c.limit {
			t.Fatalf("%s: warm Train allocates %.1f objects, want <= %.0f", c.name, got, c.limit)
		}
	}
}
