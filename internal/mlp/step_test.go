package mlp

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

func requireSameBits(t *testing.T, ctx, what string, got, want []float64) {
	t.Helper()
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: %s[%d] = %v (%#x), row step %v (%#x)",
				ctx, what, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

func randFill(rng *rand.Rand, v []float64, scale float64) {
	for i := range v {
		v[i] = (rng.Float64() - 0.5) * scale
	}
}

// randomLayer returns a units×n layer with random weights, biases and
// momenta.
func randomLayer(rng *rand.Rand, units, n int, linear bool) layer {
	ly := newLayer(units, n, linear)
	randFill(rng, ly.wf, 1)
	randFill(rng, ly.dwf, 0.1)
	randFill(rng, ly.B, 1)
	randFill(rng, ly.dB, 0.1)
	return ly
}

// stepWidths covers the served shapes (n = 28 hidden-layer inputs, 14
// output-layer inputs) and short rows.
var stepWidths = []int{1, 2, 3, 14, 28}

// requireLaneStepMatchesRows pins the trainer's first-layer step — the
// layer's lane copy stepped by lanes.Step, AVX2 or Go — to the layer's
// own row-by-row step bit for bit, over several steps so updated
// weights, biases and momenta feed the next one, for a sigmoid and a
// linear layer of the given unit count.
func requireLaneStepMatchesRows(t *testing.T, units int, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	for _, linear := range []bool{false, true} {
		for _, n := range stepWidths {
			ctx := fmt.Sprintf("units=%d n=%d linear=%v", units, n, linear)
			got := randomLayer(rng, units, n, linear)
			want := randomLayer(rng, units, n, linear)
			copy(want.wf, got.wf)
			copy(want.dwf, got.dwf)
			copy(want.B, got.B)
			copy(want.dB, got.dB)
			net := &Network{Layers: []layer{got}}
			p := &trainPad{}
			p.loadLanes(&net.Layers[0])
			in, next := make([]float64, n), make([]float64, n)
			d, out, wantOut := make([]float64, units), make([]float64, units), make([]float64, units)
			p.deltas = [][]float64{nil, d}
			for it := 0; it < 5; it++ {
				randFill(rng, in, 2)
				randFill(rng, next, 2)
				randFill(rng, d, 1)
				p.step(net, [][]float64{in, nil}, [][]float64{next, out}, 0.3, 0.2)
				want.step(in, next, d, wantOut, 0.3, 0.2)
				step := fmt.Sprintf("%s step %d", ctx, it)
				requireSameBits(t, step, "out", out, wantOut)
				p.storeLanes(&net.Layers[0])
				requireSameBits(t, step, "w", net.Layers[0].wf, want.wf)
				requireSameBits(t, step, "dw", net.Layers[0].dwf, want.dwf)
				requireSameBits(t, step, "b", net.Layers[0].B, want.B)
				requireSameBits(t, step, "db", net.Layers[0].dB, want.dB)
			}
		}
	}
}

// TestStep4MatchesGo pins the lane step of a four-unit layer, one full
// lane group, to the scalar row step.
func TestStep4MatchesGo(t *testing.T) {
	requireLaneStepMatchesRows(t, 4, 1)
}

// TestStep2MatchesGo is TestStep4MatchesGo for a two-unit layer, a lane
// group padded with two zero units.
func TestStep2MatchesGo(t *testing.T) {
	requireLaneStepMatchesRows(t, 2, 2)
}
