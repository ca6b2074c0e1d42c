// Package mlp implements a multilayer perceptron for regression, modelled on
// the WEKA v3 MultilayerPerceptron the paper uses for the MLPᵀ predictor.
//
// Defaults match WEKA's: one hidden layer with (inputs+outputs)/2 sigmoid
// units ("a" wildcard), a linear output unit for numeric targets, online
// back-propagation with learning rate 0.3 and momentum 0.2 for 500 epochs,
// and min/max normalisation of both attributes and the numeric class to
// [-1, 1]. Training is deterministic for a fixed Config.Seed.
package mlp

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"

	"repro/internal/engine"
	"repro/internal/la"
	"repro/internal/lanes"
)

// ErrNoData is returned when Train receives an empty training set.
var ErrNoData = errors.New("mlp: no training data")

// Config controls network topology and training.
type Config struct {
	// Hidden lists hidden-layer sizes. Empty means the WEKA "a" default:
	// one layer of (inputs+outputs)/2 units (at least one).
	Hidden []int
	// LearningRate is the back-propagation step size (WEKA default 0.3).
	LearningRate float64
	// Momentum is the fraction of the previous weight update applied again
	// (WEKA default 0.2).
	Momentum float64
	// Epochs is the number of passes over the training set (WEKA default 500).
	Epochs int
	// Seed drives weight initialisation and optional shuffling.
	Seed int64
	// Decay divides the learning rate by the epoch number, as WEKA's
	// -D flag does. Off by default.
	Decay bool
	// Shuffle randomises instance order each epoch. WEKA trains in instance
	// order, so this is off by default.
	Shuffle bool
}

// DefaultConfig returns the WEKA-default training configuration.
func DefaultConfig(seed int64) Config {
	return Config{
		LearningRate: 0.3,
		Momentum:     0.2,
		Epochs:       500,
		Seed:         seed,
	}
}

func (c *Config) fillDefaults() {
	if c.LearningRate == 0 {
		c.LearningRate = 0.3
	}
	if c.Epochs == 0 {
		c.Epochs = 500
	}
}

// validate rejects configurations that cannot train.
func (c Config) validate() error {
	if c.LearningRate <= 0 || math.IsNaN(c.LearningRate) {
		return fmt.Errorf("mlp: learning rate %v must be positive", c.LearningRate)
	}
	if c.Momentum < 0 || c.Momentum >= 1 || math.IsNaN(c.Momentum) {
		return fmt.Errorf("mlp: momentum %v must be in [0, 1)", c.Momentum)
	}
	if c.Epochs < 1 {
		return fmt.Errorf("mlp: epochs %d must be >= 1", c.Epochs)
	}
	for i, h := range c.Hidden {
		if h < 1 {
			return fmt.Errorf("mlp: hidden layer %d has %d units, need >= 1", i, h)
		}
	}
	return nil
}

// layer holds the weights of one fully connected layer.
// W[j] are the input weights of unit j; B[j] its bias.
//
// Weights live in one flat row-major backing array (wf) that the W rows
// alias, with wm wrapping it as a la.Matrix: the training and batch
// prediction kernels stream the flat storage while W keeps the
// serialised shape (and the gob/JSON wire formats) unchanged. Every
// layer gets the flat backing from newLayer: Train builds it, and the
// decoders call Repack.
type layer struct {
	W      [][]float64 `json:"w"`
	B      []float64   `json:"b"`
	Linear bool        `json:"linear"` // linear activation (output layer) vs sigmoid
	// momentum state (not serialised): the bias steps and, flat like
	// wf, the weight steps
	dB  []float64
	dwf []float64
	// flat kernel storage (rebuilt by Repack, never serialised)
	wf []float64  // W backing, row-major, stride = inputs
	wm *la.Matrix // wf viewed as units×inputs
}

// newLayer allocates a units×prev layer with flat-backed weight and
// momentum storage and the kernel view over it.
func newLayer(units, prev int, linear bool) layer {
	ly := layer{
		W:      make([][]float64, units),
		B:      make([]float64, units),
		Linear: linear,
		dB:     make([]float64, units),
		wf:     make([]float64, units*prev),
		dwf:    make([]float64, units*prev),
	}
	for j := range ly.W {
		ly.W[j] = ly.wf[j*prev : (j+1)*prev]
	}
	ly.wm, _ = la.NewMatrixFromFlat(units, prev, ly.wf)
	return ly
}

// initWeights fills the layer with WEKA-style uniform [-0.5, 0.5)
// initial weights, drawing from rng in the exact order of the original
// trainer: unit by unit, the unit's input weights then its bias.
func (ly *layer) initWeights(rng *rand.Rand) {
	for j := range ly.W {
		w := ly.W[j]
		for k := range w {
			w[k] = rng.Float64() - 0.5 // WEKA initialises in [-0.5, 0.5)
		}
		ly.B[j] = rng.Float64() - 0.5
	}
}

// scaler maps a raw feature range to [-1, 1] and back.
type scaler struct {
	Min []float64 `json:"min"`
	Max []float64 `json:"max"`
}

func fitScaler(rows [][]float64) scaler {
	n := len(rows[0])
	s := scaler{Min: make([]float64, n), Max: make([]float64, n)}
	for j := 0; j < n; j++ {
		s.Min[j], s.Max[j] = rows[0][j], rows[0][j]
	}
	for _, r := range rows {
		for j, v := range r {
			if v < s.Min[j] {
				s.Min[j] = v
			}
			if v > s.Max[j] {
				s.Max[j] = v
			}
		}
	}
	return s
}

func (s scaler) apply(x []float64) []float64 {
	out := make([]float64, len(x))
	s.applyInto(x, out)
	return out
}

// applyInto normalises x into dst without allocating. dst must have the
// same length as x.
func (s scaler) applyInto(x, dst []float64) {
	for j, v := range x {
		span := s.Max[j] - s.Min[j]
		if span == 0 {
			dst[j] = 0
			continue
		}
		dst[j] = 2*(v-s.Min[j])/span - 1
	}
}

func (s scaler) invert(y []float64) []float64 {
	out := make([]float64, len(y))
	s.invertInto(y, out)
	return out
}

// invertInto denormalises y into dst without allocating.
func (s scaler) invertInto(y, dst []float64) {
	for j, v := range y {
		span := s.Max[j] - s.Min[j]
		dst[j] = s.Min[j] + (v+1)/2*span
	}
}

// Network is a trained multilayer perceptron.
type Network struct {
	Layers []layer `json:"layers"`
	In     scaler  `json:"in"`
	Out    scaler  `json:"out"`
	NIn    int     `json:"nin"`
	NOut   int     `json:"nout"`
}

// checkTrainingSet validates arity and returns the instance widths.
func checkTrainingSet(inputs, targets [][]float64) (nIn, nOut int, err error) {
	if len(inputs) == 0 || len(targets) == 0 {
		return 0, 0, ErrNoData
	}
	if len(inputs) != len(targets) {
		return 0, 0, fmt.Errorf("mlp: %d inputs but %d targets", len(inputs), len(targets))
	}
	nIn, nOut = len(inputs[0]), len(targets[0])
	if nIn == 0 || nOut == 0 {
		return 0, 0, fmt.Errorf("mlp: zero-width instance (inputs %d, targets %d)", nIn, nOut)
	}
	for i := range inputs {
		if len(inputs[i]) != nIn || len(targets[i]) != nOut {
			return 0, 0, fmt.Errorf("mlp: instance %d has inconsistent arity", i)
		}
	}
	return nIn, nOut, nil
}

// hiddenSizes resolves cfg.Hidden, applying the WEKA "a" wildcard.
func (c Config) hiddenSizes(nIn, nOut int) []int {
	if len(c.Hidden) > 0 {
		return c.Hidden
	}
	h := (nIn + nOut) / 2
	if h < 1 {
		h = 1
	}
	return []int{h}
}

// trainPad is the pooled per-trainer scratch: the normalised training
// set, the instance order, two per-layer activation sets, the delta
// buffers and the first layer's lane copy. The fused trainer ping-pongs
// between the activation sets: a layer's update reads one sample's
// activations while its forward pass writes the next sample's. Pooled
// via engine.Scratch so repeated fits (one per CV fold unit) stop
// allocating once the pool is warm; every field is fully rebuilt from
// the training set before use, so reuse cannot change results.
type trainPad struct {
	xFlat, yFlat []float64
	xs, ys       [][]float64
	order        []int
	acts         [2][][]float64
	deltas       [][]float64
	// The first layer trains from a lane copy of its state: weights and
	// momenta k-major, biases and their momenta, and the units' deltas
	// and forward sums, the units padded with zeros to a multiple of
	// four, all views of one backing array. Back-propagation never reads
	// that layer, so only lanes.Step touches the copy until Train writes
	// it back.
	lane                 []float64
	wT, dwT, b, db, d, s []float64
}

var trainPadPool = engine.NewScratch(func() *trainPad { return &trainPad{} })

// instances (re)builds the normalised instance views over the pad's flat
// backing arrays.
func (p *trainPad) instances(net *Network, inputs, targets [][]float64) {
	n, nIn, nOut := len(inputs), net.NIn, net.NOut
	p.xFlat = engine.GrowFloats(p.xFlat, n*nIn)
	p.yFlat = engine.GrowFloats(p.yFlat, n*nOut)
	p.xs = growRows(p.xs, n)
	p.ys = growRows(p.ys, n)
	for i := range inputs {
		p.xs[i] = p.xFlat[i*nIn : (i+1)*nIn]
		net.In.applyInto(inputs[i], p.xs[i])
		p.ys[i] = p.yFlat[i*nOut : (i+1)*nOut]
		net.Out.applyInto(targets[i], p.ys[i])
	}
	p.order = growInts(p.order, n)
	for i := range p.order {
		p.order[i] = i
	}
}

// buffers (re)builds both activation sets and the delta buffers for a
// network shaped like net. Entry 0 of an activation set is the input
// row, which the trainer points at an instance instead of copying it;
// entry l+1 holds layer l's outputs.
func (p *trainPad) buffers(net *Network) {
	want := len(net.Layers) + 1
	for s := range p.acts {
		p.acts[s] = growRows(p.acts[s], want)
		for l, ly := range net.Layers {
			p.acts[s][l+1] = engine.GrowFloats(p.acts[s][l+1], len(ly.W))
		}
	}
	p.deltas = growRows(p.deltas, want)
	for l, ly := range net.Layers {
		p.deltas[l+1] = engine.GrowFloats(p.deltas[l+1], len(ly.W))
	}
}

// loadLanes copies ly's weights, biases and their momenta into the
// pad's lane form, zero-padded to a multiple of four units.
func (p *trainPad) loadLanes(ly *layer) {
	units, n := len(ly.B), len(ly.W[0])
	stride := (units + 3) &^ 3
	nw := n * stride
	p.lane = engine.GrowFloats(p.lane, 2*nw+4*stride)
	clear(p.lane)
	p.wT, p.dwT = p.lane[:nw:nw], p.lane[nw:2*nw:2*nw]
	v := p.lane[2*nw:]
	p.b, p.db = v[:stride:stride], v[stride:2*stride:2*stride]
	p.d, p.s = v[2*stride:3*stride:3*stride], v[3*stride:]
	copy(p.b, ly.B)
	copy(p.db, ly.dB)
	for j := 0; j < units; j++ {
		for k := 0; k < n; k++ {
			p.wT[k*stride+j] = ly.wf[j*n+k]
			p.dwT[k*stride+j] = ly.dwf[j*n+k]
		}
	}
}

// storeLanes copies the lane form back into ly's own storage.
func (p *trainPad) storeLanes(ly *layer) {
	units, n, stride := len(ly.B), len(ly.W[0]), len(p.b)
	copy(ly.B, p.b)
	copy(ly.dB, p.db)
	for j := 0; j < units; j++ {
		for k := 0; k < n; k++ {
			ly.wf[j*n+k] = p.wT[k*stride+j]
			ly.dwf[j*n+k] = p.dwT[k*stride+j]
		}
	}
}

func growRows(buf [][]float64, n int) [][]float64 {
	if cap(buf) < n {
		return make([][]float64, n)
	}
	return buf[:n]
}

func growInts(buf []int, n int) []int {
	if cap(buf) < n {
		return make([]int, n)
	}
	return buf[:n]
}

// newNetwork builds an untrained network with fitted scalers and
// rng-initialised flat-backed layers, drawing from rng in the exact
// order of the original trainer.
func newNetwork(inputs, targets [][]float64, hidden []int, rng *rand.Rand) *Network {
	nIn, nOut := len(inputs[0]), len(targets[0])
	net := &Network{NIn: nIn, NOut: nOut}
	net.In = fitScaler(inputs)
	net.Out = fitScaler(targets)
	prev := nIn
	for _, h := range hidden {
		ly := newLayer(h, prev, false)
		ly.initWeights(rng)
		net.Layers = append(net.Layers, ly)
		prev = h
	}
	out := newLayer(nOut, prev, true)
	out.initWeights(rng)
	net.Layers = append(net.Layers, out)
	return net
}

// Train fits a network to the given instances. inputs[i] is the attribute
// vector of instance i and targets[i] its numeric target vector (usually one
// element). All instances must share the same arity.
//
// The trainer runs WEKA-style online back-propagation: per sample, a
// forward pass, the deltas from the weights before the update, then one
// momentum step on every weight and bias. It walks the weights once per
// sample: each unit's update is fused with the next sample's forward pass
// through the updated row (trainPad.step). Every weight and activation
// sees the same operations in the same order as with three separate
// phases, so trained weights are bit-identical to them. All scratch is
// pooled, so a warm trainer's allocation count is independent of epochs
// and sample count.
func Train(inputs, targets [][]float64, cfg Config) (*Network, error) {
	if _, _, err := checkTrainingSet(inputs, targets); err != nil {
		return nil, err
	}
	cfg.fillDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	net := newNetwork(inputs, targets, cfg.hiddenSizes(len(inputs[0]), len(targets[0])), rng)

	pad := trainPadPool.Get()
	defer trainPadPool.Put(pad)
	pad.instances(net, inputs, targets)
	pad.buffers(net)
	pad.loadLanes(&net.Layers[0])
	order := pad.order
	shuffle := func() {
		if cfg.Shuffle {
			rng.Shuffle(len(order), func(a, b int) { order[a], order[b] = order[b], order[a] })
		}
	}
	shuffle()
	cur, nxt := pad.acts[0], pad.acts[1]
	cur[0] = pad.xs[order[0]]
	net.forward(cur)
	for epoch := 1; epoch <= cfg.Epochs; epoch++ {
		lr := cfg.LearningRate
		if cfg.Decay {
			lr /= float64(epoch)
		}
		for pos, i := range order {
			net.deltas(cur, pad.ys[i], pad.deltas)
			if pos == len(order)-1 && epoch < cfg.Epochs {
				// The next epoch's shuffle may run before this update:
				// updates never draw from rng, so the draws are the same.
				shuffle()
			}
			// The next sample's input. After the very last sample this
			// wraps to the first instance: that forward pass is discarded,
			// and it leaves the weights exactly as a plain update would.
			nxt[0] = pad.xs[order[(pos+1)%len(order)]]
			pad.step(net, cur, nxt, lr, cfg.Momentum)
			cur, nxt = nxt, cur
		}
	}
	pad.storeLanes(&net.Layers[0])
	return net, nil
}

// newActivations allocates per-layer activation buffers (layer 0 is input).
func (n *Network) newActivations() [][]float64 {
	acts := make([][]float64, len(n.Layers)+1)
	acts[0] = make([]float64, n.NIn)
	for l, ly := range n.Layers {
		acts[l+1] = make([]float64, len(ly.W))
	}
	return acts
}

// applyLayer runs one layer over in/out: bias preload, fused
// matrix-vector accumulation in ascending-k order, then the activation.
// Identical arithmetic to the original per-unit scalar loop (the sigmoid
// is applied per element after the sums, which computes the same
// values).
func applyLayer(ly *layer, in, out []float64) {
	copy(out, ly.B)
	_ = ly.wm.MulVecAddInto(out, in)
	if !ly.Linear {
		lanes.Sigmoids(out)
	}
}

// forward computes activations in place; acts[0] must hold the (normalised)
// input.
func (n *Network) forward(acts [][]float64) {
	for l := range n.Layers {
		applyLayer(&n.Layers[l], acts[l], acts[l+1])
	}
}

// deltas computes one sample's back-propagation deltas from its
// activations and the weights before the update: t − o for the linear
// output units, o(1 − o)·Σ_k w_kj·δ_k for hidden units.
func (n *Network) deltas(acts [][]float64, y []float64, dst [][]float64) {
	last := len(n.Layers)
	for j, o := range acts[last] {
		dst[last][j] = y[j] - o
	}
	for l := last - 1; l >= 1; l-- {
		n.Layers[l].backpropDeltas(acts[l], dst[l+1], dst[l])
	}
}

// backpropDeltas pushes the next layer's deltas (dNext) through this
// layer's weights and modulates by the sigmoid derivative, writing the
// activation-level deltas into dst. Σ_k w_kj·d_k accumulates k-ascending
// (MulVecTInto), then multiplies by o·(1−o) — multiplication order
// differs from the original `o·(1−o)·Σ` only by operand order of one
// product, which IEEE-754 multiplication keeps bit-identical.
func (ly *layer) backpropDeltas(act, dNext, dst []float64) {
	_ = ly.wm.MulVecTInto(dst, dNext)
	for j, a := range act {
		dst[j] *= a * (1 - a)
	}
}

// step applies one sample's momentum update to every layer and runs the
// next sample's forward pass through the updated weights in the same
// pass: cur holds the sample's activations, nxt[0] the next sample's
// input, and nxt receives the next sample's activations. The first
// layer steps in lanes, four units at a time, from the pad's k-major
// copy; the others step row by row.
func (p *trainPad) step(net *Network, cur, nxt [][]float64, lr, mu float64) {
	copy(p.d, p.deltas[1])
	lanes.Step(p.wT, p.dwT, cur[0], nxt[0], p.d, p.b, p.db, p.s, lr, mu)
	if !net.Layers[0].Linear {
		lanes.Sigmoids(p.s)
	}
	copy(nxt[1], p.s)
	for l := 1; l < len(net.Layers); l++ {
		net.Layers[l].step(cur[l], nxt[l], p.deltas[l+1], nxt[l+1], lr, mu)
	}
}

// step updates the layer for one sample with inputs in and deltas d, and
// writes the forward pass of the next sample's inputs (next) into out.
// For unit j, with g = lr·d_j, it runs k ascending
//
//	upd = g·in_k + mu·dw_jk;  w_jk += upd;  dw_jk = upd;  s += w_jk·next_k
//
// from s = B_j after the bias's own momentum step; once every unit has
// its sum, a sigmoid layer activates them all, as applyLayer does. These
// are the operations of a momentum update followed by applyLayer, in the
// same order on the same operands, so weights and activations are
// bit-identical to the two separate passes.
func (ly *layer) step(in, next, d, out []float64, lr, mu float64) {
	n := len(in)
	next = next[:n]
	for j := range ly.B {
		g := lr * d[j]
		s := ly.stepBias(j, g, mu)
		w, dw := ly.row(j, n)
		for k, x := range in {
			u := g*x + mu*dw[k]
			v := w[k] + u
			w[k], dw[k] = v, u
			s += v * next[k]
		}
		out[j] = s
	}
	if !ly.Linear {
		lanes.Sigmoids(out)
	}
}

// row returns unit j's weight and momentum rows (n wide) from the flat
// storage.
func (ly *layer) row(j, n int) (w, dw []float64) {
	return ly.wf[j*n : (j+1)*n : (j+1)*n], ly.dwf[j*n : (j+1)*n : (j+1)*n]
}

// stepBias applies unit j's momentum step to its bias and returns the
// updated bias, which seeds the unit's next forward sum.
func (ly *layer) stepBias(j int, g, mu float64) float64 {
	upd := g + mu*ly.dB[j]
	ly.B[j] += upd
	ly.dB[j] = upd
	return ly.B[j]
}

// Forward is reusable forward-pass scratch for one network topology. A
// Forward is valid for every network with the same layer sizes — in
// particular for all members of one Ensemble. It is not safe for
// concurrent use; per-worker code paths keep one Forward per worker.
type Forward struct {
	acts [][]float64
	out  []float64
}

// NewForward allocates forward-pass scratch sized for n.
func (n *Network) NewForward() *Forward {
	return &Forward{acts: n.newActivations(), out: make([]float64, n.NOut)}
}

// compatible reports whether f's buffers fit n's topology.
func (f *Forward) compatible(n *Network) bool {
	if len(f.acts) != len(n.Layers)+1 || len(f.acts[0]) != n.NIn || len(f.out) != n.NOut {
		return false
	}
	for l, ly := range n.Layers {
		if len(f.acts[l+1]) != len(ly.W) {
			return false
		}
	}
	return true
}

// predictInto runs one forward pass through f's buffers, writing the
// denormalised output into dst (length NOut). Identical arithmetic to
// Predict — only the buffer lifetimes differ.
func (n *Network) predictInto(f *Forward, x, dst []float64) {
	n.In.applyInto(x, f.acts[0])
	n.forward(f.acts)
	n.Out.invertInto(f.acts[len(f.acts)-1], dst)
}

// Predict returns the network output for attribute vector x.
func (n *Network) Predict(x []float64) ([]float64, error) {
	if len(x) != n.NIn {
		return nil, fmt.Errorf("mlp: Predict with %d attributes, network has %d", len(x), n.NIn)
	}
	out := make([]float64, n.NOut)
	f := n.NewForward()
	n.predictInto(f, x, out)
	return out, nil
}

// Predict1 is Predict for single-output networks, returning the scalar.
func (n *Network) Predict1(x []float64) (float64, error) {
	out, err := n.Predict(x)
	if err != nil {
		return 0, err
	}
	if len(out) != 1 {
		return 0, fmt.Errorf("mlp: Predict1 on network with %d outputs", len(out))
	}
	return out[0], nil
}

// MarshalJSON serialises the trained network (momentum state excluded).
func (n *Network) MarshalJSON() ([]byte, error) {
	type alias Network
	return json.Marshal((*alias)(n))
}

// UnmarshalJSON restores a network serialised with MarshalJSON,
// repacking the weights into kernel storage and reallocating the
// transient momentum buffers.
func (n *Network) UnmarshalJSON(b []byte) error {
	type alias Network
	if err := json.Unmarshal(b, (*alias)(n)); err != nil {
		return err
	}
	return n.Repack()
}

// Repack rebuilds the flat kernel storage of every layer from the
// serialised W rows — weight values are copied, not changed — and
// reallocates the momentum buffers. Deserialisers (JSON here, the gob
// model codec in internal/transpose) call it so restored networks take
// the batched kernel paths; it must not be called concurrently with
// prediction on the same network. It returns an error, leaving n
// unchanged, when the serialised shape is inconsistent: layer widths
// that do not chain from NIn inputs to NOut outputs, or scalers of the
// wrong width.
func (n *Network) Repack() error {
	if err := n.checkShape(); err != nil {
		return err
	}
	for l := range n.Layers {
		ly := &n.Layers[l]
		units := len(ly.W)
		prev := 0
		if units > 0 {
			prev = len(ly.W[0])
		}
		fresh := newLayer(units, prev, ly.Linear)
		for j, w := range ly.W {
			copy(fresh.W[j], w)
		}
		fresh.B = ly.B
		ly.W, ly.dB = fresh.W, fresh.dB
		ly.wf, ly.dwf, ly.wm = fresh.wf, fresh.dwf, fresh.wm
	}
	return nil
}

// checkShape reports whether n is a network Train could have produced:
// at least one layer, each layer's rows as wide as the layer before it
// (NIn for the first), one bias per unit, NOut output units, and scalers
// NIn and NOut wide.
func (n *Network) checkShape() error {
	if n.NIn < 1 || n.NOut < 1 || len(n.Layers) == 0 {
		return fmt.Errorf("mlp: network of %d layers from %d inputs to %d outputs", len(n.Layers), n.NIn, n.NOut)
	}
	if len(n.In.Min) != n.NIn || len(n.In.Max) != n.NIn || len(n.Out.Min) != n.NOut || len(n.Out.Max) != n.NOut {
		return fmt.Errorf("mlp: scalers do not match %d inputs and %d outputs", n.NIn, n.NOut)
	}
	prev := n.NIn
	for l, ly := range n.Layers {
		if len(ly.W) == 0 || len(ly.B) != len(ly.W) {
			return fmt.Errorf("mlp: layer %d has %d units and %d biases", l, len(ly.W), len(ly.B))
		}
		for _, row := range ly.W {
			if len(row) != prev {
				return fmt.Errorf("mlp: layer %d unit with %d weights after a %d-wide layer", l, len(row), prev)
			}
		}
		prev = len(ly.W)
	}
	if prev != n.NOut {
		return fmt.Errorf("mlp: output layer has %d units for %d outputs", prev, n.NOut)
	}
	return nil
}

// RMSE returns the root-mean-square error of the network on a labelled set.
func (n *Network) RMSE(inputs, targets [][]float64) (float64, error) {
	if len(inputs) != len(targets) {
		return 0, fmt.Errorf("mlp: RMSE with %d inputs and %d targets", len(inputs), len(targets))
	}
	if len(inputs) == 0 {
		return 0, ErrNoData
	}
	var se float64
	var cnt int
	for i := range inputs {
		out, err := n.Predict(inputs[i])
		if err != nil {
			return 0, err
		}
		for j, o := range out {
			d := targets[i][j] - o
			se += d * d
			cnt++
		}
	}
	return math.Sqrt(se / float64(cnt)), nil
}
