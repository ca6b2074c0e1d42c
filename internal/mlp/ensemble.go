package mlp

import (
	"errors"
	"fmt"

	"repro/internal/engine"
	"repro/internal/la"
	"repro/internal/lanes"
)

// Ensemble averages the predictions of independently initialised networks
// trained on the same instances — the standard variance-reduction trick
// for WEKA-style online back-propagation, whose result depends on the
// weight initialisation.
type Ensemble struct {
	Nets []*Network
}

// TrainEnsemble trains n networks concurrently on pool (nil means
// engine.Default()). Member i trains with the seed derived from
// (cfg.Seed, i), except that a single-member ensemble uses cfg.Seed
// unchanged and is therefore exactly equivalent to Train. Training is
// deterministic: member seeds depend only on cfg.Seed and the member
// index, never on scheduling.
//
// Members are split into one contiguous chunk per available worker;
// chunks train concurrently and each member trains through Train. A
// member's weights depend only on its seed and the instances, so results
// are identical for every worker count.
func TrainEnsemble(inputs, targets [][]float64, cfg Config, n int, pool *engine.Pool) (*Ensemble, error) {
	if n < 1 {
		return nil, fmt.Errorf("mlp: ensemble of %d networks", n)
	}
	chunks := min(max(pool.Workers(), 1), n)
	nets := make([]*Network, n)
	err := pool.Map(chunks, func(g int) error {
		for i := g * n / chunks; i < (g+1)*n/chunks; i++ {
			c := cfg
			if n > 1 {
				c.Seed = engine.Seed(cfg.Seed, int64(i))
			}
			net, err := Train(inputs, targets, c)
			if err != nil {
				return err
			}
			nets[i] = net
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return &Ensemble{Nets: nets}, nil
}

// Predict returns the member-averaged output for attribute vector x.
func (e *Ensemble) Predict(x []float64) ([]float64, error) {
	if len(e.Nets) == 0 {
		return nil, errors.New("mlp: empty ensemble")
	}
	var out []float64
	for _, net := range e.Nets {
		y, err := net.Predict(x)
		if err != nil {
			return nil, err
		}
		if out == nil {
			out = y
			continue
		}
		if len(y) != len(out) {
			return nil, fmt.Errorf("mlp: ensemble members disagree on output arity (%d vs %d)", len(y), len(out))
		}
		for j, v := range y {
			out[j] += v
		}
	}
	for j := range out {
		out[j] /= float64(len(e.Nets))
	}
	return out, nil
}

// Predict1 is Predict for single-output ensembles, returning the scalar.
func (e *Ensemble) Predict1(x []float64) (float64, error) {
	out, err := e.Predict(x)
	if err != nil {
		return 0, err
	}
	if len(out) != 1 {
		return 0, fmt.Errorf("mlp: Predict1 on ensemble with %d outputs", len(out))
	}
	return out[0], nil
}

// NewForward allocates forward-pass scratch shared by all members (one
// Ensemble always holds identically shaped networks).
func (e *Ensemble) NewForward() (*Forward, error) {
	if len(e.Nets) == 0 {
		return nil, errors.New("mlp: empty ensemble")
	}
	return e.Nets[0].NewForward(), nil
}

// Predict1With is Predict1 with caller-owned scratch: no allocation per
// call. The member average accumulates in member order, exactly as
// Predict does, so results are bitwise identical.
func (e *Ensemble) Predict1With(f *Forward, x []float64) (float64, error) {
	if len(e.Nets) == 0 {
		return 0, errors.New("mlp: empty ensemble")
	}
	s := 0.0
	for i, net := range e.Nets {
		if net.NOut != 1 {
			return 0, fmt.Errorf("mlp: Predict1 on ensemble with %d outputs", net.NOut)
		}
		if len(x) != net.NIn {
			return 0, fmt.Errorf("mlp: Predict with %d attributes, network has %d", len(x), net.NIn)
		}
		if !f.compatible(net) {
			return 0, fmt.Errorf("mlp: Forward scratch does not fit ensemble member %d", i)
		}
		net.predictInto(f, x, f.out)
		if i == 0 {
			s = f.out[0]
		} else {
			s += f.out[0]
		}
	}
	return s / float64(len(e.Nets)), nil
}

// forwardScratch pools Forward buffers across Predict1Batch calls: the
// serving batch path predicts per flush, and at steady state (one
// topology per model, pool warmed) a flush borrows existing buffers
// instead of allocating fresh ones — the batched path is alloc-free.
var forwardScratch = engine.NewScratch(func() *Forward { return &Forward{} })

// ensure resizes f to fit n, keeping the existing buffers when the
// topology already matches (the steady-state case for pooled scratch).
func (f *Forward) ensure(n *Network) {
	if f.compatible(n) {
		return
	}
	f.acts = n.newActivations()
	f.out = make([]float64, n.NOut)
}

// batchPad is the pooled scratch of the GEMM batch-prediction path: the
// normalised input matrix, two ping-pong activation matrices, and the
// member-sum accumulator. Everything is fully overwritten per call, so
// reuse cannot change results; at steady state (fixed topology and batch
// size) a batch allocates nothing.
type batchPad struct {
	x   *la.Matrix
	act [2]*la.Matrix
	acc []float64
	out []float64
}

var batchPadPool = engine.NewScratch(func() *batchPad { return &batchPad{} })

// gemmTopology reports whether every member shares Nets[0]'s shape,
// i.e. whether the batch can run as member GEMMs. Members of other
// shapes take the per-sample path instead.
func (e *Ensemble) gemmTopology() bool {
	net0 := e.Nets[0]
	for _, net := range e.Nets {
		if net.NIn != net0.NIn || net.NOut != net0.NOut || len(net.Layers) != len(net0.Layers) {
			return false
		}
		for l := range net.Layers {
			if len(net.Layers[l].W) != len(net0.Layers[l].W) {
				return false
			}
		}
	}
	return true
}

// Predict1Batch predicts every input vector in one call, writing
// predictions into dst (len(dst) == len(inputs)). The whole batch runs
// as one matrix product per layer per member (X·Wᵀ with the bias
// preloaded), over pooled scratch — at steady state the batch allocates
// nothing. Each output element's accumulation chain is exactly the
// per-sample forward pass's, and members accumulate in member order, so
// results are bitwise identical to calling Predict1 per input.
func (e *Ensemble) Predict1Batch(inputs [][]float64, dst []float64) error {
	if len(dst) != len(inputs) {
		return fmt.Errorf("mlp: Predict1Batch with %d inputs and %d output slots", len(inputs), len(dst))
	}
	if len(e.Nets) == 0 {
		return errors.New("mlp: empty ensemble")
	}
	if !e.gemmTopology() {
		return e.predict1BatchPerSample(inputs, dst)
	}
	net0 := e.Nets[0]
	for _, net := range e.Nets {
		if net.NOut != 1 {
			return fmt.Errorf("mlp: Predict1 on ensemble with %d outputs", net.NOut)
		}
	}
	for _, x := range inputs {
		if len(x) != net0.NIn {
			return fmt.Errorf("mlp: Predict with %d attributes, network has %d", len(x), net0.NIn)
		}
	}
	nt := len(inputs)
	p := batchPadPool.Get()
	defer batchPadPool.Put(p)
	p.acc = engine.GrowFloats(p.acc, nt)
	p.out = engine.GrowFloats(p.out, 1)
	p.x = la.ReuseMatrix(p.x, nt, net0.NIn)
	for g, net := range e.Nets {
		for i, x := range inputs {
			net.In.applyInto(x, p.x.RowView(i))
		}
		cur := p.x
		for l := range net.Layers {
			ly := &net.Layers[l]
			nxt := la.ReuseMatrix(p.act[l&1], nt, len(ly.W))
			p.act[l&1] = nxt
			for i := 0; i < nt; i++ {
				copy(nxt.RowView(i), ly.B)
			}
			_ = cur.MulTAddInto(nxt, ly.wm)
			if !ly.Linear {
				for i := 0; i < nt; i++ {
					lanes.Sigmoids(nxt.RowView(i))
				}
			}
			cur = nxt
		}
		for i := 0; i < nt; i++ {
			net.Out.invertInto(cur.RowView(i), p.out)
			if g == 0 {
				p.acc[i] = p.out[0]
			} else {
				p.acc[i] += p.out[0]
			}
		}
	}
	for i := range dst {
		dst[i] = p.acc[i] / float64(len(e.Nets))
	}
	return nil
}

// predict1BatchPerSample is the pre-GEMM batch path: one pooled Forward,
// per-sample member loops. It remains both the fallback for networks
// without kernel storage and the reference the GEMM path is tested
// against.
func (e *Ensemble) predict1BatchPerSample(inputs [][]float64, dst []float64) error {
	f := forwardScratch.Get()
	defer forwardScratch.Put(f)
	f.ensure(e.Nets[0])
	for i, x := range inputs {
		y, err := e.Predict1With(f, x)
		if err != nil {
			return err
		}
		dst[i] = y
	}
	return nil
}
