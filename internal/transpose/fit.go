package transpose

import (
	"errors"
	"fmt"

	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/mlp"
	"repro/internal/regress"
	"repro/internal/spline"
)

// Model is a trained predictor artifact for one fold: the output of the
// fitting phase, reusable for repeated prediction without retraining.
// Models are cheap to keep and to query; they are not safe for concurrent
// use (each CV fold unit fits and queries its own).
type Model interface {
	// NumTargets returns the number of target machines the model predicts.
	NumTargets() int
	// PredictTargets writes one predicted application score per target
	// machine of the fitted fold into dst, which must have length
	// NumTargets.
	PredictTargets(dst []float64) error
}

// Fitter is the two-phase predictor API: Fit trains on a fold and returns
// the reusable Model. Every built-in predictor (NNᵀ, MLPᵀ, SPLᵀ, GA-kNN)
// implements Fitter; the one-shot Predictor interface remains as a thin
// adapter over it (see FitPredict).
type Fitter interface {
	// Name identifies the method ("NN^T", "MLP^T", "SPL^T", "GA-kNN").
	Name() string
	// Fit trains the method on the fold and returns the trained model.
	Fit(f Fold) (Model, error)
}

// FitPredict runs the two-phase API one-shot: fit, then predict every
// target machine. It is the adapter the legacy PredictApp entry points
// delegate to.
func FitPredict(ft Fitter, f Fold) ([]float64, error) {
	m, err := ft.Fit(f)
	if err != nil {
		return nil, err
	}
	dst := make([]float64, m.NumTargets())
	if err := m.PredictTargets(dst); err != nil {
		return nil, err
	}
	return dst, nil
}

// Predictions evaluates p on f through the two-phase API when p implements
// Fitter (all built-ins do), falling back to the one-shot interface for
// external Predictor implementations.
func Predictions(p Predictor, f Fold) ([]float64, error) {
	if ft, ok := p.(Fitter); ok {
		return FitPredict(ft, f)
	}
	return p.PredictApp(f)
}

// foldScratch carries the per-worker buffers of the fitting kernels:
// candidate predictive-machine columns (flat-backed), one target-machine
// column, and one input vector for network prediction. Units borrow it
// from foldScratchPool for the duration of a Fit or PredictTargets call;
// buffers only ever hold inputs copied in at the start of the call, so
// reuse cannot change results.
type foldScratch struct {
	flat []float64   // backing for cand: NumMachines × NumBenchmarks
	cand [][]float64 // candidate column headers into flat
	one  []float64   // backing for 1-wide training targets (MLPᵀ)
	tgts [][]float64 // 1-wide training target headers into one
	y    []float64   // one target machine's benchmark scores
}

var foldScratchPool = engine.NewScratch(func() *foldScratch { return &foldScratch{} })

// candidates fills cand with a copy of every machine column of d and
// returns it. The slice and its backing are owned by the scratch.
func (s *foldScratch) candidates(d *dataset.Matrix) [][]float64 {
	np, nb := d.NumMachines(), d.NumBenchmarks()
	s.flat = engine.GrowFloats(s.flat, np*nb)
	if cap(s.cand) < np {
		s.cand = make([][]float64, np)
	}
	s.cand = s.cand[:np]
	for p := 0; p < np; p++ {
		s.cand[p] = s.flat[p*nb : (p+1)*nb]
		d.CopyColInto(p, s.cand[p])
	}
	return s.cand
}

// oneWide fills tgts with vals viewed as n 1-element training targets.
func (s *foldScratch) oneWide(vals []float64) [][]float64 {
	n := len(vals)
	s.one = engine.GrowFloats(s.one, n)
	copy(s.one, vals)
	if cap(s.tgts) < n {
		s.tgts = make([][]float64, n)
	}
	s.tgts = s.tgts[:n]
	for i := range s.tgts {
		s.tgts[i] = s.one[i : i+1]
	}
	return s.tgts
}

// NNTModel is the trained NNᵀ artifact: for every target machine, the
// best-fitting predictive machine ("nearest neighbour") and the simple
// regression of the target's benchmark scores on that machine's. The pair
// selection depends only on the training benchmarks, so a fitted model can
// rank the same target set for any application by supplying fresh
// measurements to PredictTargetsWith.
type NNTModel struct {
	// PredIdx[t] is the predictive-machine column chosen for target t.
	PredIdx []int
	// Pair[t] is the fitted regression for target t against machine PredIdx[t].
	Pair []regress.Simple

	appOnPred []float64
}

// NumTargets implements Model.
func (m *NNTModel) NumTargets() int { return len(m.Pair) }

// PredictTargets implements Model using the fitted fold's application
// measurements.
func (m *NNTModel) PredictTargets(dst []float64) error {
	return m.PredictTargetsWith(m.appOnPred, dst)
}

// PredictTargetsWith extrapolates an application with the given scores on
// the predictive machines — the serving path: fit once per split, then
// answer ranking queries for any number of applications.
func (m *NNTModel) PredictTargetsWith(appOnPred, dst []float64) error {
	if len(dst) != len(m.Pair) {
		return fmt.Errorf("transpose: NN^T model predicts %d targets, got %d slots", len(m.Pair), len(dst))
	}
	for t := range m.Pair {
		p := m.PredIdx[t]
		if p < 0 || p >= len(appOnPred) {
			return fmt.Errorf("transpose: NN^T model needs %d predictive scores, got %d", p+1, len(appOnPred))
		}
		dst[t] = m.Pair[t].Predict(appOnPred[p])
	}
	return nil
}

// Fit implements Fitter: for each target machine it selects the predictive
// machine whose benchmark scores fit the target's best (highest R²) and
// keeps that regression as the trained pair model.
func (NNT) Fit(f Fold) (Model, error) {
	if err := f.Validate(); err != nil {
		return nil, err
	}
	if f.Pred.NumMachines() == 0 {
		return nil, errors.New("transpose: NN^T needs at least one predictive machine")
	}
	s := foldScratchPool.Get()
	defer foldScratchPool.Put(s)
	candidates := s.candidates(f.Pred)
	nt := f.Tgt.NumMachines()
	m := &NNTModel{
		PredIdx:   make([]int, nt),
		Pair:      make([]regress.Simple, nt),
		appOnPred: f.AppOnPred,
	}
	s.y = engine.GrowFloats(s.y, f.Tgt.NumBenchmarks())
	for t := 0; t < nt; t++ {
		f.Tgt.CopyColInto(t, s.y)
		best, pair, err := regress.BestSimple(candidates, s.y)
		if err != nil {
			return nil, fmt.Errorf("transpose: NN^T target %q: %w", f.Tgt.Machines[t].ID, err)
		}
		m.PredIdx[t], m.Pair[t] = best, *pair
	}
	return m, nil
}

// SPLTModel is the trained SPLᵀ artifact: one (predictive machine, cubic
// spline) pair per target machine, the curve-fitting analogue of NNTModel.
type SPLTModel struct {
	// PredIdx[t] is the predictive-machine column chosen for target t.
	PredIdx []int
	// Pair[t] is the fitted spline for target t against machine PredIdx[t].
	Pair []*spline.Model

	appOnPred []float64
}

// NumTargets implements Model.
func (m *SPLTModel) NumTargets() int { return len(m.Pair) }

// PredictTargets implements Model using the fitted fold's application
// measurements.
func (m *SPLTModel) PredictTargets(dst []float64) error {
	return m.PredictTargetsWith(m.appOnPred, dst)
}

// PredictTargetsWith extrapolates an application with the given scores on
// the predictive machines — the serving path, mirroring
// NNTModel.PredictTargetsWith: the spline pairs depend only on the
// training benchmarks, so one fitted model ranks the same target set for
// any application.
func (m *SPLTModel) PredictTargetsWith(appOnPred, dst []float64) error {
	if len(dst) != len(m.Pair) {
		return fmt.Errorf("transpose: SPL^T model predicts %d targets, got %d slots", len(m.Pair), len(dst))
	}
	for t := range m.Pair {
		p := m.PredIdx[t]
		if p < 0 || p >= len(appOnPred) {
			return fmt.Errorf("transpose: SPL^T model needs %d predictive scores, got %d", p+1, len(appOnPred))
		}
		dst[t] = m.Pair[t].Predict(appOnPred[p])
	}
	return nil
}

// Fit implements Fitter.
func (s *SPLT) Fit(f Fold) (Model, error) {
	if err := f.Validate(); err != nil {
		return nil, err
	}
	if f.Pred.NumMachines() == 0 {
		return nil, errors.New("transpose: SPL^T needs at least one predictive machine")
	}
	sc := foldScratchPool.Get()
	defer foldScratchPool.Put(sc)
	candidates := sc.candidates(f.Pred)
	nt := f.Tgt.NumMachines()
	m := &SPLTModel{
		PredIdx:   make([]int, nt),
		Pair:      make([]*spline.Model, nt),
		appOnPred: f.AppOnPred,
	}
	sc.y = engine.GrowFloats(sc.y, f.Tgt.NumBenchmarks())
	for t := 0; t < nt; t++ {
		f.Tgt.CopyColInto(t, sc.y)
		best, pair, err := spline.BestFit(candidates, sc.y, s.Options)
		if err != nil {
			return nil, fmt.Errorf("transpose: SPL^T target %q: %w", f.Tgt.Machines[t].ID, err)
		}
		m.PredIdx[t], m.Pair[t] = best, pair
	}
	return m, nil
}

// MLPTModel is the trained MLPᵀ artifact: the network mapping a
// machine's benchmark scores to the application's score on that machine,
// plus the target half of the fold it predicts.
type MLPTModel struct {
	// Net is the trained network.
	Net *mlp.Network

	tgt *dataset.Matrix
}

// NumTargets implements Model.
func (m *MLPTModel) NumTargets() int { return m.tgt.NumMachines() }

// PredictTargets implements Model: every target machine runs through one
// pooled forward pass in mlp, so a warm serving path predicts without
// allocating. Each target's prediction is the network's Predict1 bit for
// bit.
func (m *MLPTModel) PredictTargets(dst []float64) error {
	nt := m.tgt.NumMachines()
	if len(dst) != nt {
		return fmt.Errorf("transpose: MLP^T model predicts %d targets, got %d slots", nt, len(dst))
	}
	s := foldScratchPool.Get()
	defer foldScratchPool.Put(s)
	inputs := s.candidates(m.tgt)
	if err := m.Net.Predict1Batch(inputs, dst); err != nil {
		return fmt.Errorf("transpose: MLP^T predict: %w", err)
	}
	return nil
}

// Fit implements Fitter. Each predictive machine is one training instance:
// inputs are its benchmark scores, the target output is the application's
// score on it.
func (m *MLPT) Fit(f Fold) (Model, error) {
	if err := f.Validate(); err != nil {
		return nil, err
	}
	n := f.Pred.NumMachines()
	if n == 0 {
		return nil, errors.New("transpose: MLP^T needs at least one predictive machine")
	}
	s := foldScratchPool.Get()
	defer foldScratchPool.Put(s)
	inputs := s.candidates(f.Pred)
	targets := s.oneWide(f.AppOnPred)
	net, err := mlp.Train(inputs, targets, m.Config)
	if err != nil {
		return nil, fmt.Errorf("transpose: MLP^T training: %w", err)
	}
	return &MLPTModel{Net: net, tgt: f.Tgt}, nil
}
