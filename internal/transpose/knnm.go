package transpose

import (
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"math"

	"repro/internal/engine"
	"repro/internal/knn"
)

// KNNM is the plain machine-space kNN baseline: the application's score
// on a target machine is predicted as the inverse-squared-distance
// weighted mean of its measured scores on the K predictive machines
// whose benchmark profiles are nearest the target's. Distances are
// Euclidean in log₂-score space over the training benchmarks, so a
// machine's performance profile matters alongside its absolute level
// (the same space MedoidSubset clusters in).
//
// It is the k-neighbour generalisation of NNᵀ's pick-the-single-best
// machine — no regression, no learned weights — registered as a
// baseline to calibrate how much the transposition models add. Like
// NNᵀ and SPLᵀ, the fitted neighbour sets depend only on the training
// benchmarks, so one fitted model ranks the same target set for any
// application (the fresh-scores serving path).
type KNNM struct {
	// K is the number of predictive machines averaged per target.
	K int
}

// DefaultKNNMK is the neighbour count of NewKNNM.
const DefaultKNNMK = 5

// NewKNNM returns the machine-space kNN baseline with K = DefaultKNNMK.
func NewKNNM() *KNNM {
	return &KNNM{K: DefaultKNNMK}
}

// Name implements Predictor.
func (*KNNM) Name() string { return "kNN^M" }

// PredictApp implements Predictor as a thin adapter over Fit.
func (p *KNNM) PredictApp(f Fold) ([]float64, error) {
	return FitPredict(p, f)
}

// KNNMModel is the trained kNNᴹ artifact: per target machine, the K
// nearest predictive machines with their log-space distances.
type KNNMModel struct {
	// Neighbours[t] lists target t's nearest predictive machines,
	// closest first (Index is a predictive-machine column).
	Neighbours [][]knn.Neighbour

	appOnPred []float64
}

// NumTargets implements Model.
func (m *KNNMModel) NumTargets() int { return len(m.Neighbours) }

// PredictTargets implements Model using the fitted fold's application
// measurements.
func (m *KNNMModel) PredictTargets(dst []float64) error {
	return m.PredictTargetsWith(m.appOnPred, dst)
}

// PredictTargetsWith extrapolates an application with the given scores
// on the predictive machines — the serving path: the neighbour sets
// depend only on the training benchmarks, so one fitted model answers
// ranking queries for any number of applications.
func (m *KNNMModel) PredictTargetsWith(appOnPred, dst []float64) error {
	if len(dst) != len(m.Neighbours) {
		return fmt.Errorf("transpose: kNN^M model predicts %d targets, got %d slots", len(m.Neighbours), len(dst))
	}
	const eps = 1e-9
	for t, nbrs := range m.Neighbours {
		var num, den float64
		for _, n := range nbrs {
			if n.Index < 0 || n.Index >= len(appOnPred) {
				return fmt.Errorf("transpose: kNN^M model needs %d predictive scores, got %d", n.Index+1, len(appOnPred))
			}
			w := 1 / (n.Distance*n.Distance + eps)
			num += w * appOnPred[n.Index]
			den += w
		}
		dst[t] = num / den
	}
	return nil
}

// Fit implements Fitter: for each target machine it ranks the predictive
// machines by log₂-space profile distance over the training benchmarks
// and keeps the K nearest with their distances.
func (p *KNNM) Fit(f Fold) (Model, error) {
	if err := f.Validate(); err != nil {
		return nil, err
	}
	if p.K < 1 {
		return nil, fmt.Errorf("transpose: kNN^M k = %d must be >= 1", p.K)
	}
	np := f.Pred.NumMachines()
	if np == 0 {
		return nil, errors.New("transpose: kNN^M needs at least one predictive machine")
	}
	s := foldScratchPool.Get()
	defer foldScratchPool.Put(s)
	nb := f.Pred.NumBenchmarks()
	candidates := s.candidates(f.Pred)
	// Log-transform the predictive columns once; targets are transformed
	// per column below. Scores must be positive for the log-profile
	// distance to exist (dataset validation enforces this on every load
	// path).
	for _, col := range candidates {
		for i, v := range col {
			if v <= 0 || math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, fmt.Errorf("transpose: kNN^M needs positive finite scores, got %v", v)
			}
			col[i] = math.Log2(v)
		}
	}
	nt := f.Tgt.NumMachines()
	m := &KNNMModel{
		Neighbours: make([][]knn.Neighbour, nt),
		appOnPred:  f.AppOnPred,
	}
	k := min(p.K, np)
	s.y = engine.GrowFloats(s.y, nb)
	for t := 0; t < nt; t++ {
		f.Tgt.CopyColInto(t, s.y)
		for i, v := range s.y {
			if v <= 0 || math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, fmt.Errorf("transpose: kNN^M needs positive finite scores, got %v", v)
			}
			s.y[i] = math.Log2(v)
		}
		nbrs := make([]knn.Neighbour, 0, k)
		for c, col := range candidates {
			d := 0.0
			for i := range s.y {
				diff := s.y[i] - col[i]
				d += diff * diff
			}
			nbrs = knn.Insert(nbrs, k, knn.Neighbour{Index: c, Distance: math.Sqrt(d)})
		}
		m.Neighbours[t] = nbrs
	}
	return m, nil
}

// knnmWire is KNNMModel's payload.
type knnmWire struct {
	Neighbours [][]knn.Neighbour
	AppOnPred  []float64
}

// ModelKind implements BinaryModel.
func (m *KNNMModel) ModelKind() string { return "knnm" }

// EncodePayload implements BinaryModel.
func (m *KNNMModel) EncodePayload(w io.Writer) error {
	return gob.NewEncoder(w).Encode(knnmWire{Neighbours: m.Neighbours, AppOnPred: m.appOnPred})
}

func decodeKNNMModel(r io.Reader) (Model, error) {
	var wire knnmWire
	if err := gob.NewDecoder(r).Decode(&wire); err != nil {
		return nil, err
	}
	for t, nbrs := range wire.Neighbours {
		if len(nbrs) == 0 {
			return nil, fmt.Errorf("kNN^M payload target %d has no neighbours", t)
		}
		for _, n := range nbrs {
			if n.Index < 0 || n.Index >= len(wire.AppOnPred) {
				return nil, fmt.Errorf("kNN^M payload target %d references predictive machine %d of %d", t, n.Index, len(wire.AppOnPred))
			}
			if math.IsNaN(n.Distance) || n.Distance < 0 {
				return nil, fmt.Errorf("kNN^M payload neighbour distance %v", n.Distance)
			}
		}
	}
	return &KNNMModel{Neighbours: wire.Neighbours, appOnPred: wire.AppOnPred}, nil
}

func init() {
	RegisterModelKind("knnm", decodeKNNMModel)
}
