// Package transpose implements the paper's contribution: performance
// prediction for an application of interest on inaccessible target machines
// by transposing the benchmark × machine matrix and exploiting machine
// similarity.
//
// Two empirical models are provided, matching the paper's notation:
//
//   - NNᵀ (linear regression): for each target machine, fit one simple
//     regression of its benchmark scores against each predictive machine's
//     scores, keep the best-fitting predictive machine and extrapolate the
//     application's score through that model.
//   - MLPᵀ (neural network): train a multilayer perceptron that maps a
//     machine's benchmark scores to the application's score on that
//     machine, using the predictive machines as training instances, then
//     apply it to every target machine.
//
// The package also provides the evaluation metrics (Spearman rank
// correlation of the machine ranking, top-1 deficiency, mean relative
// error), the cross-validation drivers used by every experiment, and
// predictive-machine selection by random sampling or k-medoids clustering.
package transpose

import (
	"errors"
	"fmt"

	"repro/internal/dataset"
	"repro/internal/mlp"
	"repro/internal/stats"
)

// Fold is one prediction task: a benchmark designated as the application of
// interest, removed from both halves of the database.
type Fold struct {
	// AppName is the application of interest (a held-out benchmark).
	AppName string
	// Pred holds the remaining benchmarks × predictive machines.
	Pred *dataset.Matrix
	// AppOnPred holds the application's measured scores on the predictive
	// machines (the runs the user performs).
	AppOnPred []float64
	// Tgt holds the remaining benchmarks × target machines (the published
	// database).
	Tgt *dataset.Matrix
	// Chars optionally holds microarchitecture-independent characteristic
	// vectors for all benchmarks including the application; only
	// workload-similarity baselines (GA-kNN) use it.
	Chars map[string][]float64
}

// Validate checks internal consistency of the fold.
func (f Fold) Validate() error {
	if f.AppName == "" {
		return errors.New("transpose: fold without application name")
	}
	if f.Pred == nil || f.Tgt == nil {
		return errors.New("transpose: fold with nil matrices")
	}
	if len(f.AppOnPred) != f.Pred.NumMachines() {
		return fmt.Errorf("transpose: %d app scores for %d predictive machines",
			len(f.AppOnPred), f.Pred.NumMachines())
	}
	if f.Pred.NumBenchmarks() != f.Tgt.NumBenchmarks() {
		return fmt.Errorf("transpose: predictive half has %d benchmarks, target half %d",
			f.Pred.NumBenchmarks(), f.Tgt.NumBenchmarks())
	}
	for i, b := range f.Pred.Benchmarks {
		if f.Tgt.Benchmarks[i] != b {
			return fmt.Errorf("transpose: benchmark order mismatch at %d: %q vs %q",
				i, b, f.Tgt.Benchmarks[i])
		}
		if b == f.AppName {
			return fmt.Errorf("transpose: application %q still present in the training benchmarks", b)
		}
	}
	return nil
}

// NewFold builds a Fold from full predictive and target matrices by removing
// the application of interest, per the paper's leave-one-out protocol
// (Figure 5). appOnTgt, the ground truth used only for evaluation, is
// returned alongside.
func NewFold(pred, tgt *dataset.Matrix, app string, chars map[string][]float64) (Fold, []float64, error) {
	predRest, appOnPred, err := pred.DropBenchmark(app)
	if err != nil {
		return Fold{}, nil, err
	}
	tgtRest, appOnTgt, err := tgt.DropBenchmark(app)
	if err != nil {
		return Fold{}, nil, err
	}
	f := Fold{AppName: app, Pred: predRest, AppOnPred: appOnPred, Tgt: tgtRest, Chars: chars}
	if err := f.Validate(); err != nil {
		return Fold{}, nil, err
	}
	return f, appOnTgt, nil
}

// Predictor predicts the application's score on every target machine in
// one shot. It is the legacy interface kept for external implementations
// and migration; the built-in methods implement the two-phase Fitter API
// (Fit returning a reusable Model) and satisfy Predictor through the
// FitPredict adapter.
type Predictor interface {
	// Name identifies the method ("NN^T", "MLP^T", "GA-kNN").
	Name() string
	// PredictApp returns one predicted score per target machine of f.Tgt.
	PredictApp(f Fold) ([]float64, error)
}

// NNT is the data-transposition predictor backed by per-machine-pair simple
// linear regression (the paper's NNᵀ).
type NNT struct{}

// Name implements Predictor.
func (NNT) Name() string { return "NN^T" }

// PredictApp implements Predictor as a thin adapter over Fit: for each
// target machine the fitted model keeps the predictive machine whose
// benchmark scores fit the target's best (highest R²) and extrapolates the
// application of interest through that regression.
func (p NNT) PredictApp(f Fold) ([]float64, error) {
	return FitPredict(p, f)
}

// MLPT is the data-transposition predictor backed by a multilayer
// perceptron (the paper's MLPᵀ). The paper uses the WEKA v3 Multilayer
// Perceptron with default settings; MLPTConfig mirrors those defaults.
type MLPT struct {
	// Config controls training; zero-valued fields fall back to the WEKA
	// defaults.
	Config mlp.Config
}

// NewMLPT returns an MLPᵀ predictor with WEKA-default training driven by
// the given seed, plus learning-rate decay. Decay is the one deviation from
// the WEKA defaults the paper uses: our online back-propagation otherwise
// oscillates on folds with a hundred-plus training machines, degrading the
// predicted rankings (see EXPERIMENTS.md).
func NewMLPT(seed int64) *MLPT {
	cfg := mlp.DefaultConfig(seed)
	cfg.Decay = true
	return &MLPT{Config: cfg}
}

// Name implements Predictor.
func (*MLPT) Name() string { return "MLP^T" }

// PredictApp implements Predictor as a thin adapter over Fit: the trained
// network maps each target machine's published benchmark scores to a
// predicted application score, batched over all targets in one call.
func (m *MLPT) PredictApp(f Fold) ([]float64, error) {
	return FitPredict(m, f)
}

// Metrics are the paper's three accuracy measures for one fold.
type Metrics struct {
	// RankCorr is the Spearman rank correlation between the predicted and
	// the measured machine ranking (§6.1, metric i).
	RankCorr float64
	// Top1Err is the percentage performance deficiency incurred by buying
	// the predicted-best machine (§6.1, metric ii).
	Top1Err float64
	// MeanErr is the mean relative prediction error across the target
	// machines, in percent (§6.1, metric iii).
	MeanErr float64
}

// Evaluate computes the fold metrics of predictions against measured
// application scores on the target machines.
func Evaluate(actual, predicted []float64) (Metrics, error) {
	rc, err := stats.Spearman(actual, predicted)
	if err != nil {
		return Metrics{}, err
	}
	t1, err := stats.Top1Deficiency(actual, predicted)
	if err != nil {
		return Metrics{}, err
	}
	me, err := stats.MAPE(actual, predicted)
	if err != nil {
		return Metrics{}, err
	}
	return Metrics{RankCorr: rc, Top1Err: t1, MeanErr: me}, nil
}

// RunFold executes one prediction task end to end and evaluates it. It
// drives predictors through the two-phase Fit/Predict API when available.
func RunFold(pred, tgt *dataset.Matrix, app string, chars map[string][]float64, p Predictor) (Metrics, []float64, []float64, error) {
	fold, appOnTgt, err := NewFold(pred, tgt, app, chars)
	if err != nil {
		return Metrics{}, nil, nil, err
	}
	predicted, err := Predictions(p, fold)
	if err != nil {
		return Metrics{}, nil, nil, err
	}
	if len(predicted) != len(appOnTgt) {
		return Metrics{}, nil, nil, fmt.Errorf("transpose: predictor %s returned %d predictions for %d targets",
			p.Name(), len(predicted), len(appOnTgt))
	}
	m, err := Evaluate(appOnTgt, predicted)
	if err != nil {
		return Metrics{}, nil, nil, err
	}
	return m, appOnTgt, predicted, nil
}

// Ranking orders the target machine indices by predicted score, best first.
func Ranking(predicted []float64) []int {
	idx := make([]int, len(predicted))
	for i := range idx {
		idx[i] = i
	}
	// Stable selection sort by descending score keeps ties in input order
	// and is plenty fast for machine counts in the hundreds.
	for i := 0; i < len(idx); i++ {
		best := i
		for j := i + 1; j < len(idx); j++ {
			if predicted[idx[j]] > predicted[idx[best]] {
				best = j
			}
		}
		idx[i], idx[best] = idx[best], idx[i]
	}
	return idx
}
