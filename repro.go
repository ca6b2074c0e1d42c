// Package repro is the public API of the data-transposition reproduction —
// "Ranking Commercial Machines through Data Transposition" (Piccart,
// Georges, Blockeel, Eeckhout; IISWC 2011).
//
// The package answers the paper's question: given a published performance
// database (benchmarks × target machines) and a handful of predictive
// machines the user can run code on, which target machine is best for an
// application of interest that is not in the benchmark suite?
//
//	data, _ := repro.Generate(repro.DefaultDatasetOptions(1))
//	// Split the database: the user owns the AMD K10 boxes, everything
//	// else is a machine they could buy.
//	targets, predictive, _ := data.Matrix.FamilySplit("AMD Opteron (K10)")
//	// ... run the application of interest on the predictive machines ...
//	ranked, _ := repro.RankMachines(predictive, targets, appScores, repro.NewMLPT(7))
//	fmt.Println("buy:", ranked[0].Machine.ID)
//
// The paper's predictors are provided — the two data-transposition
// models (NewNNT, NewMLPT) and the prior-art workload-similarity
// baseline (NewGAKNN) — plus two extensions: spline transposition
// (NewSPLT) and a plain machine-space kNN baseline, which a RankServer
// serves under the method name "kNN^M" (see Methods). The
// experiments subcommands reproduce every table and figure of the
// paper's evaluation; see the EXPERIMENTS.md file.
//
// Beyond the one-shot library calls, NewRankServer turns the reproduction
// into a service: trained models are cached in a Registry (fit once, serve
// many queries), persisted with EncodeModel/DecodeModel for cheap
// restarts, and exposed over a small HTTP JSON API — cmd/dtrankd is the
// ready-made daemon, and server rankings are byte-identical to the
// library path. See the README's Serving section.
package repro

import (
	"errors"
	"fmt"
	"io"

	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/gaknn"
	"repro/internal/machine"
	"repro/internal/method"
	"repro/internal/mica"
	"repro/internal/perfmodel"
	"repro/internal/resultstore"
	"repro/internal/serve"
	"repro/internal/synth"
	"repro/internal/transpose"
)

// Re-exported core types. The detailed documentation lives with the
// definitions in the internal packages.
type (
	// Dataset is a synthetic SPEC CPU2006 database: the score matrix,
	// workload profiles, measured characteristics and machine configs.
	Dataset = synth.Data
	// DatasetOptions controls dataset synthesis.
	DatasetOptions = synth.Options
	// Matrix is a benchmarks × machines performance table.
	Matrix = dataset.Matrix
	// MachineInfo is the metadata of one machine column.
	MachineInfo = dataset.Machine
	// MachineConfig is a full microarchitectural machine description.
	MachineConfig = machine.Config
	// Workload is a microarchitecture-independent program profile.
	Workload = mica.Workload
	// Predictor predicts an application's score on target machines in one
	// shot (the legacy interface; built-ins also implement Fitter).
	Predictor = transpose.Predictor
	// Fitter is the two-phase predictor API: Fit trains on a fold and
	// returns a reusable trained Model.
	Fitter = transpose.Fitter
	// Model is a trained predictor artifact: fit once, predict many times.
	Model = transpose.Model
	// Fold is one prediction task.
	Fold = transpose.Fold
	// Metrics are the paper's accuracy measures for one fold.
	Metrics = transpose.Metrics
	// FoldResult is a labelled, evaluated fold.
	FoldResult = transpose.FoldResult
	// ExperimentConfig parameterises the experiment runners.
	ExperimentConfig = experiments.Config
	// CPIBreakdown itemises the analytic performance model's components.
	CPIBreakdown = perfmodel.Breakdown
	// BinaryModel is a trained Model that can be persisted with
	// EncodeModel and restored with DecodeModel. All built-in model
	// artifacts implement it.
	BinaryModel = transpose.BinaryModel
	// RankServer is the ranking service: a model registry over a dataset
	// snapshot plus the HTTP API in front of it (cmd/dtrankd's engine).
	RankServer = serve.Server
	// ServeOptions configures a RankServer.
	ServeOptions = serve.Options
	// Registry caches fitted models with singleflight fitting and an LRU
	// bound, and persists them to and from a directory.
	Registry = serve.Registry
	// RegistryKey identifies one fitted model in a Registry.
	RegistryKey = serve.Key
	// RankRequest is the body of the server's POST /v1/rank.
	RankRequest = serve.RankRequest
	// RankResponse is the ranking answer shared byte-for-byte by the
	// server and `dtrank rank -json`.
	RankResponse = serve.RankResponse
	// MethodInfo describes one registered prediction method: canonical
	// name, aliases, seed offset, serialization kind and capability
	// flags, straight from the method registry.
	MethodInfo = method.Info
	// ResultStore is the content-addressed experiment result store
	// interface: every table cell, figure point and ablation variant is
	// keyed by (recipe fingerprint, spec id, method, split, seed),
	// CRC-checked at rest, and reruns recompute only missing or
	// invalidated units. Backends: in-memory, directory, remote HTTP
	// (OpenResultStore).
	ResultStore = resultstore.Store
	// ResultKey addresses one experiment unit in a ResultStore.
	ResultKey = resultstore.Key
)

// DefaultDatasetOptions returns the synthesis options used for all
// reported results, seeded deterministically.
func DefaultDatasetOptions(seed int64) DatasetOptions {
	return synth.DefaultOptions(seed)
}

// Generate builds the synthetic SPEC CPU2006 database: 29 benchmarks × the
// 117 commercial machines of the paper's Table 1.
func Generate(opts DatasetOptions) (*Dataset, error) {
	return synth.Generate(opts)
}

// GenerateFor synthesises a database for a custom machine roster and
// workload table (used e.g. for design-space exploration).
func GenerateFor(roster []MachineConfig, workloads []Workload, opts DatasetOptions) (*Dataset, error) {
	table, err := mica.NewTable(workloads)
	if err != nil {
		return nil, err
	}
	return synth.GenerateFor(roster, table, opts)
}

// Roster returns the 117-machine Table 1 roster.
func Roster() ([]MachineConfig, error) { return machine.Roster() }

// ReferenceMachine returns the SPEC CPU2006 reference machine model (SUN
// Ultra5_10, 296 MHz).
func ReferenceMachine() MachineConfig { return machine.Reference() }

// SPEC2006Workloads returns the 29 benchmark profiles.
func SPEC2006Workloads() []Workload { return mica.SPEC2006() }

// PredictSPECRatio evaluates the analytic performance model: the modelled
// SPEC speed ratio of machine c on workload w.
func PredictSPECRatio(c MachineConfig, w Workload) (float64, error) {
	return perfmodel.SPECRatio(c, w)
}

// PredictCPI returns the analytic model's CPI breakdown for one
// (machine, workload) pair.
func PredictCPI(c MachineConfig, w Workload) (CPIBreakdown, error) {
	return perfmodel.CPI(c, w)
}

// NewNNT returns the paper's NNᵀ predictor (data transposition through
// per-machine-pair linear regression).
func NewNNT() Predictor { return transpose.NNT{} }

// NewMLPT returns the paper's MLPᵀ predictor (data transposition through a
// multilayer perceptron), deterministically seeded.
func NewMLPT(seed int64) Predictor { return transpose.NewMLPT(seed) }

// NewGAKNN returns the prior-art GA-kNN baseline (Hoste et al.),
// deterministically seeded.
func NewGAKNN(seed int64) Predictor { return gaknn.New(seed) }

// NewSPLT returns the SPLᵀ predictor — data transposition through cubic
// regression splines, an extension beyond the paper's two models after the
// spline-based empirical models of Lee & Brooks its related work discusses.
func NewSPLT() Predictor { return transpose.NewSPLT() }

// NewFold prepares a leave-one-out prediction task: the named benchmark is
// removed from both matrices and plays the application of interest. The
// returned slice holds the application's measured scores on the target
// machines (ground truth for evaluation).
func NewFold(predictive, targets *Matrix, app string, chars map[string][]float64) (Fold, []float64, error) {
	return transpose.NewFold(predictive, targets, app, chars)
}

// RunFold executes and evaluates one leave-one-out prediction task.
func RunFold(predictive, targets *Matrix, app string, chars map[string][]float64, p Predictor) (Metrics, []float64, []float64, error) {
	return transpose.RunFold(predictive, targets, app, chars, p)
}

// Evaluate computes the paper's metrics of predictions against measured
// application scores.
func Evaluate(actual, predicted []float64) (Metrics, error) {
	return transpose.Evaluate(actual, predicted)
}

// RankedMachine is one entry of a predicted machine ranking.
type RankedMachine struct {
	Machine MachineInfo
	// Predicted is the predicted score of the application of interest on
	// this machine (higher is better).
	Predicted float64
}

// FitFold trains p on a prepared Fold and returns the trained model — the
// serving entry point: fit once per split, then call Model.PredictTargets
// (or the model-specific query methods, e.g. NNTModel.PredictTargetsWith)
// for any number of ranking queries without retraining. It errors when p
// does not implement the two-phase Fitter API.
func FitFold(fold Fold, p Predictor) (Model, error) {
	if p == nil {
		return nil, errors.New("repro: nil predictor")
	}
	ft, ok := p.(Fitter)
	if !ok {
		return nil, fmt.Errorf("repro: predictor %s does not implement the Fit/Predict API", p.Name())
	}
	return ft.Fit(fold)
}

// RankMachines is the purchasing-decision entry point: given the published
// scores of the benchmark suite on the target machines, the user's own
// measurements of the same suite on the predictive machines, and the
// application's measured scores on the predictive machines, it predicts the
// application's performance on every target machine and returns the
// machines ranked best-first. Predictors implementing Fitter (all
// built-ins) are driven through the two-phase Fit/Predict API.
//
// Both matrices must carry the same benchmarks in the same order; the
// application of interest itself must not be among them. Predictors that
// need workload characteristics (GA-kNN) cannot be used here — build a Fold
// carrying Chars and use RankFold instead.
func RankMachines(predictive, targets *Matrix, appOnPredictive []float64, p Predictor) ([]RankedMachine, error) {
	if p == nil {
		return nil, errors.New("repro: nil predictor")
	}
	fold := Fold{
		AppName:   "application-of-interest",
		Pred:      predictive,
		AppOnPred: appOnPredictive,
		Tgt:       targets,
	}
	if err := fold.Validate(); err != nil {
		return nil, err
	}
	predicted, err := transpose.Predictions(p, fold)
	if err != nil {
		return nil, err
	}
	if len(predicted) != targets.NumMachines() {
		return nil, fmt.Errorf("repro: predictor returned %d predictions for %d machines",
			len(predicted), targets.NumMachines())
	}
	order := transpose.Ranking(predicted)
	out := make([]RankedMachine, len(order))
	for i, t := range order {
		out[i] = RankedMachine{Machine: targets.Machines[t], Predicted: predicted[t]}
	}
	return out, nil
}

// RankFold predicts the application of a prepared Fold on its target
// machines and returns them ranked best-first. Unlike RankMachines it
// passes the fold's workload characteristics through, so it works with
// every predictor including GA-kNN.
func RankFold(fold Fold, p Predictor) ([]RankedMachine, error) {
	if p == nil {
		return nil, errors.New("repro: nil predictor")
	}
	predicted, err := transpose.Predictions(p, fold)
	if err != nil {
		return nil, err
	}
	if len(predicted) != fold.Tgt.NumMachines() {
		return nil, fmt.Errorf("repro: predictor returned %d predictions for %d machines",
			len(predicted), fold.Tgt.NumMachines())
	}
	order := transpose.Ranking(predicted)
	out := make([]RankedMachine, len(order))
	for i, t := range order {
		out[i] = RankedMachine{Machine: fold.Tgt.Machines[t], Predicted: predicted[t]}
	}
	return out, nil
}

// DefaultExperimentConfig returns the experiment configuration used for
// the reported results.
func DefaultExperimentConfig(seed int64) ExperimentConfig {
	return experiments.DefaultConfig(seed)
}

// RunAllExperiments reproduces every table and figure of the paper's
// evaluation section and writes the rendered results to w. The experiment
// fan-out (folds, draws, sweep points) and GA fitness evaluation are
// bounded to cfg.Workers goroutines (0 = all cores). The output is
// byte-identical for every worker count, and — when cfg.Store is set —
// for cold versus warm result stores.
func RunAllExperiments(cfg ExperimentConfig, w io.Writer) error {
	return experiments.RunAll(cfg, w)
}

// ExperimentSpecIDs lists the declarative experiment specs in
// presentation order: every table, figure and ablation the reproduction
// can render.
func ExperimentSpecIDs() []string { return experiments.SpecIDs() }

// RunExperimentSpecs executes the named experiment specs in order,
// sharing one worker pool and one result store across them. With
// cfg.Store opened on a directory (OpenResultStore), the run is
// incremental: previously computed units are served from the store and
// output stays byte-identical to a cold run.
func RunExperimentSpecs(cfg ExperimentConfig, w io.Writer, ids ...string) error {
	return experiments.RunSpecs(cfg, w, ids...)
}

// OpenResultStore opens an experiment result store on loc. The argument
// is dir-or-URL, dispatched on its form:
//
//   - ""                      an in-memory store (process-local, unbounded)
//   - "http://…", "https://…" a remote store served by a dtrankd -cache
//     daemon; a URL without a path addresses the daemon's default mount,
//     /v1/store
//   - anything else           a directory store (created when absent)
//
// The directory layout is one CRC-checked file per unit, so it can share
// a directory with a dtrankd -registry model store, and a daemon's
// -cache directory is interchangeable with local directory access.
func OpenResultStore(loc string) (ResultStore, error) { return resultstore.Open(loc) }

// Methods lists the registered prediction methods — names, aliases, the
// seed-offset convention and capability flags — from the single registry
// that the CLI, the server and the experiment pipeline all build on.
func Methods() []MethodInfo { return method.List() }

// NewRankServer builds the ranking service over a performance matrix and
// optional workload characteristics (required only by GA-kNN queries).
// Mount Handler() on an http.Server, or use Rank directly in process; see
// cmd/dtrankd for the full daemon and examples/serving for library use.
func NewRankServer(m *Matrix, chars map[string][]float64, opts ServeOptions) (*RankServer, error) {
	return serve.NewServer(m, chars, opts)
}

// NewRegistry returns a standalone model registry bounded to max models
// (max <= 0 means serve.DefaultMaxModels).
func NewRegistry(max int) *Registry { return serve.NewRegistry(max) }

// EncodeModel persists a trained model (NNᵀ, SPLᵀ, MLPᵀ or GA-kNN) in the
// versioned binary format. A decoded model's predictions are bitwise
// identical to the original's.
func EncodeModel(w io.Writer, m Model) error { return transpose.EncodeModel(w, m) }

// DecodeModel restores a model written by EncodeModel, rejecting
// truncated, corrupted and version-mismatched payloads.
func DecodeModel(r io.Reader) (Model, error) { return transpose.DecodeModel(r) }

// SetWorkers bounds the process-wide worker budget shared by every
// parallel code path that is not driven by an ExperimentConfig: GA-kNN
// fitness evaluation outside an experiment run, such as a served fit.
// n <= 0 restores the default, runtime.GOMAXPROCS(0). Parallelism never
// changes results, only wall-clock time.
func SetWorkers(n int) { engine.SetDefaultWorkers(n) }
