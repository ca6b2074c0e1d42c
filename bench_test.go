// Benchmarks regenerating every table and figure of the paper's evaluation
// (§6), one benchmark per artefact, plus micro-benchmarks of the
// substrates. The experiment benchmarks use the Fast configuration (small
// GA budget, short MLP training) so a full -bench=. sweep stays tractable;
// reported numbers come from `dtrank all` with the default configuration.
package repro_test

import (
	"io"
	"testing"

	"repro"
	"repro/internal/experiments"
	"repro/internal/method"
	"repro/internal/synth"
	"repro/internal/transpose"
)

func benchConfig() experiments.Config {
	return experiments.Config{Seed: 1, RandomDraws: 2, MaxK: 4, Fast: true}
}

// BenchmarkRunFamilyCV compares the serial and parallel experiment
// engine on the §6.2 family cross-validation (3 methods × 17 families ×
// 29 leave-one-out folds). All worker counts produce byte-identical
// results, so any ratio between sub-benchmarks is pure speedup.
//
// Interpreting serial ≈ parallel: the engine's workers are goroutines,
// so wall-clock speedup is bounded by GOMAXPROCS, not by the -workers
// flag. On a single-CPU host (GOMAXPROCS=1) every variant below runs the
// same instruction stream under cooperative scheduling and the times
// collapse to within noise — that is the expected reading of the
// committed single-core BENCH snapshots, not a lost speedup. The
// workers=2/workers=8 dimension exists so multi-core runs can measure
// scaling directly (see README "Performance").
func BenchmarkRunFamilyCV(b *testing.B) {
	for _, bc := range []struct {
		name    string
		workers int
	}{
		{"serial", 1},
		{"workers=2", 2},
		{"workers=8", 8},
		{"parallel", 0}, // 0 = GOMAXPROCS
	} {
		b.Run(bc.name, func(b *testing.B) {
			cfg := benchConfig()
			cfg.Workers = bc.workers
			for i := 0; i < b.N; i++ {
				if _, err := experiments.RunFamilyCV(cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTable2FamilyCV regenerates Table 2: processor-family
// cross-validation of NNᵀ, MLPᵀ and GA-kNN.
func BenchmarkTable2FamilyCV(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		fr, err := experiments.RunFamilyCV(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := fr.Table2(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure6RankCorrelation regenerates Figure 6 from a family run
// (per-benchmark Spearman rank correlations).
func BenchmarkFigure6RankCorrelation(b *testing.B) {
	fr, err := experiments.RunFamilyCV(benchConfig())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f6, err := fr.Figure6()
		if err != nil {
			b.Fatal(err)
		}
		if f6.Render() == "" {
			b.Fatal("empty render")
		}
	}
}

// BenchmarkFigure7Top1Error regenerates Figure 7 from a family run
// (per-benchmark top-1 prediction errors).
func BenchmarkFigure7Top1Error(b *testing.B) {
	fr, err := experiments.RunFamilyCV(benchConfig())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f7, err := fr.Figure7()
		if err != nil {
			b.Fatal(err)
		}
		if f7.Render() == "" {
			b.Fatal("empty render")
		}
	}
}

// BenchmarkTable3FutureMachines regenerates Table 3: predicting the 2009
// machines from the 2008 / 2007 / pre-2007 predictive sets.
func BenchmarkTable3FutureMachines(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunTable3(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable4LimitedPredictive regenerates Table 4: 2009 targets
// predicted from random 10/5/3-machine subsets of the 2008 machines.
func BenchmarkTable4LimitedPredictive(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunTable4(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure8MedoidSelection regenerates Figure 8: goodness of fit of
// MLPᵀ under k-medoids versus random predictive-machine selection.
func BenchmarkFigure8MedoidSelection(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		f8, err := experiments.RunFigure8(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if f8.Render() == "" {
			b.Fatal("empty render")
		}
	}
}

// BenchmarkAblationPredictors regenerates the model-flexibility ablation
// (NNᵀ vs SPLᵀ vs MLPᵀ under family CV).
func BenchmarkAblationPredictors(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunAblationPredictors(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRunAllFast sweeps the whole evaluation end to end (fast mode).
func BenchmarkRunAllFast(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		if err := experiments.RunAll(cfg, io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// --- substrate micro-benchmarks -----------------------------------------

// BenchmarkDatasetSynthesis measures one full 29×117 database generation
// (the analytic performance model evaluated 3393 times plus noise).
func BenchmarkDatasetSynthesis(b *testing.B) {
	opts := synth.DefaultOptions(1)
	for i := 0; i < b.N; i++ {
		if _, err := synth.Generate(opts); err != nil {
			b.Fatal(err)
		}
	}
}

func familyFold(b *testing.B) (transpose.Fold, []float64, *repro.Dataset) {
	b.Helper()
	data, err := repro.Generate(repro.DefaultDatasetOptions(1))
	if err != nil {
		b.Fatal(err)
	}
	targets, predictive, err := data.Matrix.FamilySplit("Intel Xeon")
	if err != nil {
		b.Fatal(err)
	}
	fold, actual, err := repro.NewFold(predictive, targets, "gcc", data.Characteristics)
	if err != nil {
		b.Fatal(err)
	}
	return fold, actual, data
}

// BenchmarkNNTFold measures one NNᵀ prediction fold (78 predictive
// machines, 39 targets, 28 benchmarks).
func BenchmarkNNTFold(b *testing.B) {
	fold, _, _ := familyFold(b)
	p := repro.NewNNT()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.PredictApp(fold); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMLPTFold measures one MLPᵀ prediction fold including network
// training (WEKA-default 500 epochs).
func BenchmarkMLPTFold(b *testing.B) {
	fold, _, _ := familyFold(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := repro.NewMLPT(int64(i)).PredictApp(fold); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGAKNNFold measures one GA-kNN prediction fold including the
// genetic weight learning.
func BenchmarkGAKNNFold(b *testing.B) {
	fold, _, _ := familyFold(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := repro.NewGAKNN(int64(i)).PredictApp(fold); err != nil {
			b.Fatal(err)
		}
	}
}

// servedFolds builds the folds a cold dtrankd fits: every family of the
// seed-1 dataset as the targets, with two applications each, rotating
// through the benchmarks so the 34 folds cover all of them.
func servedFolds(b *testing.B) []transpose.Fold {
	b.Helper()
	data, err := repro.Generate(repro.DefaultDatasetOptions(1))
	if err != nil {
		b.Fatal(err)
	}
	apps := data.Matrix.Benchmarks
	var folds []transpose.Fold
	for i, family := range data.Matrix.Families() {
		targets, predictive, err := data.Matrix.FamilySplit(family)
		if err != nil {
			b.Fatal(err)
		}
		for _, app := range []string{apps[(2*i)%len(apps)], apps[(2*i+1)%len(apps)]} {
			fold, _, err := repro.NewFold(predictive, targets, app, data.Characteristics)
			if err != nil {
				b.Fatal(err)
			}
			folds = append(folds, fold)
		}
	}
	return folds
}

// BenchmarkServedFits fits the served mix of folds once per op, each
// through the method registry at dtrankd's default seed, so the numbers
// are those of rank-cold's fits: most families leave 3 targets and 114
// predictive machines, unlike the Intel Xeon fold of BenchmarkMLPTFold
// and BenchmarkGAKNNFold. ns/fit is the mean cost of one fit.
func BenchmarkServedFits(b *testing.B) {
	folds := servedFolds(b)
	for _, name := range []string{"mlpt", "gaknn"} {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for _, fold := range folds {
					p, _, err := method.New(name, 1)
					if err != nil {
						b.Fatal(err)
					}
					if _, err := p.(transpose.Fitter).Fit(fold); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(folds)), "ns/fit")
		})
	}
}

// BenchmarkRankMachines measures the public purchasing-decision API.
func BenchmarkRankMachines(b *testing.B) {
	fold, _, _ := familyFold(b)
	p := repro.NewNNT()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := repro.RankMachines(fold.Pred, fold.Tgt, fold.AppOnPred, p); err != nil {
			b.Fatal(err)
		}
	}
}
