package experiments

import (
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/cluster"
	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/method"
	"repro/internal/stats"
	"repro/internal/synth"
	"repro/internal/transpose"
)

// Ablations probe the reproduction's own design choices, beyond the
// paper's tables:
//
//   - HonestChars: how much of GA-kNN's outlier failure is caused by the
//     simulated characterisation failure (DESIGN.md §2)?
//   - MLPTDecay: what does the learning-rate-decay deviation from the WEKA
//     defaults buy?
//   - Predictors: NNᵀ vs SPLᵀ (spline transposition, an extension after
//     Lee & Brooks) vs MLPᵀ — how much model flexibility does the
//     transposition step need?
//   - Selection: PAM k-medoids vs k-means vs random predictive-machine
//     selection (extends Figure 8 with a second clustering algorithm).
//
// Every variant is one result-store unit, so ablations are as resumable
// and incremental as the paper's tables.

// mlptVariant builds the registry's MLPᵀ predictor with the learning-rate
// decay toggled — the one place an ablation modifies a constructed
// predictor rather than constructing its own.
func (c Config) mlptVariant(decay bool) func() transpose.Predictor {
	d, err := method.Get(method.MLPT)
	if err != nil {
		panic(err)
	}
	opts := c.methodOptions()
	seed := c.Seed
	return func() transpose.Predictor {
		p := d.NewWith(seed, opts).(*transpose.MLPT)
		p.Config.Decay = decay
		return p
	}
}

// AblationHonestChars reruns GA-kNN family CV with truthful outlier
// characteristics and compares against the default (distorted) run.
type AblationHonestChars struct {
	// Distorted is the default setting (characterisation failure
	// simulated); Honest hands GA-kNN the ground-truth profiles.
	Distorted, Honest Summary
}

// ablationCharsUnits enumerates the characterisation ablation: two
// variants, distorted first. Both units are keyed by the run's dataset
// fingerprint: the honest variant is a pure function of the same
// synthesis options.
func (c *Config) ablationCharsUnits() ([]unitSpec[Summary], error) {
	ds, err := c.dataset()
	if err != nil {
		return nil, err
	}
	eng := c.eng()
	gaknn, err := c.method(method.GAKNN)
	if err != nil {
		return nil, err
	}
	opts := c.synthOptions()
	units := make([]unitSpec[Summary], 0, 2)
	for i, label := range []string{"distorted", "honest"} {
		i := i
		units = append(units, unitSpec[Summary]{
			key: c.unitKey(ds.fp, SpecAblationChars, gaknn.Name, label),
			compute: func() (Summary, error) {
				var data *synth.Data
				var err error
				if i == 0 {
					data, err = ds.data()
				} else {
					honest := opts
					honest.HonestCharacteristics = true
					data, err = generate(honest)
				}
				if err != nil {
					return Summary{}, err
				}
				rs, err := transpose.FamilyCV(eng, data.Matrix, data.Characteristics, gaknn.New)
				if err != nil {
					return Summary{}, err
				}
				return summarize(rs, data.Matrix.Benchmarks)
			},
		})
	}
	return units, nil
}

// RunAblationHonestChars executes the characterisation ablation. The two
// variants and their folds fan out on the configured worker pool.
func RunAblationHonestChars(cfg Config) (*AblationHonestChars, error) {
	units, err := cfg.ablationCharsUnits()
	if err != nil {
		return nil, err
	}
	ss, err := collectUnits(&cfg, units)
	if err != nil {
		return nil, err
	}
	return &AblationHonestChars{Distorted: ss[0], Honest: ss[1]}, nil
}

// Render formats the ablation.
func (a *AblationHonestChars) Render() string {
	var sb strings.Builder
	sb.WriteString("Ablation: GA-kNN with simulated characterisation failure vs honest profiles\n\n")
	sb.WriteString(renderSummaryRows([]string{"distorted (default)", "honest"},
		[]Summary{a.Distorted, a.Honest}))
	sb.WriteString("\nThe gap between the rows is the share of GA-kNN's outlier failure that\n")
	sb.WriteString("the simulated MICA measurement failure accounts for.\n")
	return sb.String()
}

// AblationMLPTDecay compares MLPᵀ with learning-rate decay (this
// repository's default) against the pure WEKA defaults.
type AblationMLPTDecay struct {
	Decay, PureWEKA Summary
}

// ablationDecayUnits enumerates the MLPᵀ training ablation: the decay
// variant first, then the pure WEKA defaults.
func (c *Config) ablationDecayUnits() ([]unitSpec[Summary], error) {
	ds, err := c.dataset()
	if err != nil {
		return nil, err
	}
	eng := c.eng()
	cfg := *c
	units := make([]unitSpec[Summary], 0, 2)
	for i, label := range []string{"decay", "pure-weka"} {
		decay := i == 0
		units = append(units, unitSpec[Summary]{
			key: c.unitKey(ds.fp, SpecAblationDecay, method.MLPT, label),
			compute: func() (Summary, error) {
				data, err := ds.data()
				if err != nil {
					return Summary{}, err
				}
				rs, err := transpose.FamilyCV(eng, data.Matrix, data.Characteristics, cfg.mlptVariant(decay))
				if err != nil {
					return Summary{}, err
				}
				return summarize(rs, data.Matrix.Benchmarks)
			},
		})
	}
	return units, nil
}

// RunAblationMLPTDecay executes the MLPᵀ training ablation. Both variants
// and their folds fan out on the configured worker pool.
func RunAblationMLPTDecay(cfg Config) (*AblationMLPTDecay, error) {
	units, err := cfg.ablationDecayUnits()
	if err != nil {
		return nil, err
	}
	ss, err := collectUnits(&cfg, units)
	if err != nil {
		return nil, err
	}
	return &AblationMLPTDecay{Decay: ss[0], PureWEKA: ss[1]}, nil
}

// Render formats the ablation.
func (a *AblationMLPTDecay) Render() string {
	var sb strings.Builder
	sb.WriteString("Ablation: MLP^T with learning-rate decay (default here) vs pure WEKA defaults\n\n")
	sb.WriteString(renderSummaryRows([]string{"decay (default)", "pure WEKA"},
		[]Summary{a.Decay, a.PureWEKA}))
	return sb.String()
}

// AblationPredictors compares the three transposition model families.
type AblationPredictors struct {
	Names     []string
	Summaries []Summary
}

// ablationPredictorNames lists the compared transposition models in
// presentation order.
var ablationPredictorNames = []string{method.NNT, method.SPLT, method.MLPT}

// ablationPredictorsUnits enumerates the model-flexibility ablation: one
// family-CV summary per transposition model.
func (c *Config) ablationPredictorsUnits() ([]unitSpec[Summary], error) {
	ds, err := c.dataset()
	if err != nil {
		return nil, err
	}
	eng := c.eng()
	units := make([]unitSpec[Summary], 0, len(ablationPredictorNames))
	for _, name := range ablationPredictorNames {
		m, err := c.method(name)
		if err != nil {
			return nil, err
		}
		units = append(units, unitSpec[Summary]{
			key: c.unitKey(ds.fp, SpecAblationPredictors, m.Name, "family-cv"),
			compute: func() (Summary, error) {
				data, err := ds.data()
				if err != nil {
					return Summary{}, err
				}
				rs, err := transpose.FamilyCV(eng, data.Matrix, data.Characteristics, m.New)
				if err != nil {
					return Summary{}, fmt.Errorf("experiments: predictor ablation %s: %w", m.Name, err)
				}
				return summarize(rs, data.Matrix.Benchmarks)
			},
		})
	}
	return units, nil
}

// RunAblationPredictors executes the model-flexibility ablation: linear
// (NNᵀ), spline (SPLᵀ) and neural (MLPᵀ) data transposition.
func RunAblationPredictors(cfg Config) (*AblationPredictors, error) {
	units, err := cfg.ablationPredictorsUnits()
	if err != nil {
		return nil, err
	}
	ss, err := collectUnits(&cfg, units)
	if err != nil {
		return nil, err
	}
	out := &AblationPredictors{}
	for i, name := range ablationPredictorNames {
		out.Names = append(out.Names, name)
		out.Summaries = append(out.Summaries, ss[i])
	}
	return out, nil
}

// Render formats the ablation.
func (a *AblationPredictors) Render() string {
	var sb strings.Builder
	sb.WriteString("Ablation: model flexibility of the transposition step (family CV)\n\n")
	sb.WriteString(renderSummaryRows(a.Names, a.Summaries))
	sb.WriteString("\nSPL^T (cubic regression splines per machine pair, after Lee & Brooks) is\n")
	sb.WriteString("an extension beyond the paper's NN^T/MLP^T pair.\n")
	return sb.String()
}

// AblationSelection extends Figure 8: mean MLPᵀ goodness of fit under
// three predictive-machine selection strategies.
type AblationSelection struct {
	Ks     []int
	Medoid []float64
	KMeans []float64
	Random []float64
	Draws  int
}

// selectionDraws caps the random-draw average of the selection ablation.
func (c Config) selectionDraws() int {
	if d := c.draws(); d <= 10 {
		return d
	}
	return 10
}

// ablationSelectionUnits enumerates the selection-strategy ablation on
// the 2008 pool → 2009 targets split: per k (3..maxK) one k-medoids
// unit, one k-means unit, then the random draws — a fixed stride of
// 2+draws per k.
func (c *Config) ablationSelectionUnits() ([]unitSpec[float64], error) {
	ds, err := c.dataset()
	if err != nil {
		return nil, err
	}
	_, pool, err := ds.layout.YearSplit(TargetYear, keep2008)
	if err != nil {
		return nil, err
	}
	eng := c.eng()
	seed := c.Seed
	mlpt, err := c.method(method.MLPT)
	if err != nil {
		return nil, err
	}
	maxK := c.maxK()
	if maxK > pool.NumMachines() {
		maxK = pool.NumMachines()
	}
	draws := c.selectionDraws()
	fit := func(sel func(*dataset.Matrix) (*dataset.Matrix, error)) (float64, error) {
		sp, err := ds.split2008()
		if err != nil {
			return 0, err
		}
		sub, err := sel(sp.pool)
		if err != nil {
			return 0, err
		}
		return transpose.GoodnessOfFit(eng, sub, sp.tgt, sp.chars, mlpt.New)
	}
	kmeansSel := func(k int) func(*dataset.Matrix) (*dataset.Matrix, error) {
		return func(d *dataset.Matrix) (*dataset.Matrix, error) {
			pts := make([][]float64, d.NumMachines())
			for i := range pts {
				pts[i] = d.Col(i)
			}
			res, err := cluster.KMeans(pts, k, rand.New(rand.NewSource(seed)), 100)
			if err != nil {
				return nil, err
			}
			keep := map[string]bool{}
			for _, mi := range res.Medoids {
				keep[d.Machines[mi].ID] = true
			}
			sub := d.SelectMachines(func(m dataset.Machine) bool { return keep[m.ID] })
			return sub, nil
		}
	}
	var units []unitSpec[float64]
	unit := func(split string, compute func() (float64, error)) {
		units = append(units, unitSpec[float64]{
			key:     c.unitKey(ds.fp, SpecAblationSelection, mlpt.Name, split),
			compute: compute,
		})
	}
	for k := 3; k <= maxK; k++ {
		k := k
		unit(fmt.Sprintf("medoid/k=%d", k), func() (float64, error) {
			return fit(transpose.MedoidSubset(k))
		})
		unit(fmt.Sprintf("kmeans/k=%d", k), func() (float64, error) {
			return fit(kmeansSel(k))
		})
		for d := 0; d < draws; d++ {
			d := d
			unit(fmt.Sprintf("random/k=%d#%d", k, d), func() (float64, error) {
				rng := rand.New(rand.NewSource(engine.Seed(seed, int64(500+k), int64(d))))
				return fit(transpose.RandomSubset(k, rng))
			})
		}
	}
	return units, nil
}

// RunAblationSelection executes the selection-strategy ablation on the
// 2008 pool → 2009 targets split.
func RunAblationSelection(cfg Config) (*AblationSelection, error) {
	units, err := cfg.ablationSelectionUnits()
	if err != nil {
		return nil, err
	}
	vals, err := collectUnits(&cfg, units)
	if err != nil {
		return nil, err
	}
	out := &AblationSelection{Draws: cfg.selectionDraws()}
	stride := 2 + out.Draws
	for i := 0; i < len(vals); i += stride {
		out.Ks = append(out.Ks, i/stride+3)
		out.Medoid = append(out.Medoid, vals[i])
		out.KMeans = append(out.KMeans, vals[i+1])
		out.Random = append(out.Random, stats.Mean(vals[i+2:i+stride]))
	}
	return out, nil
}

// Render formats the ablation.
func (a *AblationSelection) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Ablation: predictive-machine selection strategies (MLP^T goodness of fit,\nrandom averaged over %d draws)\n\n", a.Draws)
	fmt.Fprintf(&sb, "%-4s %10s %10s %10s\n", "k", "k-medoids", "k-means", "random")
	for i, k := range a.Ks {
		fmt.Fprintf(&sb, "%-4d %10.3f %10.3f %10.3f\n", k, a.Medoid[i], a.KMeans[i], a.Random[i])
	}
	return sb.String()
}

// renderSummaryRows formats labelled summaries as aligned rows.
func renderSummaryRows(labels []string, ss []Summary) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-22s %16s %16s %16s %12s\n", "", "rank (worst)", "top-1 (worst)", "mean% (worst)", "worst fold")
	for i, l := range labels {
		s := ss[i]
		fmt.Fprintf(&sb, "%-22s %16s %16s %16s %11.0f%%\n", l,
			fmt.Sprintf("%.2f (%.2f)", s.Mean.RankCorr, s.Worst.RankCorr),
			fmt.Sprintf("%.2f (%.1f)", s.Mean.Top1Err, s.Worst.Top1Err),
			fmt.Sprintf("%.2f (%.1f)", s.Mean.MeanErr, s.Worst.MeanErr),
			s.WorstFoldTop1)
	}
	return sb.String()
}
