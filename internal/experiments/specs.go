package experiments

import (
	"fmt"
	"io"
	"strings"
)

// Spec ids. Runnable specs (the ids accepted by RunSpecs and `dtrank run
// -spec`) render one table, figure or ablation each; unitFamilyCV is the
// shared unit namespace of the family cross-validation that Table 2 and
// Figures 6-7 all read, so the expensive folds are computed once and the
// three views render from the same stored cells.
const (
	unitFamilyCV = "family-cv"

	SpecTable2             = "table2"
	SpecFigure6            = "figure6"
	SpecFigure7            = "figure7"
	SpecTable3             = "table3"
	SpecTable4             = "table4"
	SpecFigure8            = "figure8"
	SpecAblationChars      = "ablate-chars"
	SpecAblationDecay      = "ablate-decay"
	SpecAblationPredictors = "ablate-predictors"
	SpecAblationSelection  = "ablate-selection"
)

// Spec is one declarative experiment: an id, a human title, a run
// function that computes through the result store and renders to w, and
// a plan function that enumerates the spec's units without computing
// them (the PlanSpecs side of the plan/execute pipeline). Both sides
// consume the same per-spec unit enumerator, so the planned and the
// rendered unit sets cannot drift. Specs carry no method or split
// knowledge of their own — every cell they render is a store unit keyed
// (snapshot, spec, method, split, seed, budget).
type Spec struct {
	ID    string
	Title string
	run   func(cfg Config, w io.Writer) error
	plan  func(cfg *Config) ([]Unit, error)
}

// specs lists every runnable spec in the paper's presentation order,
// ablations last. RunAll renders the paper set; `dtrank run -spec all`
// renders everything.
var specs = []Spec{
	{SpecTable2, "Table 2: processor-family cross-validation",
		render(familyView((*FamilyRun).Table2)),
		func(cfg *Config) ([]Unit, error) { return planOf(cfg.familyCVUnits()) }},
	{SpecFigure6, "Figure 6: rank correlation per benchmark",
		render(familyView((*FamilyRun).Figure6)),
		func(cfg *Config) ([]Unit, error) { return planOf(cfg.familyCVUnits()) }},
	{SpecFigure7, "Figure 7: top-1 error per benchmark",
		render(familyView((*FamilyRun).Figure7)),
		func(cfg *Config) ([]Unit, error) { return planOf(cfg.familyCVUnits()) }},
	{SpecTable3, "Table 3: predicting future machines", render(RunTable3),
		func(cfg *Config) ([]Unit, error) { return planOf(cfg.table3Units()) }},
	{SpecTable4, "Table 4: limited predictive sets", render(RunTable4),
		func(cfg *Config) ([]Unit, error) { return planOf(cfg.table4Units()) }},
	{SpecFigure8, "Figure 8: k-medoids vs random machine selection", render(RunFigure8),
		func(cfg *Config) ([]Unit, error) { return planOf(cfg.figure8Units()) }},
	{SpecAblationChars, "Ablation: simulated characterisation failure", render(RunAblationHonestChars),
		func(cfg *Config) ([]Unit, error) { return planOf(cfg.ablationCharsUnits()) }},
	{SpecAblationDecay, "Ablation: MLP^T learning-rate decay", render(RunAblationMLPTDecay),
		func(cfg *Config) ([]Unit, error) { return planOf(cfg.ablationDecayUnits()) }},
	{SpecAblationPredictors, "Ablation: transposition model flexibility", render(RunAblationPredictors),
		func(cfg *Config) ([]Unit, error) { return planOf(cfg.ablationPredictorsUnits()) }},
	{SpecAblationSelection, "Ablation: predictive-machine selection", render(RunAblationSelection),
		func(cfg *Config) ([]Unit, error) { return planOf(cfg.ablationSelectionUnits()) }},
}

// render adapts a runner to a spec's run function: it runs the
// experiment and writes its rendering plus a blank line.
func render[T interface{ Render() string }](run func(Config) (T, error)) func(Config, io.Writer) error {
	return func(cfg Config, w io.Writer) error {
		v, err := run(cfg)
		if err != nil {
			return err
		}
		_, err = fmt.Fprintf(w, "%s\n", v.Render())
		return err
	}
}

// familyView adapts one view of the family cross-validation (Table 2,
// Figure 6 or Figure 7) to a runner that reads the run's memoized
// FamilyRun.
func familyView[T any](view func(*FamilyRun) (T, error)) func(Config) (T, error) {
	return func(cfg Config) (T, error) {
		fr, err := cfg.familyRun()
		if err != nil {
			var zero T
			return zero, err
		}
		return view(fr)
	}
}

// paperSpecIDs is the RunAll set: every table and figure of the paper's
// evaluation, in the paper's order (ablations are this reproduction's
// own and render via their own ids).
var paperSpecIDs = []string{SpecTable2, SpecFigure6, SpecFigure7, SpecTable3, SpecTable4, SpecFigure8}

// familyViews names the specs that render the family cross-validation.
var familyViews = map[string]bool{SpecTable2: true, SpecFigure6: true, SpecFigure7: true}

// Specs returns every runnable spec in presentation order.
func Specs() []Spec {
	out := make([]Spec, len(specs))
	copy(out, specs)
	return out
}

// SpecIDs returns the runnable spec ids in presentation order.
func SpecIDs() []string {
	out := make([]string, len(specs))
	for i, s := range specs {
		out[i] = s.ID
	}
	return out
}

// findSpec resolves a spec id.
func findSpec(id string) (Spec, error) {
	for _, s := range specs {
		if s.ID == id {
			return s, nil
		}
	}
	return Spec{}, fmt.Errorf("experiments: unknown spec %q (valid specs: %s)", id, strings.Join(SpecIDs(), ", "))
}

// RunSpecs executes the named specs in the given order, sharing one
// worker pool, one result store, one dataset and one family
// cross-validation across all of them. The dataset is synthesised at
// most once per invocation, on the first unit that misses the store, so
// a warm run never synthesises. The family-CV units Table 2 and Figures
// 6-7 read are fetched from the store, decoded and assembled once — by whichever of
// the three runs first — so every unit is read from the store at most
// once per invocation, whether it was computed earlier in this run or by
// a previous one (cfg.Store opened on a directory or remote URL). Output
// is byte-identical for every worker count, for cold versus warm stores,
// and for single-process versus work-stealing execution.
func RunSpecs(cfg Config, w io.Writer, ids ...string) error {
	resolved := make([]Spec, 0, len(ids))
	for _, id := range ids {
		s, err := findSpec(id)
		if err != nil {
			return err
		}
		resolved = append(resolved, s)
	}
	// Materialise the pool, store, dataset and family-CV memo once on
	// this copy; the specs' own Config copies then share all four. The
	// dataset's data stays unsynthesised until a unit misses.
	cfg.eng()
	cfg.store()
	if _, err := cfg.dataset(); err != nil {
		return err
	}
	cfg.fam = &familyMemo{}
	last := -1
	for i, s := range resolved {
		if familyViews[s.ID] {
			last = i
		}
	}
	for i, s := range resolved {
		if err := s.run(cfg, w); err != nil {
			return err
		}
		if i == last {
			// No later spec reads the family run: drop it, so the specs
			// still to compute do not carry it in their heap.
			cfg.fam.run = nil
		}
	}
	return nil
}
