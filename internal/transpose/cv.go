package transpose

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"repro/internal/cluster"
	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/stats"
)

// FoldResult records the outcome of one (split, application) prediction.
type FoldResult struct {
	// Split labels the predictive/target split, e.g. the target processor
	// family ("Intel Xeon") or a year split ("2008->2009").
	Split string
	// App is the application of interest (the held-out benchmark).
	App string
	// Metrics are the fold's accuracy numbers.
	Metrics Metrics
	// Actual and Predicted are the application scores on the target
	// machines (measured and predicted).
	Actual, Predicted []float64
}

// foldUnit is one independent (split, application) prediction task of a
// cross-validation driver.
type foldUnit struct {
	kind      string // error-message noun: "family" or "split"
	split     string
	pred, tgt *dataset.Matrix
	app       string
}

// runFolds fans the units out on pool (nil means engine.Default()) and
// collects the results in unit order, so parallel runs are byte-identical
// to serial ones. Every fold gets a fresh predictor from newP (stateful
// predictors such as MLPᵀ must not leak training across folds).
func runFolds(pool *engine.Pool, units []foldUnit, chars map[string][]float64, newP func() Predictor) ([]FoldResult, error) {
	return engine.Collect(pool, len(units), func(i int) (FoldResult, error) {
		u := units[i]
		m, actual, predicted, err := RunFold(u.pred, u.tgt, u.app, chars, newP())
		if err != nil {
			return FoldResult{}, fmt.Errorf("transpose: %s %q app %q: %w", u.kind, u.split, u.app, err)
		}
		return FoldResult{Split: u.split, App: u.app, Metrics: m, Actual: actual, Predicted: predicted}, nil
	})
}

// familyFoldUnits builds the leave-one-out fold units of one family split:
// the named family is the target set, every other machine the predictive
// set, and each benchmark in turn plays the application of interest.
func familyFoldUnits(d *dataset.Matrix, family string) ([]foldUnit, error) {
	if d.NumBenchmarks() < 2 {
		return nil, fmt.Errorf("transpose: family CV needs >= 2 benchmarks, have %d", d.NumBenchmarks())
	}
	tgt, pred, err := d.FamilySplit(family)
	if err != nil {
		return nil, err
	}
	units := make([]foldUnit, 0, len(d.Benchmarks))
	for _, app := range d.Benchmarks {
		units = append(units, foldUnit{kind: "family", split: family, pred: pred, tgt: tgt, app: app})
	}
	return units, nil
}

// FamilyCV runs the paper's processor-family cross-validation (§6.2): each
// processor family in turn becomes the target set, all other families the
// predictive set, combined with benchmark-level leave-one-out. Folds run
// concurrently on pool (nil means engine.Default()); results keep the
// serial family-major, benchmark-minor order.
func FamilyCV(pool *engine.Pool, d *dataset.Matrix, chars map[string][]float64, newP func() Predictor) ([]FoldResult, error) {
	if d.NumBenchmarks() < 2 {
		return nil, fmt.Errorf("transpose: family CV needs >= 2 benchmarks, have %d", d.NumBenchmarks())
	}
	var units []foldUnit
	for _, family := range d.Families() {
		us, err := familyFoldUnits(d, family)
		if err != nil {
			return nil, err
		}
		units = append(units, us...)
	}
	return runFolds(pool, units, chars, newP)
}

// FamilyFolds runs the folds of a single family split of the processor-
// family cross-validation — one (method, family) cell of Table 2 and
// Figures 6-7, the unit granularity of the experiments result store.
// Results are identical to the corresponding slice of FamilyCV's output.
func FamilyFolds(pool *engine.Pool, d *dataset.Matrix, chars map[string][]float64, family string, newP func() Predictor) ([]FoldResult, error) {
	units, err := familyFoldUnits(d, family)
	if err != nil {
		return nil, err
	}
	return runFolds(pool, units, chars, newP)
}

// YearCV runs the paper's future-machine experiment (§6.3): machines
// released in targetYear are the targets; the predictive set is drawn from
// years matching keep. Benchmark-level leave-one-out applies as always;
// folds run concurrently on pool (nil means engine.Default()).
func YearCV(pool *engine.Pool, d *dataset.Matrix, chars map[string][]float64, targetYear int, keep func(year int) bool, label string, newP func() Predictor) ([]FoldResult, error) {
	tgt, pred, err := d.YearSplit(targetYear, keep)
	if err != nil {
		return nil, err
	}
	units := make([]foldUnit, 0, len(d.Benchmarks))
	for _, app := range d.Benchmarks {
		units = append(units, foldUnit{kind: "split", split: label, pred: pred, tgt: tgt, app: app})
	}
	return runFolds(pool, units, chars, newP)
}

// SubsetCV is YearCV with the predictive set first reduced to a machine
// subset chosen by sel (§6.4: limited numbers of predictive machines).
func SubsetCV(pool *engine.Pool, d *dataset.Matrix, chars map[string][]float64, targetYear int, keep func(int) bool, sel func(*dataset.Matrix) (*dataset.Matrix, error), label string, newP func() Predictor) ([]FoldResult, error) {
	tgt, pred, err := d.YearSplit(targetYear, keep)
	if err != nil {
		return nil, err
	}
	pred, err = sel(pred)
	if err != nil {
		return nil, err
	}
	if pred.NumMachines() == 0 {
		return nil, fmt.Errorf("transpose: split %q: subset selection left no predictive machines", label)
	}
	units := make([]foldUnit, 0, len(d.Benchmarks))
	for _, app := range d.Benchmarks {
		units = append(units, foldUnit{kind: "split", split: label, pred: pred, tgt: tgt, app: app})
	}
	return runFolds(pool, units, chars, newP)
}

// Aggregate summarises fold metrics the way the paper's tables do: the mean
// and the worst case across all folds. "Worst" is the minimum for rank
// correlation and the maximum for the error metrics.
type Aggregate struct {
	N int
	// Mean and Worst follow the Metrics field layout.
	Mean, Worst Metrics
}

// AggregateResults reduces fold results to the paper's table format.
func AggregateResults(rs []FoldResult) (Aggregate, error) {
	if len(rs) == 0 {
		return Aggregate{}, fmt.Errorf("transpose: aggregating zero results")
	}
	agg := Aggregate{N: len(rs)}
	agg.Worst.RankCorr = math.Inf(1)
	agg.Worst.Top1Err = math.Inf(-1)
	agg.Worst.MeanErr = math.Inf(-1)
	for _, r := range rs {
		agg.Mean.RankCorr += r.Metrics.RankCorr
		agg.Mean.Top1Err += r.Metrics.Top1Err
		agg.Mean.MeanErr += r.Metrics.MeanErr
		agg.Worst.RankCorr = math.Min(agg.Worst.RankCorr, r.Metrics.RankCorr)
		agg.Worst.Top1Err = math.Max(agg.Worst.Top1Err, r.Metrics.Top1Err)
		agg.Worst.MeanErr = math.Max(agg.Worst.MeanErr, r.Metrics.MeanErr)
	}
	n := float64(len(rs))
	agg.Mean.RankCorr /= n
	agg.Mean.Top1Err /= n
	agg.Mean.MeanErr /= n
	return agg, nil
}

// PerApp averages fold metrics per application across splits, preserving
// the given benchmark order — the layout of Figures 6 and 7. Each
// application's mean equals AggregateResults' over its folds: the folds
// are summed in rs order, then divided by their count.
func PerApp(rs []FoldResult, order []string) (map[string]Metrics, error) {
	idx := make(map[string]int, len(order))
	for i, app := range order {
		idx[app] = i
	}
	sums := make([]Metrics, len(order))
	counts := make([]int, len(order))
	for _, r := range rs {
		i, ok := idx[r.App]
		if !ok {
			continue
		}
		sums[i].RankCorr += r.Metrics.RankCorr
		sums[i].Top1Err += r.Metrics.Top1Err
		sums[i].MeanErr += r.Metrics.MeanErr
		counts[i]++
	}
	out := make(map[string]Metrics, len(order))
	for _, app := range order {
		i := idx[app]
		if counts[i] == 0 {
			return nil, fmt.Errorf("transpose: no fold results for application %q", app)
		}
		n := float64(counts[i])
		out[app] = Metrics{RankCorr: sums[i].RankCorr / n, Top1Err: sums[i].Top1Err / n, MeanErr: sums[i].MeanErr / n}
	}
	return out, nil
}

// RandomSubset returns a selector that keeps k machines drawn uniformly at
// random (without replacement) using rng.
func RandomSubset(k int, rng *rand.Rand) func(*dataset.Matrix) (*dataset.Matrix, error) {
	return func(d *dataset.Matrix) (*dataset.Matrix, error) {
		n := d.NumMachines()
		if k < 1 || k > n {
			return nil, fmt.Errorf("transpose: random subset of %d from %d machines", k, n)
		}
		perm := rng.Perm(n)
		keep := make(map[string]bool, k)
		for _, i := range perm[:k] {
			keep[d.Machines[i].ID] = true
		}
		return d.SelectMachines(func(m dataset.Machine) bool { return keep[m.ID] }), nil
	}
}

// MedoidSubset returns a selector that keeps the k medoids of the machine
// population under PAM clustering in log-score space (§6.5). Log scores make
// the distance sensitive to a machine's performance *profile* across
// benchmarks as well as its absolute level, which is what "maximising
// coverage of the target machines" needs.
func MedoidSubset(k int) func(*dataset.Matrix) (*dataset.Matrix, error) {
	return func(d *dataset.Matrix) (*dataset.Matrix, error) {
		n := d.NumMachines()
		if k < 1 || k > n {
			return nil, fmt.Errorf("transpose: medoid subset of %d from %d machines", k, n)
		}
		points := make([][]float64, n)
		for i := 0; i < n; i++ {
			col := d.Col(i)
			for j, v := range col {
				col[j] = math.Log2(v)
			}
			points[i] = col
		}
		res, err := cluster.PAM(points, k, nil, nil)
		if err != nil {
			return nil, err
		}
		keep := make(map[string]bool, k)
		for _, mi := range res.Medoids {
			keep[d.Machines[mi].ID] = true
		}
		return d.SelectMachines(func(m dataset.Machine) bool { return keep[m.ID] }), nil
	}
}

// GoodnessOfFit runs all leave-one-out folds for one split and returns the
// mean R² of predictions against measurements across applications — the
// y-axis of Figure 8. Folds run concurrently on pool (nil means
// engine.Default()); the mean is accumulated in benchmark order so the
// result does not depend on the worker count.
func GoodnessOfFit(pool *engine.Pool, pred, tgt *dataset.Matrix, chars map[string][]float64, newP func() Predictor) (float64, error) {
	if len(tgt.Benchmarks) == 0 {
		return 0, fmt.Errorf("transpose: goodness of fit over zero benchmarks")
	}
	r2s, err := engine.Collect(pool, len(tgt.Benchmarks), func(i int) (float64, error) {
		_, actual, predicted, err := RunFold(pred, tgt, tgt.Benchmarks[i], chars, newP())
		if err != nil {
			return 0, err
		}
		return stats.RSquared(actual, predicted)
	})
	if err != nil {
		return 0, err
	}
	return stats.Mean(r2s), nil
}

// Splits returns the distinct split labels present in rs, sorted.
func Splits(rs []FoldResult) []string {
	seen := map[string]bool{}
	for _, r := range rs {
		seen[r.Split] = true
	}
	out := make([]string, 0, len(seen))
	for s := range seen {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}
