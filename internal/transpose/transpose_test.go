package transpose

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/dataset"
)

// syntheticPair builds small predictive/target matrices where every
// machine's scores are an affine function of a latent speed, plus noise:
// score(b, m) = base(b) * speed(m) * (1 + eps). This is the structure data
// transposition exploits.
func syntheticPair(t *testing.T, nBench, nPred, nTgt int, noise float64, seed int64) (pred, tgt *dataset.Matrix) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	bench := make([]string, nBench)
	base := make([]float64, nBench)
	for b := range bench {
		bench[b] = "bench" + string(rune('A'+b))
		base[b] = 1 + rng.Float64()*9
	}
	mk := func(prefix string, n int) *dataset.Matrix {
		machines := make([]dataset.Machine, n)
		for i := range machines {
			machines[i] = dataset.Machine{
				ID:     prefix + string(rune('a'+i)),
				Family: prefix, Nickname: prefix, ISA: "x", Year: 2008,
			}
		}
		m, err := dataset.New(bench, machines)
		if err != nil {
			t.Fatal(err)
		}
		for i := range machines {
			speed := 0.5 + rng.Float64()*4
			for b := range bench {
				m.Set(b, i, base[b]*speed*(1+rng.NormFloat64()*noise))
			}
		}
		return m
	}
	return mk("pred", nPred), mk("tgt", nTgt)
}

func TestNewFoldAndValidate(t *testing.T) {
	pred, tgt := syntheticPair(t, 5, 4, 3, 0, 1)
	fold, appOnTgt, err := NewFold(pred, tgt, "benchC", nil)
	if err != nil {
		t.Fatal(err)
	}
	if fold.AppName != "benchC" || len(appOnTgt) != 3 {
		t.Fatalf("fold = %+v", fold.AppName)
	}
	if fold.Pred.NumBenchmarks() != 4 || fold.Tgt.NumBenchmarks() != 4 {
		t.Fatal("application not removed from training benchmarks")
	}
	if len(fold.AppOnPred) != 4 {
		t.Fatalf("AppOnPred has %d entries", len(fold.AppOnPred))
	}
	if _, _, err := NewFold(pred, tgt, "nope", nil); err == nil {
		t.Fatal("want unknown-benchmark error")
	}
}

func TestFoldValidateRejectsBadFolds(t *testing.T) {
	pred, tgt := syntheticPair(t, 4, 3, 2, 0, 2)
	good, _, err := NewFold(pred, tgt, "benchA", nil)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		mut  func(*Fold)
	}{
		{"no app name", func(f *Fold) { f.AppName = "" }},
		{"nil matrices", func(f *Fold) { f.Pred = nil }},
		{"app score arity", func(f *Fold) { f.AppOnPred = f.AppOnPred[:1] }},
		{"benchmark count mismatch", func(f *Fold) {
			sub, err := f.Tgt.SelectBenchmarks(f.Tgt.Benchmarks[:2])
			if err != nil {
				t.Fatal(err)
			}
			f.Tgt = sub
		}},
		{"app still present", func(f *Fold) { f.AppName = f.Pred.Benchmarks[0] }},
	}
	for _, tc := range cases {
		f := good
		tc.mut(&f)
		if err := f.Validate(); err == nil {
			t.Fatalf("%s: expected validation error", tc.name)
		}
	}
}

func TestNNTRecoversAffineStructure(t *testing.T) {
	pred, tgt := syntheticPair(t, 8, 6, 5, 0.01, 3)
	m, actual, predicted, err := RunFold(pred, tgt, "benchD", nil, NNT{})
	if err != nil {
		t.Fatal(err)
	}
	if len(predicted) != len(actual) {
		t.Fatal("length mismatch")
	}
	if m.RankCorr < 0.9 {
		t.Fatalf("NN^T rank correlation %v on near-exact data", m.RankCorr)
	}
	if m.MeanErr > 15 {
		t.Fatalf("NN^T mean error %v on near-exact data", m.MeanErr)
	}
}

func TestNNTName(t *testing.T) {
	if (NNT{}).Name() != "NN^T" {
		t.Fatal("wrong name")
	}
	if (&MLPT{}).Name() != "MLP^T" {
		t.Fatal("wrong name")
	}
}

func TestNNTNeedsPredictiveMachines(t *testing.T) {
	pred, tgt := syntheticPair(t, 4, 3, 2, 0, 4)
	fold, _, err := NewFold(pred, tgt, "benchA", nil)
	if err != nil {
		t.Fatal(err)
	}
	fold.Pred = fold.Pred.SelectMachines(func(dataset.Machine) bool { return false })
	fold.AppOnPred = nil
	if _, err := (NNT{}).PredictApp(fold); err == nil {
		t.Fatal("want error for empty predictive set")
	}
}

func TestMLPTRecoversAffineStructure(t *testing.T) {
	pred, tgt := syntheticPair(t, 8, 30, 5, 0.01, 5)
	p := NewMLPT(11)
	m, _, _, err := RunFold(pred, tgt, "benchD", nil, p)
	if err != nil {
		t.Fatal(err)
	}
	if m.RankCorr < 0.8 {
		t.Fatalf("MLP^T rank correlation %v on near-exact data", m.RankCorr)
	}
}

func TestMLPTDeterministicPerSeed(t *testing.T) {
	pred, tgt := syntheticPair(t, 6, 10, 4, 0.02, 6)
	fold, _, err := NewFold(pred, tgt, "benchB", nil)
	if err != nil {
		t.Fatal(err)
	}
	a, err := NewMLPT(3).PredictApp(fold)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewMLPT(3).PredictApp(fold)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed, different predictions")
		}
	}
}

func TestEvaluateKnownValues(t *testing.T) {
	actual := []float64{10, 20, 30}
	m, err := Evaluate(actual, []float64{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if m.RankCorr != 1 || m.Top1Err != 0 {
		t.Fatalf("metrics = %+v", m)
	}
	if math.Abs(m.MeanErr-90) > 1e-9 {
		t.Fatalf("mean error = %v, want 90", m.MeanErr)
	}
	// Predicting the reverse ranking: top-1 picks machine with actual 10.
	m, err = Evaluate(actual, []float64{3, 2, 1})
	if err != nil {
		t.Fatal(err)
	}
	if m.RankCorr != -1 {
		t.Fatalf("rank = %v, want -1", m.RankCorr)
	}
	if math.Abs(m.Top1Err-200) > 1e-9 {
		t.Fatalf("top-1 = %v, want 200", m.Top1Err)
	}
	if _, err := Evaluate(actual, []float64{1}); err == nil {
		t.Fatal("want length error")
	}
}

func TestRanking(t *testing.T) {
	got := Ranking([]float64{5, 9, 1, 9})
	// Descending, ties by input order: 9(idx1), 9(idx3), 5(idx0), 1(idx2).
	want := []int{1, 3, 0, 2}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Ranking = %v, want %v", got, want)
		}
	}
	if len(Ranking(nil)) != 0 {
		t.Fatal("Ranking(nil) must be empty")
	}
}

func TestFamilyCVStructure(t *testing.T) {
	// Build a matrix with two families; FamilyCV must produce
	// families × benchmarks fold results.
	pred, tgt := syntheticPair(t, 5, 4, 3, 0.01, 7)
	// Merge into one matrix with two families.
	machines := append(append([]dataset.Machine(nil), pred.Machines...), tgt.Machines...)
	d, err := dataset.New(pred.Benchmarks, machines)
	if err != nil {
		t.Fatal(err)
	}
	for b := range d.Benchmarks {
		for i := 0; i < 4; i++ {
			d.Set(b, i, pred.At(b, i))
		}
		for i := 0; i < 3; i++ {
			d.Set(b, 4+i, tgt.At(b, i))
		}
	}
	rs, err := FamilyCV(nil, d, nil, func() Predictor { return NNT{} })
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 2*5 {
		t.Fatalf("%d fold results, want 10", len(rs))
	}
	splits := Splits(rs)
	if len(splits) != 2 || splits[0] != "pred" || splits[1] != "tgt" {
		t.Fatalf("splits = %v", splits)
	}
}

func TestFamilyCVTooFewBenchmarks(t *testing.T) {
	d, err := dataset.New([]string{"only"}, []dataset.Machine{{ID: "m", Family: "F"}})
	if err != nil {
		t.Fatal(err)
	}
	d.Set(0, 0, 1)
	if _, err := FamilyCV(nil, d, nil, func() Predictor { return NNT{} }); err == nil {
		t.Fatal("want too-few-benchmarks error")
	}
}

func TestYearCV(t *testing.T) {
	pred, tgt := syntheticPair(t, 5, 4, 3, 0.01, 8)
	machines := append(append([]dataset.Machine(nil), pred.Machines...), tgt.Machines...)
	for i := range machines {
		if i < 4 {
			machines[i].Year = 2008
		} else {
			machines[i].Year = 2009
		}
	}
	d, err := dataset.New(pred.Benchmarks, machines)
	if err != nil {
		t.Fatal(err)
	}
	for b := range d.Benchmarks {
		for i := 0; i < 4; i++ {
			d.Set(b, i, pred.At(b, i))
		}
		for i := 0; i < 3; i++ {
			d.Set(b, 4+i, tgt.At(b, i))
		}
	}
	rs, err := YearCV(nil, d, nil, 2009, func(y int) bool { return y == 2008 }, "2008->2009", func() Predictor { return NNT{} })
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 5 {
		t.Fatalf("%d results, want 5", len(rs))
	}
	for _, r := range rs {
		if r.Split != "2008->2009" {
			t.Fatalf("split label %q", r.Split)
		}
		if len(r.Actual) != 3 {
			t.Fatalf("fold has %d targets", len(r.Actual))
		}
	}
	if _, err := YearCV(nil, d, nil, 1999, func(int) bool { return true }, "x", func() Predictor { return NNT{} }); err == nil {
		t.Fatal("want error for empty target year")
	}
}

func TestSubsetCVAndSelectors(t *testing.T) {
	pred, tgt := syntheticPair(t, 5, 8, 3, 0.01, 9)
	machines := append(append([]dataset.Machine(nil), pred.Machines...), tgt.Machines...)
	for i := range machines {
		if i < 8 {
			machines[i].Year = 2008
		} else {
			machines[i].Year = 2009
		}
	}
	d, err := dataset.New(pred.Benchmarks, machines)
	if err != nil {
		t.Fatal(err)
	}
	for b := range d.Benchmarks {
		for i := 0; i < 8; i++ {
			d.Set(b, i, pred.At(b, i))
		}
		for i := 0; i < 3; i++ {
			d.Set(b, 8+i, tgt.At(b, i))
		}
	}
	rng := rand.New(rand.NewSource(1))
	rs, err := SubsetCV(nil, d, nil, 2009, func(y int) bool { return y == 2008 },
		RandomSubset(3, rng), "subset3", func() Predictor { return NNT{} })
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 5 {
		t.Fatalf("%d results", len(rs))
	}
	// Medoid selector picks exactly k distinct machines.
	sel := MedoidSubset(3)
	sub, err := sel(pred)
	if err != nil {
		t.Fatal(err)
	}
	if sub.NumMachines() != 3 {
		t.Fatalf("medoid subset has %d machines", sub.NumMachines())
	}
	if _, err := MedoidSubset(99)(pred); err == nil {
		t.Fatal("want error for k > n")
	}
	if _, err := RandomSubset(0, rng)(pred); err == nil {
		t.Fatal("want error for k < 1")
	}
}

func TestAggregateResults(t *testing.T) {
	rs := []FoldResult{
		{Metrics: Metrics{RankCorr: 1, Top1Err: 0, MeanErr: 2}},
		{Metrics: Metrics{RankCorr: 0.5, Top1Err: 10, MeanErr: 6}},
	}
	agg, err := AggregateResults(rs)
	if err != nil {
		t.Fatal(err)
	}
	if agg.N != 2 || agg.Mean.RankCorr != 0.75 || agg.Mean.Top1Err != 5 || agg.Mean.MeanErr != 4 {
		t.Fatalf("mean = %+v", agg.Mean)
	}
	if agg.Worst.RankCorr != 0.5 || agg.Worst.Top1Err != 10 || agg.Worst.MeanErr != 6 {
		t.Fatalf("worst = %+v", agg.Worst)
	}
	if _, err := AggregateResults(nil); err == nil {
		t.Fatal("want error for empty results")
	}
}

func TestPerApp(t *testing.T) {
	rs := []FoldResult{
		{App: "a", Metrics: Metrics{RankCorr: 1}},
		{App: "a", Metrics: Metrics{RankCorr: 0}},
		{App: "b", Metrics: Metrics{RankCorr: 0.4}},
	}
	out, err := PerApp(rs, []string{"a", "b"})
	if err != nil {
		t.Fatal(err)
	}
	if out["a"].RankCorr != 0.5 || out["b"].RankCorr != 0.4 {
		t.Fatalf("PerApp = %+v", out)
	}
	if _, err := PerApp(rs, []string{"missing"}); err == nil {
		t.Fatal("want error for missing app")
	}
}

// TestPerAppMatchesAggregate pins PerApp's one-pass means to
// AggregateResults over each application's folds, bit for bit: folds
// interleaved across apps, an app listed twice in order, an app absent
// from order, and values that do not sum exactly.
func TestPerAppMatchesAggregate(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	apps := []string{"a", "b", "c", "d"}
	var rs []FoldResult
	for i := 0; i < 200; i++ {
		rs = append(rs, FoldResult{App: apps[rng.Intn(len(apps))], Metrics: Metrics{
			RankCorr: rng.NormFloat64(), Top1Err: rng.ExpFloat64() * 37, MeanErr: rng.Float64() * 1e3,
		}})
	}
	order := []string{"c", "a", "b", "a"}
	out, err := PerApp(rs, order)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 3 {
		t.Fatalf("PerApp returned %d apps, want 3", len(out))
	}
	for _, app := range order {
		var group []FoldResult
		for _, r := range rs {
			if r.App == app {
				group = append(group, r)
			}
		}
		agg, err := AggregateResults(group)
		if err != nil {
			t.Fatal(err)
		}
		if out[app] != agg.Mean {
			t.Fatalf("%s: PerApp %+v, AggregateResults mean %+v", app, out[app], agg.Mean)
		}
	}
}

func TestGoodnessOfFit(t *testing.T) {
	pred, tgt := syntheticPair(t, 6, 6, 5, 0.01, 10)
	r2, err := GoodnessOfFit(nil, pred, tgt, nil, func() Predictor { return NNT{} })
	if err != nil {
		t.Fatal(err)
	}
	if r2 < 0.8 {
		t.Fatalf("goodness of fit %v on near-exact affine data", r2)
	}
}

// Property: NN^T predictions are exact when target scores are an exact
// affine function of one predictive machine and the application follows it.
func TestNNTExactAffineProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	f := func(seed uint8) bool {
		nb := 6
		bench := make([]string, nb)
		for b := range bench {
			bench[b] = "b" + string(rune('0'+b))
		}
		predM := []dataset.Machine{{ID: "p0", Family: "P"}}
		tgtM := []dataset.Machine{{ID: "t0", Family: "T"}, {ID: "t1", Family: "T"}}
		pred, err := dataset.New(bench, predM)
		if err != nil {
			return false
		}
		tgt, err := dataset.New(bench, tgtM)
		if err != nil {
			return false
		}
		slope := 0.5 + rng.Float64()*2
		for b := 0; b < nb; b++ {
			base := 1 + rng.Float64()*9
			pred.Set(b, 0, base)
			tgt.Set(b, 0, slope*base)
			tgt.Set(b, 1, 2*slope*base)
		}
		m, _, predicted, err := RunFold(pred, tgt, "b3", nil, NNT{})
		if err != nil {
			return false
		}
		return m.MeanErr < 1e-6 && predicted[1] > predicted[0]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: fold metrics are invariant to target machine permutation.
func TestFoldPermutationInvarianceProperty(t *testing.T) {
	pred, tgt := syntheticPair(t, 6, 5, 6, 0.05, 13)
	m1, _, _, err := RunFold(pred, tgt, "benchB", nil, NNT{})
	if err != nil {
		t.Fatal(err)
	}
	// Reverse target machine order on an independent copy (SelectMachines
	// now returns an aliasing view, so mutate a Compact copy instead).
	rev := tgt.Compact()
	nm := rev.NumMachines()
	for i := 0; i < nm/2; i++ {
		rev.Machines[i], rev.Machines[nm-1-i] = rev.Machines[nm-1-i], rev.Machines[i]
		for b := range rev.Benchmarks {
			lo, hi := rev.At(b, i), rev.At(b, nm-1-i)
			rev.Set(b, i, hi)
			rev.Set(b, nm-1-i, lo)
		}
	}
	m2, _, _, err := RunFold(pred, rev, "benchB", nil, NNT{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(m1.RankCorr-m2.RankCorr) > 1e-9 || math.Abs(m1.Top1Err-m2.Top1Err) > 1e-9 {
		t.Fatalf("metrics changed under permutation: %+v vs %+v", m1, m2)
	}
}

func TestRunFoldPredictorErrorPropagates(t *testing.T) {
	pred, tgt := syntheticPair(t, 4, 3, 2, 0, 14)
	bad := predictorFunc(func(Fold) ([]float64, error) { return []float64{1}, nil })
	if _, _, _, err := RunFold(pred, tgt, "benchA", nil, bad); err == nil ||
		!strings.Contains(err.Error(), "predictions") {
		t.Fatalf("want arity error, got %v", err)
	}
}

type predictorFunc func(Fold) ([]float64, error)

func (predictorFunc) Name() string                            { return "stub" }
func (f predictorFunc) PredictApp(fd Fold) ([]float64, error) { return f(fd) }

// TestFamilyFoldsMatchFamilyCV pins the contract the experiments result
// store relies on: FamilyFolds(family) returns exactly the family's
// slice of FamilyCV's output, bit for bit.
func TestFamilyFoldsMatchFamilyCV(t *testing.T) {
	pred, tgt := syntheticPair(t, 5, 4, 3, 0.01, 7)
	machines := append(append([]dataset.Machine(nil), pred.Machines...), tgt.Machines...)
	d, err := dataset.New(pred.Benchmarks, machines)
	if err != nil {
		t.Fatal(err)
	}
	for b := range d.Benchmarks {
		for i := 0; i < 4; i++ {
			d.Set(b, i, pred.At(b, i))
		}
		for i := 0; i < 3; i++ {
			d.Set(b, 4+i, tgt.At(b, i))
		}
	}
	all, err := FamilyCV(nil, d, nil, func() Predictor { return NNT{} })
	if err != nil {
		t.Fatal(err)
	}
	var assembled []FoldResult
	for _, family := range d.Families() {
		rs, err := FamilyFolds(nil, d, nil, family, func() Predictor { return NNT{} })
		if err != nil {
			t.Fatal(err)
		}
		assembled = append(assembled, rs...)
	}
	if len(assembled) != len(all) {
		t.Fatalf("%d assembled folds, FamilyCV has %d", len(assembled), len(all))
	}
	for i := range all {
		if all[i].Split != assembled[i].Split || all[i].App != assembled[i].App ||
			all[i].Metrics != assembled[i].Metrics {
			t.Fatalf("fold %d differs: %+v vs %+v", i, all[i], assembled[i])
		}
		for j := range all[i].Predicted {
			if all[i].Predicted[j] != assembled[i].Predicted[j] {
				t.Fatalf("fold %d prediction %d differs", i, j)
			}
		}
	}
}

func TestFamilyFoldsUnknownFamily(t *testing.T) {
	pred, _ := syntheticPair(t, 4, 3, 2, 0.01, 7)
	if _, err := FamilyFolds(nil, pred, nil, "No Such Family", func() Predictor { return NNT{} }); err == nil {
		t.Fatal("want unknown-family error")
	}
}
