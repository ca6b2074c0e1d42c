package gaknn

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/dataset"
	"repro/internal/ga"
	"repro/internal/transpose"
)

// fastNew returns a GA-kNN predictor with a tiny GA budget for tests.
func fastNew(seed int64, k int) *Predictor {
	return &Predictor{
		K:  k,
		GA: ga.Config{Pop: 10, Generations: 6, Patience: 3, Seed: seed},
	}
}

// clusteredWorld builds a dataset with two workload clusters whose scores
// follow different machine orderings, plus matching characteristics. The
// characteristic space has one informative dimension (cluster id) and one
// noise dimension.
func clusteredWorld(t *testing.T, seed int64) (pred, tgt *dataset.Matrix, chars map[string][]float64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	bench := []string{"a0", "a1", "a2", "a3", "b0", "b1", "b2", "b3"}
	isB := func(name string) bool { return name[0] == 'b' }

	tgtM := make([]dataset.Machine, 6)
	for i := range tgtM {
		tgtM[i] = dataset.Machine{ID: "t" + string(rune('0'+i)), Family: "T"}
	}
	var err error
	tgt, err = dataset.New(bench, tgtM)
	if err != nil {
		t.Fatal(err)
	}
	// Cluster a: scores increase with machine index; cluster b: decrease.
	for b, name := range bench {
		scale := 5 + rng.Float64()*5
		for m := range tgtM {
			pos := float64(m + 1)
			if isB(name) {
				pos = float64(len(tgtM) - m)
			}
			tgt.Set(b, m, scale*pos*(1+rng.NormFloat64()*0.01))
		}
	}
	predM := []dataset.Machine{{ID: "p0", Family: "P"}}
	pred, err = dataset.New(bench, predM)
	if err != nil {
		t.Fatal(err)
	}
	for b := range bench {
		pred.Set(b, 0, 1+rng.Float64())
	}
	chars = map[string][]float64{}
	for _, name := range bench {
		cluster := 0.0
		if isB(name) {
			cluster = 1.0
		}
		chars[name] = []float64{cluster, rng.NormFloat64()}
	}
	return pred, tgt, chars
}

func TestName(t *testing.T) {
	if New(1).Name() != "GA-kNN" {
		t.Fatal("wrong name")
	}
}

func TestPredictsWithinCluster(t *testing.T) {
	pred, tgt, chars := clusteredWorld(t, 1)
	p := fastNew(2, 3)
	m, _, _, err := transpose.RunFold(pred, tgt, "a0", chars, p)
	if err != nil {
		t.Fatal(err)
	}
	// a0's cluster ranks machines in ascending order; neighbours from the
	// same cluster predict that ranking.
	if m.RankCorr < 0.9 {
		t.Fatalf("within-cluster rank correlation %v", m.RankCorr)
	}
	m, _, _, err = transpose.RunFold(pred, tgt, "b1", chars, p)
	if err != nil {
		t.Fatal(err)
	}
	if m.RankCorr < 0.9 {
		t.Fatalf("within-cluster rank correlation %v for b1", m.RankCorr)
	}
}

func TestOutlierCharacteristicsMislead(t *testing.T) {
	// If the application's measured characteristics point at the wrong
	// cluster, GA-kNN predicts the wrong machine ordering — the failure
	// mode the paper attributes to workload-similarity methods.
	pred, tgt, chars := clusteredWorld(t, 3)
	distorted := map[string][]float64{}
	for k, v := range chars {
		distorted[k] = v
	}
	// a0 truly behaves like cluster a (ascending) but measures as cluster b.
	distorted["a0"] = []float64{1.0, 0}
	p := fastNew(4, 3)
	m, _, _, err := transpose.RunFold(pred, tgt, "a0", distorted, p)
	if err != nil {
		t.Fatal(err)
	}
	if m.RankCorr > -0.5 {
		t.Fatalf("misleading characteristics should invert the ranking, got %v", m.RankCorr)
	}
	if m.Top1Err < 50 {
		t.Fatalf("misleading characteristics should blow up top-1 error, got %v", m.Top1Err)
	}
}

func TestMissingCharacteristics(t *testing.T) {
	pred, tgt, chars := clusteredWorld(t, 5)
	p := fastNew(6, 3)
	if _, _, _, err := transpose.RunFold(pred, tgt, "a0", nil, p); err == nil {
		t.Fatal("want error for nil characteristics")
	}
	incomplete := map[string][]float64{"a0": chars["a0"]}
	if _, _, _, err := transpose.RunFold(pred, tgt, "a0", incomplete, p); err == nil {
		t.Fatal("want error for missing benchmark characteristics")
	}
	short := map[string][]float64{}
	for k, v := range chars {
		short[k] = v
	}
	short["a1"] = []float64{1}
	if _, _, _, err := transpose.RunFold(pred, tgt, "a0", short, p); err == nil {
		t.Fatal("want error for dimension mismatch")
	}
}

func TestKValidation(t *testing.T) {
	pred, tgt, chars := clusteredWorld(t, 7)
	p := fastNew(8, 0)
	if _, _, _, err := transpose.RunFold(pred, tgt, "a0", chars, p); err == nil {
		t.Fatal("want error for k < 1")
	}
}

func TestKLargerThanBenchmarksClamped(t *testing.T) {
	pred, tgt, chars := clusteredWorld(t, 9)
	p := fastNew(10, 100) // clamps to the 7 available benchmarks
	m, _, _, err := transpose.RunFold(pred, tgt, "a0", chars, p)
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(m.RankCorr) {
		t.Fatal("NaN rank correlation")
	}
}

func TestDeterministicPerSeed(t *testing.T) {
	pred, tgt, chars := clusteredWorld(t, 11)
	fold, _, err := transpose.NewFold(pred, tgt, "a2", chars)
	if err != nil {
		t.Fatal(err)
	}
	a, err := fastNew(12, 3).PredictApp(fold)
	if err != nil {
		t.Fatal(err)
	}
	b, err := fastNew(12, 3).PredictApp(fold)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed, different predictions")
		}
	}
}

func TestWeightedMeanExactHit(t *testing.T) {
	// A zero-distance neighbour must dominate the weighted mean.
	pred, tgt, chars := clusteredWorld(t, 13)
	// Make a1's characteristics identical to a0's: prediction for a0
	// should essentially copy a1's scores.
	chars["a1"] = append([]float64(nil), chars["a0"]...)
	fold, _, err := transpose.NewFold(pred, tgt, "a0", chars)
	if err != nil {
		t.Fatal(err)
	}
	p := fastNew(14, 3)
	predicted, err := p.PredictApp(fold)
	if err != nil {
		t.Fatal(err)
	}
	b1, err := fold.Tgt.BenchmarkIndex("a1")
	if err != nil {
		t.Fatal(err)
	}
	for m := range predicted {
		twin := fold.Tgt.At(b1, m)
		rel := math.Abs(predicted[m]-twin) / twin
		if rel > 0.25 {
			t.Fatalf("machine %d: prediction %v far from twin benchmark score %v",
				m, predicted[m], twin)
		}
	}
}

func TestNormalise(t *testing.T) {
	bench := [][]float64{{1, 10}, {3, 10}}
	app := []float64{2, 10}
	zb, za := normalise(bench, app)
	// Dimension 0 has spread: z-scores must average 0 over all three.
	sum := zb[0][0] + zb[1][0] + za[0]
	if math.Abs(sum) > 1e-9 {
		t.Fatalf("dimension 0 z-scores sum to %v", sum)
	}
	// Dimension 1 is constant: all zeros.
	if zb[0][1] != 0 || zb[1][1] != 0 || za[1] != 0 {
		t.Fatal("constant dimension must normalise to zero")
	}
}

// TestLooErrorAllocFree pins the GA fitness inner loop: once the
// neighbour scratch pool is warm, one leave-one-out evaluation — the
// function the GA calls tens of thousands of times per fit — allocates
// nothing.
func TestLooErrorAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts at random under the race detector")
	}
	in := clusteredInput(t, 5, "a0", nil)
	zBench, scores := in.zBench, in.scores
	p := fastNew(3, 3)
	w := make([]float64, len(in.zApp))
	for j := range w {
		w[j] = 0.5
	}
	p.looError(w, zBench, scores) // warm the scratch pool
	avg := testing.AllocsPerRun(100, func() {
		p.looError(w, zBench, scores)
	})
	if avg != 0 {
		t.Fatalf("looError allocates %.1f objects per evaluation at steady state, want 0", avg)
	}
}
