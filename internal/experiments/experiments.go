// Package experiments reproduces every table and figure of the paper's
// evaluation (§6): Table 2 and Figures 6-7 (processor-family
// cross-validation), Table 3 (predicting future machines), Table 4 (limited
// predictive sets) and Figure 8 (k-medoids versus random predictive-machine
// selection). Each runner returns a typed result with a Render method that
// prints the same rows or series the paper reports.
//
// Every table cell, figure point and ablation variant is one unit in a
// result store. RunSpecs renders specs, computing only missing units;
// PlanSpecs and Executor compute a plan's units without rendering, which
// is how work-stealing workers (internal/coord) fill one shared store that
// any process then renders byte-identically to a single-process run.
package experiments

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"

	"repro/internal/engine"
	"repro/internal/method"
	"repro/internal/resultstore"
	"repro/internal/synth"
	"repro/internal/transpose"
)

// Config parameterises an experiment run.
type Config struct {
	// Seed drives dataset synthesis and every stochastic model.
	Seed int64
	// Synth overrides dataset synthesis options; zero value means
	// synth.DefaultOptions(Seed).
	Synth *synth.Options
	// Data, when set, is used as the run's dataset instead of synthesising
	// one — only Matrix and Characteristics are consumed. Unit keys embed
	// the injected data's fingerprint, so a run over a dataset that equals
	// the synthesised one (same matrix bytes, same characteristics)
	// addresses the very same store units and renders byte-identical
	// output; any other dataset addresses a disjoint key space. This is
	// how dtrankd renders reports against its served snapshot while
	// staying interchangeable with `dtrank run` over a shared store.
	Data *synth.Data
	// RandomDraws is the number of random predictive-set draws averaged in
	// Table 4 and Figure 8 (the paper averages 50 in Figure 8).
	RandomDraws int
	// MaxK is the largest predictive-set size swept in Figure 8.
	MaxK int
	// Fast trades accuracy for speed (small GA budget, short MLP
	// training). Meant for tests and smoke runs, not for reported numbers.
	Fast bool
	// Workers bounds the engine pool that fans out folds, draws and sweep
	// points; 0 means the process-wide default (runtime.GOMAXPROCS(0)).
	// Results are byte-identical for every worker count.
	Workers int
	// Store receives every computed unit result (table cells, figure
	// points, ablation variants) and serves previously computed ones, so
	// reruns are incremental. nil means a fresh in-memory store per
	// runner call; open a directory- or HTTP-backed store
	// (resultstore.Open) to persist results across runs and processes.
	// Cached results never change output: cold, warm and distributed
	// (work-stealing) runs render byte-identical text.
	Store resultstore.Store
	// pool is the run's worker pool, created lazily by eng(). Predictor
	// factories hand it to the GA's inner fan-out so one token budget
	// bounds the fold and fitness layers.
	pool *engine.Pool
	// ds memoizes the synthesised dataset and its fingerprint, so one
	// RunSpecs/RunAll invocation generates the dataset exactly once and
	// every spec (and the planner) reads the same instance.
	ds *runDataset
	// fam memoizes the family cross-validation of one RunSpecs
	// invocation: Table 2 and Figures 6-7 are three views of one
	// experiment, so the first of them to run fetches, decodes and
	// assembles the family-CV units and the other two reuse the result.
	// nil (RunReport, direct RunFamilyCV calls) means no memo.
	fam *familyMemo
}

// familyMemo is the memoized family cross-validation of one run; run is
// nil until the first family view fills it.
type familyMemo struct {
	run *FamilyRun
}

// runDataset is the memoized dataset of one run.
type runDataset struct {
	data *synth.Data
	fp   string
}

// DefaultConfig returns the configuration used for reported results.
func DefaultConfig(seed int64) Config {
	return Config{Seed: seed, RandomDraws: 50, MaxK: 10}
}

func (c Config) synthOptions() synth.Options {
	if c.Synth != nil {
		return *c.Synth
	}
	return synth.DefaultOptions(c.Seed)
}

func (c Config) draws() int {
	if c.RandomDraws > 0 {
		return c.RandomDraws
	}
	return 50
}

func (c Config) maxK() int {
	if c.MaxK > 0 {
		return c.MaxK
	}
	return 10
}

// eng returns the worker pool for this run: a dedicated pool when Workers
// is set, the process-wide default otherwise. Runners must call eng()
// before building predictor factories (Methods and friends) so the
// factories capture the same pool.
func (c *Config) eng() *engine.Pool {
	if c.pool == nil {
		if c.Workers > 0 {
			c.pool = engine.New(c.Workers)
		} else {
			c.pool = engine.Default()
		}
	}
	return c.pool
}

// store returns the run's result store, creating an in-memory one when
// the Config carries none. Runners must call store() on the same Config
// pointer they later hand to unit helpers, so one run shares one store.
func (c *Config) store() resultstore.Store {
	if c.Store == nil {
		c.Store = resultstore.New()
	}
	return c.Store
}

// dataset returns the run's synthetic dataset and its fingerprint,
// generating both on first use. Runners and the planner call it on the
// same Config copy RunSpecs/PlanSpecs materialised, so a multi-spec run
// synthesises the dataset once instead of once per spec.
func (c *Config) dataset() (*synth.Data, string, error) {
	if c.ds == nil {
		data := c.Data
		if data == nil {
			var err error
			data, err = synth.Generate(c.synthOptions())
			if err != nil {
				return nil, "", err
			}
		}
		c.ds = &runDataset{data: data, fp: datasetFingerprint(data)}
	}
	return c.ds.data, c.ds.fp, nil
}

// familyRun returns the run's family cross-validation. With a memo (a
// RunSpecs invocation) it is computed by the first caller and shared by
// the rest; without one every call runs RunFamilyCV afresh.
func (c Config) familyRun() (*FamilyRun, error) {
	if c.fam == nil {
		return RunFamilyCV(c)
	}
	if c.fam.run == nil {
		fr, err := RunFamilyCV(c)
		if err != nil {
			return nil, err
		}
		c.fam.run = fr
	}
	return c.fam.run, nil
}

// methodOptions is the construction tuning every predictor of this run
// shares. Runners must call eng() first so the factories capture the
// run's pool.
func (c Config) methodOptions() method.Options {
	return method.Options{Fast: c.Fast, Pool: c.pool}
}

// Method is a named predictor factory.
type Method struct {
	Name string
	New  func() transpose.Predictor
}

// MethodNames lists the methods in the paper's column order, from the
// method registry.
var MethodNames = method.ComparedNames()

// Methods returns the paper's compared methods, built from the method
// registry with this run's seed, budget and worker pool.
func (c Config) Methods() []Method {
	names := MethodNames
	out := make([]Method, 0, len(names))
	for _, name := range names {
		m, err := c.method(name)
		if err != nil {
			// Registry names always resolve; a failure here is a
			// programming error in the registry itself.
			panic(err)
		}
		out = append(out, m)
	}
	return out
}

// MethodByName resolves one method's predictor factory through the
// registry (canonical name or alias), with this run's seed, budget and
// pool — the entry point the registry drift test uses to assert this
// layer builds the same predictors as the CLI and the server.
func (c Config) MethodByName(name string) (Method, error) {
	return c.method(name)
}

// method resolves a predictor factory through the method registry; the
// factory applies the registry's seed-offset convention and this run's
// options.
func (c Config) method(name string) (Method, error) {
	d, err := method.Get(name)
	if err != nil {
		return Method{}, fmt.Errorf("experiments: %w", err)
	}
	opts := c.methodOptions()
	seed := c.Seed
	return Method{Name: d.Name, New: func() transpose.Predictor { return d.NewWith(seed, opts) }}, nil
}

// datasetFingerprint hashes everything the experiment units consume from
// the dataset: the score matrix snapshot plus the (possibly distorted)
// workload characteristics. It is the Snapshot component of every result
// key, so any dataset change — new machines, new scores, a different
// characterisation — invalidates every cached unit.
func datasetFingerprint(data *synth.Data) string {
	h := sha256.New()
	io.WriteString(h, data.Matrix.Hash())
	names := make([]string, 0, len(data.Characteristics))
	for name := range data.Characteristics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(h, "%q:", name)
		for _, v := range data.Characteristics[name] {
			binary.Write(h, binary.LittleEndian, math.Float64bits(v))
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// unitKey builds the result-store key of one experiment unit, attaching
// the run's training-budget regime: a -fast run and a full run address
// disjoint units, so neither can serve the other's results.
func (c Config) unitKey(fp, spec, methodName, split string) resultstore.Key {
	k := resultstore.Key{Snapshot: fp, Spec: spec, Method: methodName, Split: split, Seed: c.Seed}
	if c.Fast {
		k.Budget = "fast"
	}
	return k
}

// unitSpec is one enumerated experiment unit: the store key addressing
// it plus the typed computation that produces its value. Per-spec
// enumerators build these lists in a canonical deterministic order; the
// runners consume them through collectUnits and the planner erases them
// to Units through planOf — one enumeration, so the executed units and
// the rendered report can never disagree about what the units are.
type unitSpec[T any] struct {
	key     resultstore.Key
	compute func() (T, error)
}

// planOf erases typed unit specs to planned Units, preserving order.
func planOf[T any](us []unitSpec[T], err error) ([]Unit, error) {
	if err != nil {
		return nil, err
	}
	out := make([]Unit, len(us))
	for i, u := range us {
		u := u
		out[i] = Unit{Key: u.key, exec: func(st resultstore.Store) error {
			_, err := storeUnit(st, u.key, u.compute)
			return err
		}}
	}
	return out, nil
}

// collectUnits computes every unit through the run's store on the run's
// worker pool, returning the values in unit order — the rendering side
// of the pipeline. Units already in the store are served, missing ones
// computed and stored.
func collectUnits[T any](cfg *Config, us []unitSpec[T]) ([]T, error) {
	eng := cfg.eng()
	st := cfg.store()
	return engine.Collect(eng, len(us), func(i int) (T, error) {
		return storeUnit(st, us[i].key, us[i].compute)
	})
}

// storeUnit computes one experiment unit through the result store: a
// previously stored result is served as-is, otherwise compute runs and
// its result is stored. The returned value always comes from the store's
// canonical encoding, so cold and warm runs continue with bit-identical
// values.
func storeUnit[T any](st resultstore.Store, key resultstore.Key, compute func() (T, error)) (T, error) {
	var v T
	ok, err := st.Get(key, &v)
	if err != nil {
		var zero T
		return zero, err
	}
	if ok {
		return v, nil
	}
	v, err = compute()
	if err != nil {
		var zero T
		return zero, err
	}
	var out T
	if err := st.Put(key, v, &out); err != nil {
		var zero T
		return zero, err
	}
	return out, nil
}

// Summary holds the paper's table cell format: the mean over folds and the
// worst case (in brackets in the paper). Following Figures 6 and 7, the
// worst case is taken over per-benchmark averages: metrics are first
// averaged per application across splits, then the extreme across
// applications is reported.
type Summary struct {
	Mean  transpose.Metrics
	Worst transpose.Metrics
	// WorstFoldTop1 is the single worst top-1 deficiency across raw folds —
	// the ">100% for some workloads" number quoted in the paper's text.
	WorstFoldTop1 float64
	Folds         int
}

// summarize reduces fold results per the paper's aggregation.
func summarize(rs []transpose.FoldResult, order []string) (Summary, error) {
	perApp, err := transpose.PerApp(rs, order)
	if err != nil {
		return Summary{}, err
	}
	return summarizePerApp(rs, perApp, order), nil
}

// summarizePerApp is summarize over per-app metrics already computed
// from rs.
func summarizePerApp(rs []transpose.FoldResult, perApp map[string]transpose.Metrics, order []string) Summary {
	s := Summary{Folds: len(rs)}
	s.Worst.RankCorr = math.Inf(1)
	s.Worst.Top1Err = math.Inf(-1)
	s.Worst.MeanErr = math.Inf(-1)
	for _, app := range order {
		m := perApp[app]
		s.Mean.RankCorr += m.RankCorr
		s.Mean.Top1Err += m.Top1Err
		s.Mean.MeanErr += m.MeanErr
		s.Worst.RankCorr = math.Min(s.Worst.RankCorr, m.RankCorr)
		s.Worst.Top1Err = math.Max(s.Worst.Top1Err, m.Top1Err)
		s.Worst.MeanErr = math.Max(s.Worst.MeanErr, m.MeanErr)
	}
	n := float64(len(order))
	s.Mean.RankCorr /= n
	s.Mean.Top1Err /= n
	s.Mean.MeanErr /= n
	for _, r := range rs {
		if r.Metrics.Top1Err > s.WorstFoldTop1 {
			s.WorstFoldTop1 = r.Metrics.Top1Err
		}
	}
	return s
}

// FamilyRun holds the processor-family cross-validation results shared by
// Table 2, Figure 6 and Figure 7. RunFamilyCV also attaches each
// method's per-app metrics, computed once, which the three views read; a
// FamilyRun built by hand carries none, and its views compute them from
// Results (transpose.PerApp) on every call, with identical output.
type FamilyRun struct {
	// Order is the benchmark order (the figures' x axis).
	Order []string
	// Results holds the raw fold results per method name.
	Results map[string][]transpose.FoldResult

	// perApp[method] is transpose.PerApp(Results[method], Order), set by
	// RunFamilyCV.
	perApp map[string]map[string]transpose.Metrics
}

// methodResults returns one method's fold results and their per-app
// metrics, from the run's precomputed metrics when it carries them.
func (fr *FamilyRun) methodResults(name string) ([]transpose.FoldResult, map[string]transpose.Metrics, error) {
	rs, ok := fr.Results[name]
	if !ok {
		return nil, nil, fmt.Errorf("experiments: no results for method %q", name)
	}
	if perApp, ok := fr.perApp[name]; ok {
		return rs, perApp, nil
	}
	perApp, err := transpose.PerApp(rs, fr.Order)
	if err != nil {
		return nil, nil, err
	}
	return rs, perApp, nil
}

// familyCVUnits enumerates the family cross-validation units shared by
// Table 2 and Figures 6-7: one unit per (method, family) cell, in
// method-major, family-minor order.
func (c *Config) familyCVUnits() ([]unitSpec[[]transpose.FoldResult], error) {
	data, fp, err := c.dataset()
	if err != nil {
		return nil, err
	}
	eng := c.eng()
	methods := c.Methods()
	families := data.Matrix.Families()
	units := make([]unitSpec[[]transpose.FoldResult], 0, len(methods)*len(families))
	for _, m := range methods {
		for _, family := range families {
			m, family := m, family
			units = append(units, unitSpec[[]transpose.FoldResult]{
				key: c.unitKey(fp, unitFamilyCV, m.Name, family),
				compute: func() ([]transpose.FoldResult, error) {
					rs, err := transpose.FamilyFolds(eng, data.Matrix, data.Characteristics, family, m.New)
					if err != nil {
						return nil, fmt.Errorf("experiments: family CV with %s: %w", m.Name, err)
					}
					return rs, nil
				},
			})
		}
	}
	return units, nil
}

// RunFamilyCV executes the §6.2 experiment for all three methods. Every
// (method, family) cell is one result-store unit: cells fan out on the
// configured worker pool (their folds fan out within), results are
// assembled in the serial family-major order, so output is independent of
// the worker count, and a warm store serves previously computed cells
// without refitting anything. Each call reads every cell from the store
// once; RunSpecs calls it at most once per invocation.
func RunFamilyCV(cfg Config) (*FamilyRun, error) {
	units, err := cfg.familyCVUnits()
	if err != nil {
		return nil, err
	}
	data, _, err := cfg.dataset()
	if err != nil {
		return nil, err
	}
	cells, err := collectUnits(&cfg, units)
	if err != nil {
		return nil, err
	}
	methods := cfg.Methods()
	run := &FamilyRun{
		Order:   append([]string(nil), data.Matrix.Benchmarks...),
		Results: make(map[string][]transpose.FoldResult, len(methods)),
		perApp:  make(map[string]map[string]transpose.Metrics, len(methods)),
	}
	families := len(data.Matrix.Families())
	for i, m := range methods {
		mc := cells[i*families : (i+1)*families]
		n := 0
		for _, c := range mc {
			n += len(c)
		}
		rs := make([]transpose.FoldResult, 0, n)
		for _, c := range mc {
			rs = append(rs, c...)
		}
		perApp, err := transpose.PerApp(rs, run.Order)
		if err != nil {
			return nil, err
		}
		run.Results[m.Name] = rs
		run.perApp[m.Name] = perApp
	}
	return run, nil
}

// Table2 is the paper's Table 2: per-method mean and worst-case of the
// three metrics under processor-family cross-validation.
type Table2 struct {
	Methods []string
	Summary map[string]Summary
}

// Table2 reduces the family run to the paper's Table 2.
func (fr *FamilyRun) Table2() (*Table2, error) {
	out := &Table2{Methods: MethodNames, Summary: map[string]Summary{}}
	for _, name := range MethodNames {
		rs, perApp, err := fr.methodResults(name)
		if err != nil {
			return nil, err
		}
		out.Summary[name] = summarizePerApp(rs, perApp, fr.Order)
	}
	return out, nil
}

// Render formats the table in the paper's layout.
func (t *Table2) Render() string {
	var sb strings.Builder
	sb.WriteString("Table 2: processor-family cross-validation — mean (worst case)\n\n")
	fmt.Fprintf(&sb, "%-18s", "")
	for _, m := range t.Methods {
		fmt.Fprintf(&sb, "%22s", m)
	}
	sb.WriteByte('\n')
	row := func(label string, get func(Summary) (float64, float64), format string) {
		fmt.Fprintf(&sb, "%-18s", label)
		for _, m := range t.Methods {
			mean, worst := get(t.Summary[m])
			fmt.Fprintf(&sb, "%22s", fmt.Sprintf(format, mean, worst))
		}
		sb.WriteByte('\n')
	}
	row("Rank correlation", func(s Summary) (float64, float64) { return s.Mean.RankCorr, s.Worst.RankCorr }, "%.2f (%.2f)")
	row("Top-1 error", func(s Summary) (float64, float64) { return s.Mean.Top1Err, s.Worst.Top1Err }, "%.2f (%.1f)")
	row("Mean error", func(s Summary) (float64, float64) { return s.Mean.MeanErr, s.Worst.MeanErr }, "%.2f (%.1f)")
	fmt.Fprintf(&sb, "%-18s", "Worst single fold")
	for _, m := range t.Methods {
		fmt.Fprintf(&sb, "%22s", fmt.Sprintf("top-1 %.0f%%", t.Summary[m].WorstFoldTop1))
	}
	sb.WriteByte('\n')
	return sb.String()
}
