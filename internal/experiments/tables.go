package experiments

import (
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/engine"
	"repro/internal/method"
	"repro/internal/transpose"
)

// TargetYear is the release year of the paper's future-machine targets.
const TargetYear = 2009

// keep2008 selects the 2008 machines, the predictive pool of Table 4,
// Figure 8 and the selection ablation.
func keep2008(year int) bool { return year == 2008 }

// Table3Splits lists the §6.3 predictive sets in the paper's column order.
var Table3Splits = []string{"2008", "2007", "older"}

func splitKeep(split string) (func(int) bool, error) {
	switch split {
	case "2008":
		return func(y int) bool { return y == 2008 }, nil
	case "2007":
		return func(y int) bool { return y == 2007 }, nil
	case "older":
		return func(y int) bool { return y < 2007 }, nil
	default:
		return nil, fmt.Errorf("experiments: unknown Table 3 split %q", split)
	}
}

// Table3 is the paper's Table 3: predicting the 2009 machines from
// progressively older predictive sets, per method and split.
type Table3 struct {
	Methods []string
	Splits  []string
	// Summary[method][split]
	Summary map[string]map[string]Summary
}

// table3Units enumerates Table 3's units: one per (method, split) cell,
// method-major, split-minor.
func (c *Config) table3Units() ([]unitSpec[Summary], error) {
	ds, err := c.dataset()
	if err != nil {
		return nil, err
	}
	order := ds.layout.Benchmarks
	eng := c.eng()
	methods := c.Methods()
	units := make([]unitSpec[Summary], 0, len(methods)*len(Table3Splits))
	for _, m := range methods {
		for _, split := range Table3Splits {
			m, split := m, split
			units = append(units, unitSpec[Summary]{
				key: c.unitKey(ds.fp, SpecTable3, m.Name, split),
				compute: func() (Summary, error) {
					keep, err := splitKeep(split)
					if err != nil {
						return Summary{}, err
					}
					data, err := ds.data()
					if err != nil {
						return Summary{}, err
					}
					rs, err := transpose.YearCV(eng, data.Matrix, data.Characteristics, TargetYear, keep, split, m.New)
					if err != nil {
						return Summary{}, fmt.Errorf("experiments: Table 3 %s/%s: %w", m.Name, split, err)
					}
					return summarize(rs, order)
				},
			})
		}
	}
	return units, nil
}

// RunTable3 executes the §6.3 experiment. Every (method, split) cell is
// one result-store unit; cells and their folds fan out on the configured
// worker pool and are assembled in the paper's order afterwards.
func RunTable3(cfg Config) (*Table3, error) {
	units, err := cfg.table3Units()
	if err != nil {
		return nil, err
	}
	cells, err := collectUnits(&cfg, units)
	if err != nil {
		return nil, err
	}
	methods := cfg.Methods()
	out := &Table3{Methods: MethodNames, Splits: Table3Splits, Summary: map[string]map[string]Summary{}}
	for i, s := range cells {
		name := methods[i/len(Table3Splits)].Name
		if out.Summary[name] == nil {
			out.Summary[name] = map[string]Summary{}
		}
		out.Summary[name][Table3Splits[i%len(Table3Splits)]] = s
	}
	return out, nil
}

// Render formats Table 3 in the paper's layout (one block per method).
func (t *Table3) Render() string {
	var sb strings.Builder
	sb.WriteString("Table 3: predicting the 2009 machines from older machines — mean (worst case)\n")
	for _, m := range t.Methods {
		fmt.Fprintf(&sb, "\n(%s)\n%-18s", m, "")
		for _, split := range t.Splits {
			fmt.Fprintf(&sb, "%22s", split)
		}
		sb.WriteByte('\n')
		row := func(label string, get func(Summary) (float64, float64), format string) {
			fmt.Fprintf(&sb, "%-18s", label)
			for _, split := range t.Splits {
				mean, worst := get(t.Summary[m][split])
				fmt.Fprintf(&sb, "%22s", fmt.Sprintf(format, mean, worst))
			}
			sb.WriteByte('\n')
		}
		row("Rank correlation", func(s Summary) (float64, float64) { return s.Mean.RankCorr, s.Worst.RankCorr }, "%.2f (%.2f)")
		row("Top-1 error", func(s Summary) (float64, float64) { return s.Mean.Top1Err, s.Worst.Top1Err }, "%.2f (%.1f)")
		row("Mean error", func(s Summary) (float64, float64) { return s.Mean.MeanErr, s.Worst.MeanErr }, "%.2f (%.1f)")
	}
	return sb.String()
}

// Table4Sizes lists the §6.4 predictive-subset sizes.
var Table4Sizes = []int{10, 5, 3}

// Table4 is the paper's Table 4: prediction quality with small random
// subsets of the 2008 machines as the predictive set. Values are averaged
// over Config.RandomDraws subset draws.
type Table4 struct {
	Methods []string
	Sizes   []int
	// Summary[method][size]
	Summary map[string]map[int]Summary
	Draws   int
}

// table4Methods lists the §6.4 methods (the paper's Table 4 reports MLPᵀ
// and NNᵀ).
var table4Methods = []string{method.MLPT, method.NNT}

// table4Draws caps the subset-draw average: the paper does not specify
// averaging; a single unlucky 3-machine draw is meaningless, so a handful
// are averaged.
func (c Config) table4Draws() int {
	if d := c.draws(); d <= 10 {
		return d
	}
	return 10
}

// table4Units enumerates Table 4's units: one per (method, size, draw),
// method-major, then size, then draw. Each draw owns a PRNG seeded from
// (Seed, size, draw), so draws fan out without sharing a sequential
// random stream.
func (c *Config) table4Units() ([]unitSpec[[]transpose.FoldResult], error) {
	ds, err := c.dataset()
	if err != nil {
		return nil, err
	}
	draws := c.table4Draws()
	eng := c.eng()
	seed := c.Seed
	var units []unitSpec[[]transpose.FoldResult]
	for _, name := range table4Methods {
		m, err := c.method(name)
		if err != nil {
			return nil, err
		}
		for _, size := range Table4Sizes {
			for d := 0; d < draws; d++ {
				m, size, d := m, size, d
				label := fmt.Sprintf("2008/%d#%d", size, d)
				units = append(units, unitSpec[[]transpose.FoldResult]{
					key: c.unitKey(ds.fp, SpecTable4, m.Name, label),
					compute: func() ([]transpose.FoldResult, error) {
						data, err := ds.data()
						if err != nil {
							return nil, err
						}
						rng := rand.New(rand.NewSource(engine.Seed(seed, int64(size), int64(d))))
						rs, err := transpose.SubsetCV(eng, data.Matrix, data.Characteristics, TargetYear, keep2008,
							transpose.RandomSubset(size, rng), label, m.New)
						if err != nil {
							return nil, fmt.Errorf("experiments: Table 4 %s size %d: %w", m.Name, size, err)
						}
						return rs, nil
					},
				})
			}
		}
	}
	return units, nil
}

// RunTable4 executes the §6.4 experiment: every (method, size, draw) is
// one result-store unit, all fanned out together on the worker pool and
// reduced per (method, size) in draw order afterwards.
func RunTable4(cfg Config) (*Table4, error) {
	units, err := cfg.table4Units()
	if err != nil {
		return nil, err
	}
	ds, err := cfg.dataset()
	if err != nil {
		return nil, err
	}
	vals, err := collectUnits(&cfg, units)
	if err != nil {
		return nil, err
	}
	order := ds.layout.Benchmarks
	draws := cfg.table4Draws()
	out := &Table4{Methods: table4Methods, Sizes: Table4Sizes, Summary: map[string]map[int]Summary{}, Draws: draws}
	i := 0
	for _, name := range table4Methods {
		out.Summary[name] = map[int]Summary{}
		for _, size := range Table4Sizes {
			var all []transpose.FoldResult
			for d := 0; d < draws; d++ {
				all = append(all, vals[i]...)
				i++
			}
			s, err := summarize(all, order)
			if err != nil {
				return nil, err
			}
			out.Summary[name][size] = s
		}
	}
	return out, nil
}

// Render formats Table 4 in the paper's layout.
func (t *Table4) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Table 4: 2009 targets from small 2008 predictive subsets — mean over %d draws\n", t.Draws)
	for _, m := range t.Methods {
		fmt.Fprintf(&sb, "\n(%s)\n%-18s", m, "Subset size")
		for _, size := range t.Sizes {
			fmt.Fprintf(&sb, "%14d", size)
		}
		sb.WriteByte('\n')
		row := func(label string, get func(Summary) float64, format string) {
			fmt.Fprintf(&sb, "%-18s", label)
			for _, size := range t.Sizes {
				fmt.Fprintf(&sb, "%14s", fmt.Sprintf(format, get(t.Summary[m][size])))
			}
			sb.WriteByte('\n')
		}
		row("Rank correlation", func(s Summary) float64 { return s.Mean.RankCorr }, "%.2f")
		row("Top-1 error", func(s Summary) float64 { return s.Mean.Top1Err }, "%.2f")
		row("Mean error", func(s Summary) float64 { return s.Mean.MeanErr }, "%.2f")
	}
	return sb.String()
}
