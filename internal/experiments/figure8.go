package experiments

import (
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/engine"
	"repro/internal/method"
	"repro/internal/stats"
	"repro/internal/textplot"
	"repro/internal/transpose"
)

// Figure8 is the paper's Figure 8: goodness of fit R² of MLPᵀ predictions
// as a function of the number of predictive machines, for k-medoids versus
// random selection (random averaged over Draws draws).
type Figure8 struct {
	Ks     []int
	Medoid []float64
	Random []float64
	Draws  int
}

// figure8Units enumerates the §6.5 sweep: per k (1..maxK, clamped to the
// 2008 pool size) one k-medoids unit followed by the random-draw units,
// so the flat list has a fixed stride of 1+draws per k. Every draw owns a
// PRNG seeded from (Seed, k, draw), so the series are identical for every
// worker count and lease assignment.
func (c *Config) figure8Units() ([]unitSpec[float64], error) {
	ds, err := c.dataset()
	if err != nil {
		return nil, err
	}
	_, pool, err := ds.layout.YearSplit(TargetYear, keep2008)
	if err != nil {
		return nil, err
	}
	maxK := c.maxK()
	if maxK > pool.NumMachines() {
		maxK = pool.NumMachines()
	}
	eng := c.eng()
	seed := c.Seed
	draws := c.draws()
	mlpt, err := c.method(method.MLPT)
	if err != nil {
		return nil, err
	}
	var units []unitSpec[float64]
	for k := 1; k <= maxK; k++ {
		k := k
		units = append(units, unitSpec[float64]{
			key: c.unitKey(ds.fp, SpecFigure8, mlpt.Name, fmt.Sprintf("medoid/k=%d", k)),
			compute: func() (float64, error) {
				sp, err := ds.split2008()
				if err != nil {
					return 0, err
				}
				sub, err := transpose.MedoidSubset(k)(sp.pool)
				if err != nil {
					return 0, err
				}
				r2, err := transpose.GoodnessOfFit(eng, sub, sp.tgt, sp.chars, mlpt.New)
				if err != nil {
					return 0, fmt.Errorf("experiments: Figure 8 medoid k=%d: %w", k, err)
				}
				return r2, nil
			},
		})
		for d := 0; d < draws; d++ {
			d := d
			units = append(units, unitSpec[float64]{
				key: c.unitKey(ds.fp, SpecFigure8, mlpt.Name, fmt.Sprintf("random/k=%d#%d", k, d)),
				compute: func() (float64, error) {
					sp, err := ds.split2008()
					if err != nil {
						return 0, err
					}
					rng := rand.New(rand.NewSource(engine.Seed(seed, int64(1000+k), int64(d))))
					sub, err := transpose.RandomSubset(k, rng)(sp.pool)
					if err != nil {
						return 0, err
					}
					r2, err := transpose.GoodnessOfFit(eng, sub, sp.tgt, sp.chars, mlpt.New)
					if err != nil {
						return 0, fmt.Errorf("experiments: Figure 8 random k=%d draw %d: %w", k, d, err)
					}
					return r2, nil
				},
			})
		}
	}
	return units, nil
}

// RunFigure8 executes the §6.5 experiment. The predictive pool is the 2008
// machines, the targets the 2009 machines, matching the setting of §6.4
// that the selection question arises from. All sweep units fan out
// together on the configured worker pool and are reduced per k in draw
// order afterwards.
func RunFigure8(cfg Config) (*Figure8, error) {
	units, err := cfg.figure8Units()
	if err != nil {
		return nil, err
	}
	vals, err := collectUnits(&cfg, units)
	if err != nil {
		return nil, err
	}
	out := &Figure8{Draws: cfg.draws()}
	stride := 1 + out.Draws
	for i := 0; i < len(vals); i += stride {
		out.Ks = append(out.Ks, i/stride+1)
		out.Medoid = append(out.Medoid, vals[i])
		out.Random = append(out.Random, stats.Mean(vals[i+1:i+stride]))
	}
	return out, nil
}

// Render draws the figure as an ASCII line chart plus the raw series.
func (f *Figure8) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Figure 8: goodness of fit R² vs number of predictive machines (MLP^T)\n")
	fmt.Fprintf(&sb, "(random selection averaged over %d draws)\n\n", f.Draws)
	xs := make([]float64, len(f.Ks))
	for i, k := range f.Ks {
		xs[i] = float64(k)
	}
	chart, err := textplot.Line(xs, []textplot.Series{
		{Name: "k-medoids", Values: f.Medoid},
		{Name: "random", Values: f.Random},
	}, 50, 12)
	if err != nil {
		fmt.Fprintf(&sb, "(render error: %v)\n", err)
	} else {
		sb.WriteString(chart)
	}
	sb.WriteByte('\n')
	fmt.Fprintf(&sb, "%-4s %10s %10s\n", "k", "k-medoids", "random")
	for i, k := range f.Ks {
		fmt.Fprintf(&sb, "%-4d %10.3f %10.3f\n", k, f.Medoid[i], f.Random[i])
	}
	return sb.String()
}
