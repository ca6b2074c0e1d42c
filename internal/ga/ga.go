// Package ga implements a generic real-coded genetic algorithm: tournament
// selection, BLX-α blend crossover, Gaussian mutation and elitism. It is the
// optimisation substrate of the GA-kNN baseline (Hoste et al.), which uses
// it to learn the per-dimension weights of a workload-similarity metric.
package ga

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"

	"repro/internal/engine"
)

// Fitness scores a genome; the GA MINIMISES this value. It must be a
// pure function of the genome: Run reuses the score of an elite, and of
// a parent for a child equal to it bit for bit, instead of calling it.
type Fitness func(genome []float64) float64

// Config controls the evolutionary run.
type Config struct {
	// Genes is the genome length.
	Genes int
	// Pop is the population size (default 50).
	Pop int
	// Generations is the number of generations to evolve (default 100).
	Generations int
	// Lo and Hi bound every gene value (defaults 0 and 1).
	Lo, Hi float64
	// TournamentK is the tournament size for selection (default 3).
	TournamentK int
	// CrossoverRate is the probability of crossover per offspring pair
	// (default 0.9).
	CrossoverRate float64
	// BlendAlpha is the BLX-α expansion factor (default 0.5).
	BlendAlpha float64
	// MutationRate is the per-gene probability of Gaussian mutation
	// (default 1/Genes).
	MutationRate float64
	// MutationSigma is the Gaussian mutation step relative to the gene
	// range (default 0.1).
	MutationSigma float64
	// Elite is the number of best individuals copied unchanged into the
	// next generation (default 2).
	Elite int
	// Seed drives all randomness.
	Seed int64
	// Parallel evaluates fitness concurrently when true. The fitness
	// function must then be safe for concurrent use. Evaluation is fanned
	// out on Pool, so the process-wide worker budget is respected; the
	// evolution itself is unaffected (fitness lands in per-individual
	// slots), so results are identical to a serial run.
	Parallel bool
	// Pool bounds parallel fitness evaluation; nil means engine.Default().
	Pool *engine.Pool
	// Patience stops early after this many generations without improvement
	// of the best fitness. Zero disables early stopping.
	Patience int
}

func (c *Config) fillDefaults() {
	if c.Pop == 0 {
		c.Pop = 50
	}
	if c.Generations == 0 {
		c.Generations = 100
	}
	if c.Lo == 0 && c.Hi == 0 {
		c.Hi = 1
	}
	if c.TournamentK == 0 {
		c.TournamentK = 3
	}
	if c.CrossoverRate == 0 {
		c.CrossoverRate = 0.9
	}
	if c.BlendAlpha == 0 {
		c.BlendAlpha = 0.5
	}
	if c.MutationRate == 0 && c.Genes > 0 {
		c.MutationRate = 1 / float64(c.Genes)
	}
	if c.MutationSigma == 0 {
		c.MutationSigma = 0.1
	}
	if c.Elite == 0 {
		c.Elite = 2
	}
}

func (c Config) validate() error {
	if c.Genes < 1 {
		return fmt.Errorf("ga: genome length %d must be >= 1", c.Genes)
	}
	if c.Pop < 2 {
		return fmt.Errorf("ga: population %d must be >= 2", c.Pop)
	}
	if c.Generations < 1 {
		return fmt.Errorf("ga: generations %d must be >= 1", c.Generations)
	}
	if math.IsInf(c.Hi-c.Lo, 0) || math.IsNaN(c.Hi-c.Lo) {
		return fmt.Errorf("ga: gene range [%v, %v] must be finite", c.Lo, c.Hi)
	}
	if c.Hi <= c.Lo {
		return fmt.Errorf("ga: gene range [%v, %v] is empty", c.Lo, c.Hi)
	}
	if c.Elite < 0 || c.Elite >= c.Pop {
		return fmt.Errorf("ga: elite %d out of [0, %d)", c.Elite, c.Pop)
	}
	if c.Patience < 0 {
		return fmt.Errorf("ga: patience %d must be >= 0", c.Patience)
	}
	if c.TournamentK < 1 || c.TournamentK > c.Pop {
		return fmt.Errorf("ga: tournament size %d out of [1, %d]", c.TournamentK, c.Pop)
	}
	if !(c.CrossoverRate >= 0 && c.CrossoverRate <= 1) {
		return fmt.Errorf("ga: crossover rate %v out of [0, 1]", c.CrossoverRate)
	}
	if !(c.MutationRate >= 0 && c.MutationRate <= 1) {
		return fmt.Errorf("ga: mutation rate %v out of [0, 1]", c.MutationRate)
	}
	return nil
}

// Result reports the outcome of an evolutionary run.
type Result struct {
	// Best is the best genome found.
	Best []float64
	// BestFitness is its fitness value.
	BestFitness float64
	// Generations is the number of generations actually run.
	Generations int
	// History records the best fitness after every generation.
	History []float64
}

type individual struct {
	genome  []float64
	fitness float64
	// known reports that fitness already holds fit(genome), so evaluate
	// skips the individual.
	known bool
}

// newPopulation allocates cfg.Pop individuals whose genomes slice one
// flat backing array: the whole evolutionary run works over two such
// populations (current and next), so generations stop allocating
// entirely — offspring are written into the next population's buffers
// in place of the per-candidate copies the naive loop makes.
func newPopulation(cfg Config) []individual {
	flat := make([]float64, cfg.Pop*cfg.Genes)
	pop := make([]individual, cfg.Pop)
	for i := range pop {
		pop[i].genome = flat[i*cfg.Genes : (i+1)*cfg.Genes]
	}
	return pop
}

// Run evolves a population against fit and returns the best genome found.
// fit must return a finite value; NaN is treated as +Inf (worst).
//
// All randomness flows from cfg.Seed through a single generator in a
// fixed draw order (selection, crossover decision, blend, mutation —
// identical to the original per-candidate-allocation loop), so results
// are bit-for-bit reproducible and independent of the buffer reuse.
// Elites and children that come out bit for bit equal to a parent keep
// that individual's fitness instead of calling fit again; the draws do
// not depend on it, so results are those of evaluating every child.
func Run(fit Fitness, cfg Config) (*Result, error) {
	if fit == nil {
		return nil, errors.New("ga: nil fitness function")
	}
	cfg.fillDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))

	pop := newPopulation(cfg)
	for i := range pop {
		g := pop[i].genome
		for j := range g {
			g[j] = cfg.Lo + rng.Float64()*(cfg.Hi-cfg.Lo)
		}
	}
	evaluate(pop, fit, cfg)
	sortByFitness(pop)

	res := &Result{History: make([]float64, 0, cfg.Generations)}
	next := newPopulation(cfg)
	// spare receives the second offspring of the final pair when the
	// population size is odd: the original loop still draws and mutates
	// that child before discarding it, so the buffer keeps the RNG
	// stream aligned.
	spare := make([]float64, cfg.Genes)
	best := individual{genome: make([]float64, cfg.Genes), fitness: pop[0].fitness}
	copy(best.genome, pop[0].genome)
	stale := 0
	for gen := 1; gen <= cfg.Generations; gen++ {
		n := 0
		for ; n < cfg.Elite; n++ {
			copy(next[n].genome, pop[n].genome)
			next[n].fitness, next[n].known = pop[n].fitness, true
		}
		for n < cfg.Pop {
			p1 := tournament(pop, cfg.TournamentK, rng)
			p2 := tournament(pop, cfg.TournamentK, rng)
			c1 := next[n].genome
			c2 := spare
			if n+1 < cfg.Pop {
				c2 = next[n+1].genome
			}
			copy(c1, p1.genome)
			copy(c2, p2.genome)
			if rng.Float64() < cfg.CrossoverRate {
				blend(c1, c2, cfg, rng)
			}
			mutate(c1, cfg, rng)
			mutate(c2, cfg, rng)
			next[n].fitness, next[n].known = inherit(c1, p1, p2)
			if n+1 < cfg.Pop {
				next[n+1].fitness, next[n+1].known = inherit(c2, p1, p2)
			}
			n += 2
		}
		pop, next = next, pop
		evaluate(pop, fit, cfg)
		sortByFitness(pop)
		if pop[0].fitness < best.fitness {
			copy(best.genome, pop[0].genome)
			best.fitness = pop[0].fitness
			stale = 0
		} else {
			stale++
		}
		res.History = append(res.History, best.fitness)
		res.Generations = gen
		if cfg.Patience > 0 && stale >= cfg.Patience {
			break
		}
	}
	res.Best = best.genome
	res.BestFitness = best.fitness
	return res, nil
}

// inherit returns the fitness of the parent that child equals bit for
// bit, and whether there is one. Fitness is a pure function of the
// genome, so the parent's value is the one evaluate would compute.
func inherit(child []float64, p1, p2 *individual) (float64, bool) {
	if sameBits(child, p1.genome) {
		return p1.fitness, true
	}
	if sameBits(child, p2.genome) {
		return p2.fitness, true
	}
	return 0, false
}

func sameBits(a, b []float64) bool {
	b = b[:len(a)]
	for j, v := range a {
		if math.Float64bits(v) != math.Float64bits(b[j]) {
			return false
		}
	}
	return true
}

// evaluate computes the fitness of every individual that does not
// already know it.
func evaluate(pop []individual, fit Fitness, cfg Config) {
	if !cfg.Parallel {
		for i := range pop {
			pop[i].evaluate(fit)
		}
		return
	}
	// The engine pool bounds the fan-out to the process-wide worker
	// budget instead of spawning one goroutine per individual.
	_ = cfg.Pool.Map(len(pop), func(i int) error {
		pop[i].evaluate(fit)
		return nil
	})
}

func (ind *individual) evaluate(fit Fitness) {
	if ind.known {
		return
	}
	f := fit(ind.genome)
	if math.IsNaN(f) {
		f = math.Inf(1)
	}
	ind.fitness, ind.known = f, true
}

// sortByFitness orders the population best-first. Stable sorts are
// permutation-identical regardless of algorithm, so the generic
// allocation-free sort produces exactly the ordering the reflection-based
// sort.SliceStable did.
func sortByFitness(pop []individual) {
	slices.SortStableFunc(pop, func(a, b individual) int {
		if a.fitness < b.fitness {
			return -1
		}
		if a.fitness > b.fitness {
			return 1
		}
		return 0
	})
}

func tournament(pop []individual, k int, rng *rand.Rand) *individual {
	best := &pop[rng.Intn(len(pop))]
	for i := 1; i < k; i++ {
		c := &pop[rng.Intn(len(pop))]
		if c.fitness < best.fitness {
			best = c
		}
	}
	return best
}

// blend applies BLX-α crossover in place: each child gene is drawn uniformly
// from the parental interval expanded by α on each side, clamped to range.
func blend(a, b []float64, cfg Config, rng *rand.Rand) {
	for j := range a {
		lo, hi := a[j], b[j]
		if lo > hi {
			lo, hi = hi, lo
		}
		span := hi - lo
		lo -= cfg.BlendAlpha * span
		hi += cfg.BlendAlpha * span
		a[j] = clamp(lo+rng.Float64()*(hi-lo), cfg.Lo, cfg.Hi)
		b[j] = clamp(lo+rng.Float64()*(hi-lo), cfg.Lo, cfg.Hi)
	}
}

func mutate(g []float64, cfg Config, rng *rand.Rand) {
	sigma := cfg.MutationSigma * (cfg.Hi - cfg.Lo)
	for j := range g {
		if rng.Float64() < cfg.MutationRate {
			g[j] = clamp(g[j]+rng.NormFloat64()*sigma, cfg.Lo, cfg.Hi)
		}
	}
}

func clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}
