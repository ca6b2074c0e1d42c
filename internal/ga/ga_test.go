package ga

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/engine"
)

func sphere(g []float64) float64 {
	s := 0.0
	for _, x := range g {
		s += (x - 0.5) * (x - 0.5)
	}
	return s
}

func TestRunValidation(t *testing.T) {
	if _, err := Run(nil, Config{Genes: 2}); err == nil {
		t.Fatal("want error for nil fitness")
	}
	if _, err := Run(sphere, Config{Genes: 0}); err == nil {
		t.Fatal("want error for zero genes")
	}
	if _, err := Run(sphere, Config{Genes: 2, Pop: 1}); err == nil {
		t.Fatal("want error for tiny population")
	}
	if _, err := Run(sphere, Config{Genes: 2, Lo: 1, Hi: 1}); err == nil {
		t.Fatal("want error for empty range")
	}
	if _, err := Run(sphere, Config{Genes: 2, Pop: 4, Elite: 4}); err == nil {
		t.Fatal("want error for elite >= pop")
	}
	if _, err := Run(sphere, Config{Genes: 2, Pop: 4, TournamentK: 9}); err == nil {
		t.Fatal("want error for tournament > pop")
	}
	if _, err := Run(sphere, Config{Genes: 2, CrossoverRate: 1.5}); err == nil {
		t.Fatal("want error for crossover rate")
	}
	if _, err := Run(sphere, Config{Genes: 2, MutationRate: -0.5}); err == nil {
		t.Fatal("want error for mutation rate")
	}
}

func TestOptimisesSphere(t *testing.T) {
	res, err := Run(sphere, Config{Genes: 4, Pop: 60, Generations: 120, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.BestFitness > 0.01 {
		t.Fatalf("best fitness = %v, expected < 0.01", res.BestFitness)
	}
	for _, g := range res.Best {
		if math.Abs(g-0.5) > 0.2 {
			t.Fatalf("gene %v far from optimum 0.5", g)
		}
	}
}

func TestOptimisesRastriginLike(t *testing.T) {
	// Multi-modal objective; the GA should still find a decent basin.
	fit := func(g []float64) float64 {
		s := 0.0
		for _, x := range g {
			d := x - 0.5
			s += d*d + 0.05*(1-math.Cos(20*math.Pi*d))
		}
		return s
	}
	res, err := Run(fit, Config{Genes: 3, Pop: 80, Generations: 150, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.BestFitness > 0.06 {
		t.Fatalf("best fitness = %v, expected < 0.06", res.BestFitness)
	}
}

func TestDeterminism(t *testing.T) {
	cfg := Config{Genes: 3, Pop: 30, Generations: 40, Seed: 9}
	r1, err := Run(sphere, cfg)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Run(sphere, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r1.BestFitness != r2.BestFitness {
		t.Fatalf("same seed, different results: %v vs %v", r1.BestFitness, r2.BestFitness)
	}
	for i := range r1.Best {
		if r1.Best[i] != r2.Best[i] {
			t.Fatal("same seed, different genomes")
		}
	}
}

func TestParallelMatchesQuality(t *testing.T) {
	// Parallel evaluation must still optimise (exact equality is not
	// required — scheduling does not affect RNG use here, but keep the
	// check loose on purpose).
	res, err := Run(sphere, Config{Genes: 4, Pop: 60, Generations: 100, Seed: 3, Parallel: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.BestFitness > 0.02 {
		t.Fatalf("parallel best fitness = %v", res.BestFitness)
	}
}

func TestParallelMatchesSerialExactly(t *testing.T) {
	// Fitness values land in per-individual slots and all evolution
	// randomness is drawn serially, so the engine-pooled fan-out must
	// reproduce the serial run bit for bit, whatever the pool size.
	base := Config{Genes: 5, Pop: 40, Generations: 30, Seed: 11}
	serial, err := Run(sphere, base)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 8} {
		cfg := base
		cfg.Parallel = true
		cfg.Pool = engine.New(workers)
		par, err := Run(sphere, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if par.BestFitness != serial.BestFitness || par.Generations != serial.Generations {
			t.Fatalf("workers=%d: fitness %v/%d generations, serial %v/%d",
				workers, par.BestFitness, par.Generations, serial.BestFitness, serial.Generations)
		}
		for i := range serial.Best {
			if par.Best[i] != serial.Best[i] {
				t.Fatalf("workers=%d: gene %d differs", workers, i)
			}
		}
	}
}

func TestEarlyStopping(t *testing.T) {
	flat := func(g []float64) float64 { return 1 } // nothing to improve
	res, err := Run(flat, Config{Genes: 2, Pop: 10, Generations: 500, Seed: 4, Patience: 5})
	if err != nil {
		t.Fatal(err)
	}
	if res.Generations >= 500 {
		t.Fatalf("ran %d generations, expected early stop", res.Generations)
	}
	if res.BestFitness != 1 {
		t.Fatalf("best fitness = %v, want 1", res.BestFitness)
	}
}

func TestNaNFitnessTreatedAsWorst(t *testing.T) {
	fit := func(g []float64) float64 {
		if g[0] < 0.5 {
			return math.NaN()
		}
		return g[0]
	}
	res, err := Run(fit, Config{Genes: 1, Pop: 20, Generations: 30, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(res.BestFitness) || math.IsInf(res.BestFitness, 0) {
		t.Fatalf("best fitness = %v", res.BestFitness)
	}
	if res.Best[0] < 0.5 {
		t.Fatalf("best genome %v is in the NaN region", res.Best)
	}
}

func TestHistoryMonotone(t *testing.T) {
	res, err := Run(sphere, Config{Genes: 3, Pop: 20, Generations: 50, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.History) != res.Generations {
		t.Fatalf("history length %d != generations %d", len(res.History), res.Generations)
	}
	for i := 1; i < len(res.History); i++ {
		if res.History[i] > res.History[i-1] {
			t.Fatalf("best-so-far fitness increased at generation %d", i)
		}
	}
}

// Property: all genes of the best genome stay within [Lo, Hi].
func TestGenesWithinBoundsProperty(t *testing.T) {
	f := func(seed int64) bool {
		res, err := Run(sphere, Config{Genes: 3, Pop: 12, Generations: 10, Lo: -2, Hi: 3, Seed: seed})
		if err != nil {
			return false
		}
		for _, g := range res.Best {
			if g < -2 || g > 3 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// Property: elitism guarantees the best fitness never regresses between
// generations within a run (checked via History).
func TestElitismProperty(t *testing.T) {
	f := func(seed int64) bool {
		res, err := Run(sphere, Config{Genes: 2, Pop: 10, Generations: 15, Seed: seed, Elite: 2})
		if err != nil {
			return false
		}
		for i := 1; i < len(res.History); i++ {
			if res.History[i] > res.History[i-1]+1e-15 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestRunAllocsIndependentOfGenerations pins the double-buffered
// evolution loop: generations reuse the two population buffers, so a
// longer run must not allocate more than a short one (beyond the
// History slice, preallocated to the generation budget).
func TestRunAllocsIndependentOfGenerations(t *testing.T) {
	fit := func(g []float64) float64 {
		s := 0.0
		for _, v := range g {
			s += v * v
		}
		return s
	}
	measure := func(gens int) float64 {
		cfg := Config{Genes: 6, Pop: 12, Generations: gens, Seed: 9}
		if _, err := Run(fit, cfg); err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(20, func() {
			if _, err := Run(fit, cfg); err != nil {
				t.Fatal(err)
			}
		})
	}
	short, long := measure(3), measure(30)
	// The longer run preallocates a larger History and may round its
	// backing array up differently; allow that single slice's worth of
	// slack but nothing per-generation.
	if long > short+1 {
		t.Fatalf("Run allocations grew with generations: %.1f at 3, %.1f at 30", short, long)
	}
}

// TestRunRejectsBadConfig covers configurations that used to panic
// (negative Generations: makeslice), return NaN or Inf genomes
// (non-finite bounds) or run with meaningless settings (negative Elite
// or Patience, NaN rates).
func TestRunRejectsBadConfig(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"negative generations", Config{Genes: 2, Generations: -1}},
		{"NaN lo", Config{Genes: 2, Lo: nan, Hi: 1}},
		{"NaN hi", Config{Genes: 2, Lo: 0, Hi: nan}},
		{"+Inf hi", Config{Genes: 2, Lo: 0, Hi: inf}},
		{"-Inf lo", Config{Genes: 2, Lo: -inf, Hi: 1}},
		{"range overflows", Config{Genes: 2, Lo: -math.MaxFloat64, Hi: math.MaxFloat64}},
		{"negative elite", Config{Genes: 2, Elite: -1}},
		{"negative patience", Config{Genes: 2, Patience: -3}},
		{"NaN crossover rate", Config{Genes: 2, CrossoverRate: nan}},
		{"NaN mutation rate", Config{Genes: 2, MutationRate: nan}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			res, err := Run(sphere, tc.cfg)
			if err == nil {
				t.Fatalf("accepted %+v, best %v", tc.cfg, res.Best)
			}
		})
	}
}

// TestRunReusesKnownFitness counts fitness calls: elites and children
// that come out bit for bit equal to a parent keep their known fitness,
// so no genome is ever evaluated twice, serial or parallel.
func TestRunReusesKnownFitness(t *testing.T) {
	for _, parallel := range []bool{false, true} {
		var mu sync.Mutex
		seen := map[string]int{}
		calls := 0
		fit := func(g []float64) float64 {
			key := make([]byte, 0, 8*len(g))
			for _, v := range g {
				key = binary.LittleEndian.AppendUint64(key, math.Float64bits(v))
			}
			mu.Lock()
			seen[string(key)]++
			calls++
			mu.Unlock()
			return sphere(g)
		}
		cfg := Config{Genes: 4, Pop: 21, Generations: 30, Seed: 3, Parallel: parallel, Pool: engine.New(4)}
		res, err := Run(fit, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for key, n := range seen {
			if n > 1 {
				t.Fatalf("parallel=%v: genome %x evaluated %d times", parallel, key, n)
			}
		}
		// Every generation keeps its two elites without a call.
		if most := cfg.Pop + res.Generations*(cfg.Pop-2); calls > most {
			t.Fatalf("parallel=%v: %d fitness calls, want <= %d", parallel, calls, most)
		}
	}
}

func goldenFit(g []float64) float64 {
	s := 0.0
	for j, x := range g {
		d := x - 0.3*float64(j%3)
		s += d*d + 0.05*(1-math.Cos(20*math.Pi*d))
	}
	return s
}

// runDigest hashes every bit of a result: Best, BestFitness, History
// and Generations.
func runDigest(r *Result) string {
	h := sha256.New()
	put := func(v uint64) { _ = binary.Write(h, binary.LittleEndian, v) }
	for _, v := range r.Best {
		put(math.Float64bits(v))
	}
	put(math.Float64bits(r.BestFitness))
	for _, v := range r.History {
		put(math.Float64bits(v))
	}
	put(uint64(r.Generations))
	return fmt.Sprintf("%x", h.Sum(nil)[:12])
}

// TestRunMatchesParent pins Run to results recorded before fitness
// reuse: skipping the evaluation of elites and unchanged children must
// not change one bit, on the serial or the parallel path. The runs
// early-stop at different generations and the odd population size
// exercises the discarded spare child.
func TestRunMatchesParent(t *testing.T) {
	for _, g := range []struct {
		parallel    bool
		seed        int64
		generations int
		bestBits    uint64
		digest      string
	}{
		{false, 1, 25, 0x3fa79df985708655, "5185997238fec3288439a8ac"},
		{false, 2, 34, 0x3fb1c0b215e89e06, "8add3c7092c7a76c275fd8d9"},
		{false, 3, 33, 0x3fa6f970d71f01b3, "95e2fd9bef32131c8cb842c5"},
		{false, 4, 37, 0x3fa4bd268b9b1e9b, "0b74f21c54b8126a9efc4b85"},
		{false, 5, 20, 0x3fac0ca0b3cc7e63, "7d6312c66c385a1fa8d4a5da"},
		{true, 1, 25, 0x3fa79df985708655, "5185997238fec3288439a8ac"},
		{true, 2, 34, 0x3fb1c0b215e89e06, "8add3c7092c7a76c275fd8d9"},
		{true, 3, 33, 0x3fa6f970d71f01b3, "95e2fd9bef32131c8cb842c5"},
		{true, 4, 37, 0x3fa4bd268b9b1e9b, "0b74f21c54b8126a9efc4b85"},
		{true, 5, 20, 0x3fac0ca0b3cc7e63, "7d6312c66c385a1fa8d4a5da"},
	} {
		cfg := Config{Genes: 6, Pop: 21, Generations: 60, Lo: -1, Hi: 2, Patience: 6, Seed: g.seed, Parallel: g.parallel}
		if g.parallel {
			cfg.Pool = engine.New(4)
		}
		r, err := Run(goldenFit, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if r.Generations != g.generations || math.Float64bits(r.BestFitness) != g.bestBits || runDigest(r) != g.digest {
			t.Fatalf("parallel=%v seed=%d: %d generations, best %#x, digest %s; want %d, %#x, %s",
				g.parallel, g.seed, r.Generations, math.Float64bits(r.BestFitness), runDigest(r),
				g.generations, g.bestBits, g.digest)
		}
	}
}
