// Package synth assembles the synthetic SPEC CPU2006 performance database:
// it runs the analytic performance model over the 117-machine Table 1
// roster and the 29 benchmark profiles and adds log-normal measurement
// noise, yielding the benchmarks × machines matrix the paper downloads from
// the SPEC website. It also produces the noisy microarchitecture-
// independent characterisation the GA-kNN baseline consumes.
//
// Everything is deterministic for a fixed seed.
package synth

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/dataset"
	"repro/internal/machine"
	"repro/internal/mica"
	"repro/internal/perfmodel"
)

// Options controls dataset synthesis.
type Options struct {
	// Seed drives the noise generator.
	Seed int64
	// ScoreNoise is the standard deviation of the multiplicative log-normal
	// noise on every score. Published SPEC submissions for nominally equal
	// systems differ by a few percent (memory population, firmware,
	// compiler flags); 0.03 reproduces that spread.
	ScoreNoise float64
	// CharNoise is the relative noise on the measured workload
	// characteristics handed to GA-kNN (profiling error).
	CharNoise float64
	// HonestCharacteristics disables the characterisation-failure
	// simulation for the known outlier benchmarks (see
	// measurementProfile). The paper's §6.2 shows GA-kNN failing on
	// leslie3d, cactusADM and libquantum precisely because their measured
	// microarchitecture-independent characteristics do not resemble their
	// performance behaviour; by default we reproduce that. Setting this
	// flag hands GA-kNN the ground-truth profiles instead — an ablation of
	// the outlier mechanism.
	HonestCharacteristics bool
}

// measurementProfile returns the workload whose characteristic vector
// MICA-style profiling *measures* for a benchmark. For most benchmarks that
// is the ground truth; for the paper's known characterisation-failure
// outliers, the measured profile is distorted the way saturating
// reuse-distance bins and strided-access misclassification distort real
// MICA data: the huge streaming working sets are under-reported and the
// codes look like ordinary cache-resident programs. The performance model
// never sees these distortions — only GA-kNN does, which is exactly the
// asymmetry the paper exploits.
func measurementProfile(w mica.Workload) mica.Workload {
	clone := func(twin string) mica.Workload {
		for _, t := range mica.SPEC2006() {
			if t.Name == twin {
				t.Name = w.Name
				t.Suite = w.Suite
				return t
			}
		}
		panic("synth: unknown distortion twin " + twin)
	}
	switch w.Name {
	case "libquantum":
		// Measured as a tight, predictable integer array loop — at the
		// instruction level indistinguishable from hmmer; the
		// characterisation misses the streaming off-core traffic entirely.
		return clone("hmmer")
	case "leslie3d":
		// Measured as a regular, cache-resident FP kernel: the saturating
		// reuse-distance bins hide the 128 MB streaming working set, so
		// the profile collapses onto namd's.
		return clone("namd")
	case "cactusADM":
		// Measured as a mid-footprint FP code of the dealII class.
		return clone("dealII")
	}
	return w
}

// DefaultOptions returns the synthesis configuration used by all
// experiments.
func DefaultOptions(seed int64) Options {
	return Options{Seed: seed, ScoreNoise: 0.02, CharNoise: 0.02}
}

// Data bundles everything one synthetic "download" provides.
type Data struct {
	// Matrix is the benchmarks × machines score table (SPEC speed ratios).
	Matrix *dataset.Matrix
	// Workloads is the ground-truth profile table (also the lookup for
	// benchmark order).
	Workloads *mica.Table
	// Characteristics holds the noisy measured characteristic vector per
	// benchmark, keyed by benchmark name — the GA-kNN input.
	Characteristics map[string][]float64
	// Configs maps machine ID to its full configuration (useful for
	// examples and the design-space tool).
	Configs map[string]machine.Config
}

// Generate builds the full synthetic database.
func Generate(opts Options) (*Data, error) {
	if opts.ScoreNoise < 0 || opts.CharNoise < 0 {
		return nil, fmt.Errorf("synth: negative noise level (%v, %v)", opts.ScoreNoise, opts.CharNoise)
	}
	roster, err := machine.Roster()
	if err != nil {
		return nil, err
	}
	table, err := mica.SPEC2006Table()
	if err != nil {
		return nil, err
	}
	return generate(roster, table, opts)
}

// GenerateFor builds a database over a custom roster and workload table;
// the experiments use Generate, but examples (e.g. design-space
// exploration) synthesise scores for hypothetical machines.
func GenerateFor(roster []machine.Config, table *mica.Table, opts Options) (*Data, error) {
	if opts.ScoreNoise < 0 || opts.CharNoise < 0 {
		return nil, fmt.Errorf("synth: negative noise level (%v, %v)", opts.ScoreNoise, opts.CharNoise)
	}
	return generate(roster, table, opts)
}

func generate(roster []machine.Config, table *mica.Table, opts Options) (*Data, error) {
	rng := rand.New(rand.NewSource(opts.Seed))
	machines := make([]dataset.Machine, len(roster))
	configs := make(map[string]machine.Config, len(roster))
	for i, c := range roster {
		machines[i] = dataset.Machine{
			ID: c.ID, Vendor: c.Vendor, Family: c.Family,
			Nickname: c.Nickname, ISA: c.ISA, Year: c.Year,
		}
		configs[c.ID] = c
	}
	names := table.Names()
	mat, err := dataset.New(names, machines)
	if err != nil {
		return nil, err
	}
	ref := machine.Reference()
	for b, name := range names {
		w, err := table.Get(name)
		if err != nil {
			return nil, err
		}
		// perfmodel.SPECRatio per cell, with the reference machine's rate
		// computed once per workload: the same calls and the same
		// division, so the scores are bit-identical.
		refRate, err := perfmodel.InstructionRate(ref, w)
		if err != nil {
			return nil, fmt.Errorf("synth: %s on the reference machine: %w", name, err)
		}
		for m, c := range roster {
			mRate, err := perfmodel.InstructionRate(c, w)
			if err != nil {
				return nil, fmt.Errorf("synth: %s on %s: %w", name, c.ID, err)
			}
			score := mRate / refRate
			if opts.ScoreNoise > 0 {
				score *= math.Exp(rng.NormFloat64() * opts.ScoreNoise)
			}
			mat.Set(b, m, score)
		}
	}
	if err := mat.Validate(); err != nil {
		return nil, fmt.Errorf("synth: generated matrix invalid: %w", err)
	}

	chars := make(map[string][]float64, len(names))
	for _, name := range names {
		w, err := table.Get(name)
		if err != nil {
			return nil, err
		}
		if !opts.HonestCharacteristics {
			w = measurementProfile(w)
		}
		v := w.Vector()
		for j := range v {
			if opts.CharNoise > 0 {
				v[j] *= 1 + rng.NormFloat64()*opts.CharNoise
			}
		}
		chars[name] = v
	}
	return &Data{Matrix: mat, Workloads: table, Characteristics: chars, Configs: configs}, nil
}
