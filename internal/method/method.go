// Package method is the single registry of the reproduction's prediction
// methods. Every layer that needs to name, resolve or construct a method —
// the serve package behind dtrankd, the experiments pipeline behind
// dtrank's tables and figures, and cmd/dtrank's -method flag — builds on
// the descriptors registered here, so a method's canonical name, aliases,
// seed-offset convention, serialization kind and capabilities exist in
// exactly one place and the layers cannot drift. Adding a method to the
// reproduction is one Descriptor in this file.
package method

import (
	"fmt"
	"strings"

	"repro/internal/engine"
	"repro/internal/ga"
	"repro/internal/gaknn"
	"repro/internal/transpose"
)

// Canonical method names. Production code refers to methods through these
// constants (or through the registry), never through string literals, so
// the registry stays the single source of truth.
const (
	NNT   = "NN^T"
	MLPT  = "MLP^T"
	SPLT  = "SPL^T"
	GAKNN = "GA-kNN"
	KNNM  = "kNN^M"
)

// Options tunes predictor construction beyond the seed. The zero value is
// the serving/CLI configuration (full budgets, default worker pool).
type Options struct {
	// Fast trades accuracy for speed (small GA budget, short MLP
	// training) — the experiments pipeline's smoke-run setting.
	Fast bool
	// Pool bounds GA-kNN's inner fan-out (GA fitness evaluation); nil
	// means the process-wide default pool. No other method fans out.
	Pool *engine.Pool
}

// Descriptor describes one registered prediction method.
type Descriptor struct {
	// Name is the canonical method name ("NN^T", ...).
	Name string
	// Aliases are the accepted alternate spellings; resolution is
	// case-insensitive and the canonical name always resolves too.
	Aliases []string
	// SeedOffset is the method's offset from the base seed — the one
	// place the MLPᵀ seed+1 / GA-kNN seed+2 convention is written down.
	// Deterministic methods have offset 0 and ignore the seed entirely.
	SeedOffset int64
	// CodecKind is the model serialization kind registered with
	// transpose.RegisterModelKind for this method's trained artifact.
	CodecKind string
	// FreshScores reports whether the fitted model answers queries for an
	// application supplied as raw measurements on the predictive machines
	// (the PredictTargetsWith serving path). NNᵀ and SPLᵀ fit one model
	// per (family, method) pair that extrapolates any application; MLPᵀ
	// and GA-kNN bake the application into the fit itself.
	FreshScores bool
	// NeedsChars reports whether fitting requires microarchitecture-
	// independent workload characteristics (GA-kNN's similarity space).
	NeedsChars bool
	// Compared reports whether the method appears in the paper's
	// comparison tables (SPLᵀ is this reproduction's extension and does
	// not).
	Compared bool
	// Stochastic reports whether construction consumes the seed.
	Stochastic bool

	// make constructs the predictor from the already-offset seed.
	make func(seed int64, o Options) transpose.Predictor
}

// New constructs the method's predictor from the base seed with default
// Options, applying the method's seed offset — the construction the CLI
// and the server share.
func (d Descriptor) New(base int64) transpose.Predictor {
	return d.NewWith(base, Options{})
}

// NewWith is New with construction options (the experiments pipeline's
// entry point: fast budgets, shared worker pool).
func (d Descriptor) NewWith(base int64, o Options) transpose.Predictor {
	return d.make(base+d.SeedOffset, o)
}

// registry lists the methods in presentation order: the paper's column
// order (NNᵀ, MLPᵀ, GA-kNN) with the SPLᵀ extension after the
// transposition pair it belongs to and the kNNᴹ machine-space baseline
// last. Only Compared methods appear in the paper's tables; the
// extensions are still served, serialized and comparable everywhere
// else.
var registry = []Descriptor{
	{
		Name:        NNT,
		Aliases:     []string{"nnt"},
		CodecKind:   "nnt",
		FreshScores: true,
		Compared:    true,
		make: func(int64, Options) transpose.Predictor {
			return transpose.NNT{}
		},
	},
	{
		Name:       MLPT,
		Aliases:    []string{"mlpt"},
		SeedOffset: 1,
		CodecKind:  "mlpt",
		Compared:   true,
		Stochastic: true,
		make: func(seed int64, o Options) transpose.Predictor {
			p := transpose.NewMLPT(seed)
			if o.Fast {
				p.Config.Epochs = 60
			}
			return p
		},
	},
	{
		Name:        SPLT,
		Aliases:     []string{"splt"},
		CodecKind:   "splt",
		FreshScores: true,
		make: func(int64, Options) transpose.Predictor {
			return transpose.NewSPLT()
		},
	},
	{
		Name:       GAKNN,
		Aliases:    []string{"gaknn"},
		SeedOffset: 2,
		CodecKind:  "gaknn",
		NeedsChars: true,
		Compared:   true,
		Stochastic: true,
		make: func(seed int64, o Options) transpose.Predictor {
			p := gaknn.New(seed)
			if o.Fast {
				p.GA = ga.Config{Pop: 8, Generations: 5, Patience: 3, Seed: seed, Parallel: true}
			}
			// Share the caller's token budget with the GA's inner fan-out
			// (nil means the process-wide default).
			p.GA.Pool = o.Pool
			return p
		},
	},
	{
		Name:        KNNM,
		Aliases:     []string{"knnm", "knn"},
		CodecKind:   "knnm",
		FreshScores: true,
		make: func(int64, Options) transpose.Predictor {
			return transpose.NewKNNM()
		},
	},
}

// byAlias maps lower-cased spellings (canonical and aliases) to registry
// indices.
var byAlias = func() map[string]int {
	m := make(map[string]int)
	for i, d := range registry {
		for _, name := range append([]string{d.Name}, d.Aliases...) {
			key := strings.ToLower(name)
			if _, dup := m[key]; dup {
				panic(fmt.Sprintf("method: spelling %q registered twice", key))
			}
			m[key] = i
		}
	}
	return m
}()

// All returns the registered descriptors in presentation order.
func All() []Descriptor {
	out := make([]Descriptor, len(registry))
	copy(out, registry)
	return out
}

// Names returns the canonical method names in presentation order.
func Names() []string {
	out := make([]string, len(registry))
	for i, d := range registry {
		out[i] = d.Name
	}
	return out
}

// ComparedNames returns the canonical names of the methods in the paper's
// comparison tables, in column order.
func ComparedNames() []string {
	var out []string
	for _, d := range registry {
		if d.Compared {
			out = append(out, d.Name)
		}
	}
	return out
}

// Get resolves a method name or alias to its descriptor. Unknown names
// return an error listing every valid method, so CLI and HTTP callers get
// an actionable message.
func Get(name string) (Descriptor, error) {
	if i, ok := byAlias[strings.ToLower(name)]; ok {
		return registry[i], nil
	}
	return Descriptor{}, fmt.Errorf("unknown method %q (valid methods: %s)", name, strings.Join(Names(), ", "))
}

// Canonical resolves a method name or alias ("nnt", "NN^T", ...) to its
// canonical form.
func Canonical(name string) (string, error) {
	d, err := Get(name)
	if err != nil {
		return "", err
	}
	return d.Name, nil
}

// New resolves name and constructs its predictor from the base seed (the
// method's seed offset is applied internally). It returns the canonical
// name alongside.
func New(name string, seed int64) (transpose.Predictor, string, error) {
	d, err := Get(name)
	if err != nil {
		return nil, "", err
	}
	return d.New(seed), d.Name, nil
}

// Info is the externally visible description of one method — the rows of
// `dtrank methods` and of the server's GET /v1/methods, generated straight
// from the registry.
type Info struct {
	Name        string   `json:"name"`
	Aliases     []string `json:"aliases"`
	SeedOffset  int64    `json:"seed_offset"`
	CodecKind   string   `json:"codec_kind"`
	FreshScores bool     `json:"fresh_scores"`
	NeedsChars  bool     `json:"needs_characteristics"`
	Compared    bool     `json:"compared"`
	Stochastic  bool     `json:"stochastic"`
}

// List returns the registry as Info rows, in presentation order.
func List() []Info {
	out := make([]Info, len(registry))
	for i, d := range registry {
		out[i] = Info{
			Name:        d.Name,
			Aliases:     append([]string(nil), d.Aliases...),
			SeedOffset:  d.SeedOffset,
			CodecKind:   d.CodecKind,
			FreshScores: d.FreshScores,
			NeedsChars:  d.NeedsChars,
			Compared:    d.Compared,
			Stochastic:  d.Stochastic,
		}
	}
	return out
}
