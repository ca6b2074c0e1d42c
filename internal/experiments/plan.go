package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"

	"repro/internal/engine"
	"repro/internal/resultstore"
)

// This file is the distribution layer of the spec pipeline: PlanSpecs
// enumerates every unit a set of specs reads, and Executor computes a
// list of those units into the run's result store. A work-stealing run
// (`dtrankd -coordinate` plus `dtrank run -worker` processes) queues the
// plan's keys at the coordinator; each worker plans the same specs,
// resolves its leased keys back to units (UnitsByKey) and executes them
// into one shared store (a directory or a dtrankd /v1/store/ URL). Any
// process then renders the final report from the merged store via
// RunSpecs, byte-identical to a single-process run.

// Unit is one planned experiment unit: a table cell, figure point or
// ablation variant, addressed by its result-store key. Units are created
// by PlanSpecs from the same per-spec enumerators the renderers consume,
// so a plan can neither miss nor invent units.
type Unit struct {
	// Key addresses the unit's result in the store.
	Key resultstore.Key

	// exec computes the unit through a store with the unit's concrete
	// result type (serving it when already present).
	exec func(st resultstore.Store) error
}

// Plan is the deterministic unit list of a spec set, plus the
// materialised run configuration (worker pool, store, dataset) its units
// were enumerated against.
type Plan struct {
	// Units lists every unit of the planned specs exactly once, in plan
	// order: specs in the requested order, each spec's canonical unit
	// order, first occurrence wins for units shared between specs
	// (Table 2 and Figures 6-7 share the family-CV cells).
	Units []Unit

	cfg Config
}

// PlanSpecs enumerates the full unit list of the named specs without
// computing anything. The enumeration is deterministic in cfg — every
// process planning the same (seed, budget, draws, maxK) spec set
// produces the identical list — which is what lets independent worker
// processes resolve a coordinator's unit keys (Fingerprint, UnitsByKey).
//
// Planning synthesises nothing: unit keys name the synthesis recipe, and
// enumeration reads only the dataset's layout (benchmark order, families,
// years). The run's dataset is memoised on the returned Plan's
// configuration, so a following Execute synthesises at most once, on the
// first unit that misses the store, and not at all over a warm store.
func PlanSpecs(cfg Config, ids ...string) (*Plan, error) {
	resolved := make([]Spec, 0, len(ids))
	for _, id := range ids {
		s, err := findSpec(id)
		if err != nil {
			return nil, err
		}
		resolved = append(resolved, s)
	}
	// Materialise the pool, store and dataset once; the enumerators'
	// compute closures capture them.
	cfg.eng()
	cfg.store()
	if _, err := cfg.dataset(); err != nil {
		return nil, err
	}
	seen := map[resultstore.Key]bool{}
	var units []Unit
	for _, s := range resolved {
		us, err := s.plan(&cfg)
		if err != nil {
			return nil, err
		}
		for _, u := range us {
			if seen[u.Key] {
				continue
			}
			seen[u.Key] = true
			units = append(units, u)
		}
	}
	return &Plan{Units: units, cfg: cfg}, nil
}

// Fingerprint hashes the plan's ordered unit list. Two processes planning
// the same spec set with the same configuration (seed, budget, draws,
// maxK, dataset) produce the identical fingerprint — which is what the
// work-stealing coordinator and its workers compare so a worker started
// with mismatched flags fails loudly instead of executing a different
// unit set.
func (p *Plan) Fingerprint() string {
	h := sha256.New()
	for _, u := range p.Units {
		io.WriteString(h, u.Key.Stem())
	}
	return hex.EncodeToString(h.Sum(nil))
}

// Keys lists the plan's unit keys in plan order — the unit list a
// work-stealing coordinator queues.
func (p *Plan) Keys() []resultstore.Key {
	out := make([]resultstore.Key, len(p.Units))
	for i, u := range p.Units {
		out[i] = u.Key
	}
	return out
}

// UnitsByKey resolves leased unit keys back to this plan's executable
// units, erroring on any key the plan does not contain (the worker and
// coordinator disagree about the plan).
func (p *Plan) UnitsByKey(keys []resultstore.Key) ([]Unit, error) {
	byKey := make(map[resultstore.Key]Unit, len(p.Units))
	for _, u := range p.Units {
		byKey[u.Key] = u
	}
	out := make([]Unit, len(keys))
	for i, k := range keys {
		u, ok := byKey[k]
		if !ok {
			return nil, fmt.Errorf("experiments: unit %+v is not in this plan", k)
		}
		out[i] = u
	}
	return out, nil
}

// Executor computes assigned units into the plan's result store.
type Executor struct {
	cfg Config
}

// Executor returns an executor sharing the plan's materialised pool,
// store and dataset.
func (p *Plan) Executor() *Executor {
	return &Executor{cfg: p.cfg}
}

// Execute computes the given units on the run's worker pool, serving
// units already in the store and storing the rest — the work a
// worker performs for each lease. It renders nothing; rendering reads the merged store
// through RunSpecs.
func (e *Executor) Execute(units []Unit) error {
	eng := e.cfg.eng()
	st := e.cfg.store()
	_, err := engine.Collect(eng, len(units), func(i int) (struct{}, error) {
		return struct{}{}, units[i].exec(st)
	})
	return err
}
