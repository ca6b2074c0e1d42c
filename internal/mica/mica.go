// Package mica defines microarchitecture-independent workload
// characteristics (after the MICA methodology used by Hoste et al.) for the
// 29 SPEC CPU2006 benchmarks. These profiles play two roles in the
// reproduction:
//
//  1. They drive the analytic performance model in internal/perfmodel, i.e.
//     they are the ground truth that generates the synthetic SPEC scores.
//  2. A noisy view of them is the program characterisation consumed by the
//     GA-kNN baseline, exactly as the measured MICA vectors are in the
//     paper.
package mica

import (
	"fmt"
	"math"
)

// Suite labels a benchmark as integer or floating point.
type Suite string

// SPEC CPU2006 component suites.
const (
	Int Suite = "CINT2006"
	FP  Suite = "CFP2006"
)

// Workload captures the inherent, microarchitecture-independent behaviour
// of one program. All fractions are of dynamic instructions.
type Workload struct {
	Name  string
	Suite Suite

	// Instruction mix.
	FracLoad   float64 // loads
	FracStore  float64 // stores
	FracBranch float64 // conditional branches
	FracFP     float64 // floating-point arithmetic

	// ILP is the average instruction-level parallelism available in a
	// large (256-instruction) window.
	ILP float64
	// Regularity in (0, 1]: how statically schedulable the code is. High
	// values mean a compiler/in-order pipeline can extract most of the ILP;
	// low values need out-of-order hardware.
	Regularity float64
	// WorkingSetKB is the knee of the data reuse curve: caches comfortably
	// above it capture most of the locality.
	WorkingSetKB float64
	// Streaming in [0, 1]: fraction of misses that are sequential/strided
	// and therefore prefetchable and bandwidth- (not latency-) bound.
	Streaming float64
	// BranchEntropy in [0, 1]: 0 = perfectly predictable branches, 1 =
	// essentially random.
	BranchEntropy float64
	// BytesPerInstr is the off-core traffic intensity when the working set
	// does not fit in cache, in bytes per dynamic instruction.
	BytesPerInstr float64
	// DLP in [0, 1]: data-level parallelism — how much of the computation
	// is vectorisable / software-pipelinable.
	DLP float64
	// CodeFootprintKB is the instruction working set.
	CodeFootprintKB float64
}

// Validate checks the physical plausibility of a profile.
func (w Workload) Validate() error {
	if w.Name == "" {
		return fmt.Errorf("mica: workload without name")
	}
	frac := []struct {
		name string
		v    float64
	}{
		{"FracLoad", w.FracLoad}, {"FracStore", w.FracStore},
		{"FracBranch", w.FracBranch}, {"FracFP", w.FracFP},
		{"Streaming", w.Streaming}, {"BranchEntropy", w.BranchEntropy},
		{"DLP", w.DLP},
	}
	for _, f := range frac {
		if f.v < 0 || f.v > 1 || math.IsNaN(f.v) {
			return fmt.Errorf("mica: %s: %s = %v out of [0,1]", w.Name, f.name, f.v)
		}
	}
	if w.FracLoad+w.FracStore+w.FracBranch > 1 {
		return fmt.Errorf("mica: %s: memory+branch mix exceeds 1", w.Name)
	}
	if w.ILP < 1 {
		return fmt.Errorf("mica: %s: ILP = %v must be >= 1", w.Name, w.ILP)
	}
	if w.Regularity <= 0 || w.Regularity > 1 {
		return fmt.Errorf("mica: %s: Regularity = %v out of (0,1]", w.Name, w.Regularity)
	}
	if w.WorkingSetKB <= 0 || w.CodeFootprintKB <= 0 {
		return fmt.Errorf("mica: %s: non-positive footprint", w.Name)
	}
	if w.BytesPerInstr < 0 {
		return fmt.Errorf("mica: %s: negative BytesPerInstr", w.Name)
	}
	return nil
}

// VectorLen is the dimensionality of Vector().
const VectorLen = 12

// Vector flattens the profile into the characteristic vector used for
// similarity computations. Footprints enter logarithmically, mirroring how
// reuse distances are binned in MICA.
func (w Workload) Vector() []float64 {
	return []float64{
		w.FracLoad, w.FracStore, w.FracBranch, w.FracFP,
		w.ILP, w.Regularity, math.Log2(w.WorkingSetKB), w.Streaming,
		w.BranchEntropy, w.BytesPerInstr, math.Log2(w.CodeFootprintKB), w.DLP,
	}
}

// Table is a named collection of workload profiles.
type Table struct {
	workloads map[string]Workload
	order     []string
}

// NewTable builds a Table, validating every profile.
func NewTable(ws []Workload) (*Table, error) {
	t := &Table{workloads: make(map[string]Workload, len(ws))}
	for _, w := range ws {
		if err := w.Validate(); err != nil {
			return nil, err
		}
		if _, dup := t.workloads[w.Name]; dup {
			return nil, fmt.Errorf("mica: duplicate workload %q", w.Name)
		}
		t.workloads[w.Name] = w
		t.order = append(t.order, w.Name)
	}
	return t, nil
}

// Names returns the workload names in insertion order.
func (t *Table) Names() []string { return append([]string(nil), t.order...) }

// Get returns the named workload.
func (t *Table) Get(name string) (Workload, error) {
	w, ok := t.workloads[name]
	if !ok {
		return Workload{}, fmt.Errorf("mica: unknown workload %q", name)
	}
	return w, nil
}

// Len returns the number of workloads.
func (t *Table) Len() int { return len(t.order) }
