// Package perfmodel is the "machine simulator" substrate of the
// reproduction: an analytic CPI model that maps a machine configuration and
// a microarchitecture-independent workload profile to a SPEC-style speed
// ratio versus the SUN Ultra5 reference machine.
//
// The paper uses measured SPEC CPU2006 submissions, which are not
// redistributable; this model substitutes for them. It produces the same
// structure the methodology depends on: dominant machine and benchmark main
// effects plus non-linear machine × benchmark interactions from four
// mechanisms —
//
//   - cache fit: a working-set curve evaluated against the L1/L2/L3
//     capacities, so machines with big caches win mid-footprint codes;
//   - latency vs bandwidth: prefetchable streaming misses are overlapped
//     (integrated-memory-controller machines excel), pointer-chasing misses
//     pay full latency;
//   - branchy codes: misprediction cost scales with pipeline depth and
//     predictor quality;
//   - compute throughput: issue width, out-of-order vs in-order ILP
//     extraction, FP units and vector/software-pipelining throughput.
//
// CPI components are additive; the final rate is capped by sustainable
// memory bandwidth.
package perfmodel

import (
	"fmt"
	"math"

	"repro/internal/lanes"
	"repro/internal/machine"
	"repro/internal/mica"
)

// Model tuning constants. These are fixed calibration choices, not per-run
// parameters; they were set so that well-known machines land near their
// published SPEC CPU2006 ranges (e.g. a Core 2 Conroe scores ≈ 11-13 on
// gcc).
const (
	// wsCurveExponent shapes the miss-ratio working-set curve
	// f(C) = farFrac / (1 + (C/WS)^wsCurveExponent).
	wsCurveExponent = 0.7
	// fpBaseCost is the baseline CPI contribution per FP instruction on a
	// machine with FPThroughput = 1.
	fpBaseCost = 0.55
	// fetchCostPerDoubling is the CPI added per doubling of code footprint
	// beyond the instruction cache (approximated by L1 size).
	fetchCostPerDoubling = 0.02
	// bpHeadroom turns predictor accuracy into a mispredict rate:
	// rate = BranchEntropy * (bpHeadroom - BPAccuracy).
	bpHeadroom = 1.1
	// oooBaseEfficiency is the ILP-extraction floor of an out-of-order
	// core on fully irregular code; regular code reaches 1.0.
	oooBaseEfficiency = 0.75
	// mlpBase is the fraction of memory-level parallelism available even
	// to non-streaming access patterns.
	mlpBase = 0.3
	// lineBytes is the cache line size used to convert miss rates into
	// traffic.
	lineBytes = 64
	// maxFarFrac caps the fraction of memory references treated as
	// long-reuse.
	maxFarFrac = 0.95
)

// Breakdown reports the additive CPI components for one (machine, workload)
// pair; useful for model validation and the design-space example.
type Breakdown struct {
	Base    float64 // issue/ILP-limited component
	FP      float64 // floating-point throughput component
	Branch  float64 // misprediction component
	Memory  float64 // cache and DRAM stall component
	Fetch   float64 // instruction-fetch component
	BWBound bool    // true if the bandwidth cap determined the total
	Total   float64
}

// CPI evaluates the analytic model for workload w on machine c.
func CPI(c machine.Config, w mica.Workload) (Breakdown, error) {
	if err := c.Validate(); err != nil {
		return Breakdown{}, fmt.Errorf("perfmodel: %w", err)
	}
	if err := w.Validate(); err != nil {
		return Breakdown{}, fmt.Errorf("perfmodel: %w", err)
	}
	var b Breakdown

	// Compute throughput: ILP extraction times vector/SIMD speedup.
	ilpCap := math.Min(w.ILP, float64(c.Width))
	var achieved float64
	if c.OutOfOrder {
		achieved = ilpCap * (oooBaseEfficiency + (1-oooBaseEfficiency)*w.Regularity)
	} else {
		// In-order: everything beyond the first issue slot is only
		// available to the extent the compiler can schedule it statically.
		achieved = 1 + (ilpCap-1)*w.Regularity
	}
	if achieved < 1 {
		achieved = 1
	}
	vec := 1 + (c.VectorThroughput-1)*w.DLP
	b.Base = 1 / (achieved * vec)

	// Floating point.
	b.FP = w.FracFP * fpBaseCost / (c.FPThroughput * vec)

	// Branches.
	mr := w.BranchEntropy * (bpHeadroom - c.BPAccuracy)
	mr = math.Max(0, math.Min(1, mr))
	b.Branch = w.FracBranch * mr * float64(c.PipelineDepth)

	// Memory hierarchy.
	memRefs := w.FracLoad + w.FracStore
	farFrac := 0.0
	if memRefs > 0 {
		farFrac = math.Min(maxFarFrac, w.BytesPerInstr/(lineBytes*memRefs))
	}
	missAt := func(sizeKB float64) float64 {
		return farFrac / (1 + lanes.Pow(sizeKB/w.WorkingSetKB, wsCurveExponent))
	}
	fL1 := missAt(c.L1KB)
	fL2 := missAt(c.L2KB)
	pf := 1 - c.Prefetch*w.Streaming // latency fraction prefetching cannot hide
	mlp := 1 + (math.Sqrt(c.MLPWindow)-1)*(mlpBase+(1-mlpBase)*w.Streaming)
	memLatCy := c.MemLatNs * c.FreqGHz
	// All off-L1 stalls are both prefetchable (pf) and overlappable (mlp):
	// an out-of-order window hides L2/L3 hit latency exactly as it hides
	// part of a DRAM access.
	var stalls float64
	stalls += (fL1 - fL2) * c.L2LatCy
	fLast := fL2
	if c.L3KB > 0 {
		fL3 := missAt(c.L3KB)
		stalls += (fL2 - fL3) * c.L3LatCy
		fLast = fL3
	}
	stalls += fLast * memLatCy
	b.Memory = memRefs * stalls * pf / mlp

	// Instruction fetch.
	if w.CodeFootprintKB > c.L1KB {
		b.Fetch = fetchCostPerDoubling * math.Log2(w.CodeFootprintKB/c.L1KB)
	}

	b.Total = b.Base + b.FP + b.Branch + b.Memory + b.Fetch

	// Bandwidth cap: cycles per instruction cannot drop below the time to
	// move the workload's off-core traffic at sustainable bandwidth.
	demandBytes := float64(lineBytes) * memRefs * fLast // bytes per instruction
	supplyBytesPerCycle := c.MemBWGBs / c.FreqGHz
	if bwCPI := demandBytes / supplyBytesPerCycle; bwCPI > b.Total {
		b.Total = bwCPI
		b.BWBound = true
	}
	return b, nil
}

// InstructionRate returns the model's instructions/second (GHz·IPC) for
// workload w on machine c.
func InstructionRate(c machine.Config, w mica.Workload) (float64, error) {
	b, err := CPI(c, w)
	if err != nil {
		return 0, err
	}
	return c.FreqGHz * 1e9 / b.Total, nil
}

// SPECRatio returns the modelled speed ratio of machine c over the SPEC
// reference machine for workload w — the analogue of one published
// SPECspeed number.
func SPECRatio(c machine.Config, w mica.Workload) (float64, error) {
	mRate, err := InstructionRate(c, w)
	if err != nil {
		return 0, err
	}
	refRate, err := InstructionRate(machine.Reference(), w)
	if err != nil {
		return 0, err
	}
	return mRate / refRate, nil
}
