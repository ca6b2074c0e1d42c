package experiments

import (
	"bytes"
	"testing"

	"repro/internal/resultstore"
)

// TestPlanIsDeterministic pins the contract a work-stealing worker's
// plan fingerprint relies on, without computing anything: two
// independent plans of the same config agree unit for unit, and no unit
// is planned twice.
func TestPlanIsDeterministic(t *testing.T) {
	ids := SpecIDs()
	planA, err := PlanSpecs(fastConfig(), ids...)
	if err != nil {
		t.Fatal(err)
	}
	planB, err := PlanSpecs(fastConfig(), ids...)
	if err != nil {
		t.Fatal(err)
	}
	if len(planA.Units) == 0 || len(planA.Units) != len(planB.Units) {
		t.Fatalf("plan sizes %d vs %d", len(planA.Units), len(planB.Units))
	}
	seen := map[resultstore.Key]bool{}
	for i := range planA.Units {
		k := planA.Units[i].Key
		if k != planB.Units[i].Key {
			t.Fatalf("plans diverge at unit %d: %+v vs %+v", i, k, planB.Units[i].Key)
		}
		if seen[k] {
			t.Fatalf("duplicate planned key %+v", k)
		}
		seen[k] = true
	}
	if planA.Fingerprint() != planB.Fingerprint() {
		t.Fatal("equal plans have different fingerprints")
	}
}

// TestPlanCoversExactlyTheComputedUnits is the completeness guarantee
// distributed runs rest on, across the full spec set: executing the plan
// leaves a store from which every spec renders without a single
// recompute, and the plan is no larger than what a direct run computes.
func TestPlanCoversExactlyTheComputedUnits(t *testing.T) {
	if testing.Short() {
		t.Skip("full pipeline twice in -short mode")
	}
	if raceEnabled {
		t.Skip("full pipeline twice under -race")
	}
	ids := SpecIDs()

	// Direct run: how many units does rendering actually compute?
	direct := resultstore.New()
	cfgA := fastConfig()
	cfgA.Workers = 8
	cfgA.Store = direct
	var ref bytes.Buffer
	if err := RunSpecs(cfgA, &ref, ids...); err != nil {
		t.Fatal(err)
	}
	computed := direct.Stats().Puts

	// Plan + execute into a fresh store, then render from it.
	st := resultstore.New()
	cfgB := fastConfig()
	cfgB.Workers = 8
	cfgB.Store = st
	plan, err := PlanSpecs(cfgB, ids...)
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(plan.Units)) != computed {
		t.Fatalf("plan has %d units, direct run computed %d", len(plan.Units), computed)
	}
	if err := plan.Executor().Execute(plan.Units); err != nil {
		t.Fatal(err)
	}
	mid := st.Stats()
	if mid.Puts != computed {
		t.Fatalf("execute computed %d units, want %d", mid.Puts, computed)
	}
	var out bytes.Buffer
	if err := RunSpecs(cfgB, &out, ids...); err != nil {
		t.Fatal(err)
	}
	if out.String() != ref.String() {
		t.Fatal("render from executed plan differs from direct run")
	}
	// Stats are cumulative: the render phase is the delta past execute,
	// and it must be hits only.
	after := st.Stats()
	if after.Puts != mid.Puts || after.Misses != mid.Misses {
		t.Fatalf("render after execute recomputed units: %+v -> %+v", mid, after)
	}
	if after.Hits == mid.Hits {
		t.Fatal("render reported no hits")
	}
}
