package experiments

import (
	"bytes"
	"testing"

	"repro/internal/resultstore"
	"repro/internal/synth"
)

// TestRunReportMatchesRunSpecs asserts the report pipeline's core
// contract: the text RunReport returns is byte-identical to what RunSpecs
// writes for the same spec and configuration.
func TestRunReportMatchesRunSpecs(t *testing.T) {
	st := resultstore.New()
	cfg := fastConfig()
	cfg.Store = st
	rep, err := RunReport(cfg, SpecTable2)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Spec != SpecTable2 || rep.Title == "" {
		t.Fatalf("report identity: %+v", rep)
	}
	if rep.Budget != "fast" {
		t.Fatalf("budget = %q, want fast", rep.Budget)
	}
	if rep.Units == 0 || rep.Computed == 0 {
		t.Fatalf("cold render reported %d units, %d computed", rep.Units, rep.Computed)
	}

	var want bytes.Buffer
	cli := fastConfig()
	cli.Store = st // warm store: the render must not depend on store state
	if err := RunSpecs(cli, &want, SpecTable2); err != nil {
		t.Fatal(err)
	}
	if rep.Text != want.String() {
		t.Fatalf("report text differs from RunSpecs output:\nreport:\n%s\nrunspecs:\n%s", rep.Text, want.String())
	}
}

// TestRunReportWarmStoreComputesNothing asserts the incremental half: a
// second render over the same store serves every unit and computes none.
func TestRunReportWarmStoreComputesNothing(t *testing.T) {
	st := resultstore.New()
	cfg := fastConfig()
	cfg.Store = st
	cold, err := RunReport(cfg, SpecTable3)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := RunReport(cfg, SpecTable3)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Computed != 0 {
		t.Fatalf("warm render computed %d units, want 0", warm.Computed)
	}
	if warm.Hits == 0 {
		t.Fatal("warm render reported no store hits")
	}
	if warm.Text != cold.Text {
		t.Fatalf("warm render differs from cold:\ncold:\n%s\nwarm:\n%s", cold.Text, warm.Text)
	}
}

// TestInjectedDataEqualsSynthesis asserts the dataset-injection contract
// dtrankd relies on: a Config carrying the pre-generated dataset
// addresses the same fingerprint, plans the same units and renders the
// same bytes as one that synthesises it.
func TestInjectedDataEqualsSynthesis(t *testing.T) {
	data, err := synth.Generate(synth.DefaultOptions(1))
	if err != nil {
		t.Fatal(err)
	}
	injected := fastConfig()
	injected.Data = &synth.Data{Matrix: data.Matrix, Characteristics: data.Characteristics}
	synthesised := fastConfig()

	pi, err := PlanSpecs(injected, SpecTable2)
	if err != nil {
		t.Fatal(err)
	}
	ps, err := PlanSpecs(synthesised, SpecTable2)
	if err != nil {
		t.Fatal(err)
	}
	if pi.Fingerprint() != ps.Fingerprint() {
		t.Fatalf("plan fingerprints differ: injected %s, synthesised %s", pi.Fingerprint(), ps.Fingerprint())
	}

	st := resultstore.New()
	injected.Store = st
	ri, err := RunReport(injected, SpecTable2)
	if err != nil {
		t.Fatal(err)
	}
	synthesised.Store = st
	rs, err := RunReport(synthesised, SpecTable2)
	if err != nil {
		t.Fatal(err)
	}
	if ri.Snapshot != rs.Snapshot {
		t.Fatalf("dataset fingerprints differ: injected %s, synthesised %s", ri.Snapshot, rs.Snapshot)
	}
	if rs.Computed != 0 {
		t.Fatalf("synthesised render recomputed %d units the injected render stored", rs.Computed)
	}
	if ri.Text != rs.Text {
		t.Fatalf("renders differ:\ninjected:\n%s\nsynthesised:\n%s", ri.Text, rs.Text)
	}
}

// TestRunReportUnknownSpec pins the error path /v1/reports/{spec} maps to
// a 404.
func TestRunReportUnknownSpec(t *testing.T) {
	if _, err := RunReport(fastConfig(), "no-such-spec"); err == nil {
		t.Fatal("want error for unknown spec")
	}
}

// BenchmarkRunReport measures a warm-store report render — plan, read
// every unit back, render, with zero computation. This is the daemon's
// report fast-path floor below the response cache; its allocs/op are
// deterministic, so the bench gate watches them.
func BenchmarkRunReport(b *testing.B) {
	st := resultstore.New()
	cfg := fastConfig()
	cfg.Store = st
	if _, err := RunReport(cfg, "table3"); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := RunReport(cfg, "table3")
		if err != nil {
			b.Fatal(err)
		}
		if rep.Computed != 0 {
			b.Fatalf("warm render computed %d units", rep.Computed)
		}
	}
}

// BenchmarkRunSpecsWarm is the in-process half of the spec-batch
// workload's warm run (`dtrank run -spec all -fast -draws 2 -maxk 3
// -cache dir` over a filled store): every iteration opens the directory
// store afresh, builds the dataset's layout (it synthesises nothing),
// reads each of the 92 stored units back from disk once and renders
// every spec, computing nothing. The store is filled once, untimed.
func BenchmarkRunSpecsWarm(b *testing.B) {
	dir := b.TempDir()
	render := func() (string, resultstore.Stats) {
		st, err := resultstore.Open(dir)
		if err != nil {
			b.Fatal(err)
		}
		cfg := fastConfig()
		cfg.Store = st
		var out bytes.Buffer
		if err := RunSpecs(cfg, &out, SpecIDs()...); err != nil {
			b.Fatal(err)
		}
		return out.String(), st.Stats()
	}
	cold, _ := render()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		warm, stats := render()
		if stats.Puts != 0 || stats.Misses != 0 || warm != cold {
			b.Fatalf("warm render computed %d units (%d misses) or differs from the cold one", stats.Puts, stats.Misses)
		}
	}
}
