package experiments

import (
	"bytes"
	"errors"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/resultstore"
	"repro/internal/synth"
)

// swapGenerate replaces the package's synthesis function for the rest of
// the test.
func swapGenerate(t *testing.T, f func(synth.Options) (*synth.Data, error)) {
	t.Helper()
	prev := generate
	generate = f
	t.Cleanup(func() { generate = prev })
}

// TestWarmRunNeverSynthesises is the point of keying units by the
// synthesis recipe: over a filled directory store, RunSpecs of every
// spec and PlanSpecs plus RunReport of each one render the cold bytes
// without synthesising the dataset and without computing a unit.
func TestWarmRunNeverSynthesises(t *testing.T) {
	if testing.Short() {
		t.Skip("every spec cold in -short mode")
	}
	if raceEnabled {
		t.Skip("every spec cold under -race")
	}
	dir := t.TempDir()
	cold, _ := runSpecsWithStore(t, dir, SpecIDs()...)
	swapGenerate(t, func(synth.Options) (*synth.Data, error) {
		t.Error("a warm run synthesised the dataset")
		return nil, errors.New("synthesis is off in this test")
	})

	warm, s := runSpecsWithStore(t, dir, SpecIDs()...)
	if warm != cold || s.Puts != 0 || s.Misses != 0 {
		t.Fatalf("warm RunSpecs: %+v, output equal to cold: %v", s, warm == cold)
	}

	st, err := resultstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	cfg := fastConfig()
	cfg.Store = st
	var reports strings.Builder
	for _, id := range SpecIDs() {
		plan, err := PlanSpecs(cfg, id)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := RunReport(cfg, id)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Units != len(plan.Units) || rep.Computed != 0 {
			t.Fatalf("%s: %d units (plan has %d), %d computed", id, rep.Units, len(plan.Units), rep.Computed)
		}
		if rep.Snapshot != synth.DefaultOptions(cfg.Seed).Fingerprint() {
			t.Fatalf("%s keyed under %s, not the recipe", id, rep.Snapshot)
		}
		reports.WriteString(rep.Text)
	}
	if st.Stats().Puts != 0 {
		t.Fatalf("warm reports stored %d units", st.Stats().Puts)
	}
	if reports.String() != cold {
		t.Fatal("warm reports differ from the cold render")
	}
}

// TestColdMissesSynthesiseOnce runs a cold spec whose units miss
// concurrently on several workers: the dataset they all read is
// synthesised exactly once, and the render is the one a serial run
// gives.
func TestColdMissesSynthesiseOnce(t *testing.T) {
	var calls atomic.Int32
	swapGenerate(t, func(opts synth.Options) (*synth.Data, error) {
		calls.Add(1)
		return synth.Generate(opts)
	})
	run := func(workers int) string {
		cfg := fastConfig()
		cfg.Workers = workers
		var buf bytes.Buffer
		if err := RunSpecs(cfg, &buf, SpecTable4); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	parallel := run(4)
	if n := calls.Load(); n != 1 {
		t.Fatalf("a cold run synthesised %d times, want once", n)
	}
	if serial := run(1); serial != parallel {
		t.Fatal("the parallel render differs from the serial one")
	}
}

// TestInjectedDataKeyedByContent pins which key space injected data
// lands in: data equal to the recipe's output shares the recipe's keys,
// any other data (here the honest-characteristics variant, which has the
// same matrix) is keyed by its own fingerprint.
func TestInjectedDataKeyedByContent(t *testing.T) {
	opts := synth.DefaultOptions(1)
	same, err := synth.Generate(opts)
	if err != nil {
		t.Fatal(err)
	}
	honestOpts := opts
	honestOpts.HonestCharacteristics = true
	other, err := synth.Generate(honestOpts)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		data *synth.Data
		want string
	}{
		{nil, opts.Fingerprint()},
		{same, opts.Fingerprint()},
		{other, other.Fingerprint()},
	} {
		cfg := fastConfig()
		cfg.Data = c.data
		plan, err := PlanSpecs(cfg, SpecTable3)
		if err != nil {
			t.Fatal(err)
		}
		if got := plan.Units[0].Key.Snapshot; got != c.want {
			t.Fatalf("injected %v: keyed under %s, want %s", c.data != nil, got, c.want)
		}
	}
}
