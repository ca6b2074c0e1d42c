package experiments

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/resultstore"
)

// runSpecsWithStore renders the given specs against a store opened on
// dir and returns the output plus the store's final counters.
func runSpecsWithStore(t *testing.T, dir string, ids ...string) (string, resultstore.Stats) {
	t.Helper()
	st, err := resultstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	cfg := fastConfig()
	cfg.Store = st
	var buf bytes.Buffer
	if err := RunSpecs(cfg, &buf, ids...); err != nil {
		t.Fatal(err)
	}
	return buf.String(), st.Stats()
}

// TestWarmStoreSkipsEveryUnit is the incremental-rerun guarantee at spec
// granularity: a second run over a warm store recomputes nothing (zero
// misses, zero puts), serves every unit as a hit, and renders
// byte-identical output.
func TestWarmStoreSkipsEveryUnit(t *testing.T) {
	dir := t.TempDir()
	cold, s1 := runSpecsWithStore(t, dir, SpecTable3)
	if s1.Puts == 0 || s1.Hits != 0 {
		t.Fatalf("cold stats %+v", s1)
	}
	warm, s2 := runSpecsWithStore(t, dir, SpecTable3)
	if warm != cold {
		t.Fatalf("warm output differs from cold:\n--- cold\n%s\n--- warm\n%s", cold, warm)
	}
	if s2.Misses != 0 || s2.Puts != 0 {
		t.Fatalf("warm run recomputed units: %+v", s2)
	}
	if s2.Hits != s1.Misses {
		t.Fatalf("warm hits %d, want one per cold unit (%d)", s2.Hits, s1.Misses)
	}
}

// TestSpecsShareUnitsInMemory pins the sharing that makes RunAll cheap:
// Table 2 and Figures 6-7 render from one family cross-validation, so
// running all three computes each family-CV cell once and reads none of
// them back from the store.
func TestSpecsShareUnitsInMemory(t *testing.T) {
	st := resultstore.New()
	cfg := fastConfig()
	cfg.Store = st
	var buf bytes.Buffer
	if err := RunSpecs(cfg, &buf, SpecTable2, SpecFigure6, SpecFigure7); err != nil {
		t.Fatal(err)
	}
	s := st.Stats()
	// 3 methods × 17 families, each looked up once and computed once.
	if s.Misses != 51 || s.Puts != 51 || s.Hits != 0 {
		t.Fatalf("stats %+v: want 51 misses, 51 puts, 0 hits", s)
	}
}

// TestWarmRunReadsEachUnitOnce is the warm-render traffic contract: a
// rerun of every spec over a filled directory store reads each stored
// unit exactly once (one hit per entry file), computes nothing and
// renders the cold output byte for byte.
func TestWarmRunReadsEachUnitOnce(t *testing.T) {
	if testing.Short() {
		t.Skip("every spec twice in -short mode")
	}
	if raceEnabled {
		t.Skip("every spec twice under -race")
	}
	dir := t.TempDir()
	cold, _ := runSpecsWithStore(t, dir, SpecIDs()...)
	entries, err := filepath.Glob(filepath.Join(dir, "*.dtr"))
	if err != nil {
		t.Fatal(err)
	}
	warm, s := runSpecsWithStore(t, dir, SpecIDs()...)
	if warm != cold {
		t.Fatal("warm output differs from the cold render")
	}
	if s.Hits != int64(len(entries)) || s.Misses != 0 || s.Puts != 0 || s.Corrupt != 0 {
		t.Fatalf("warm stats %+v, want %d hits (one per entry) and nothing else", s, len(entries))
	}
}

// TestFamilyViewsWithoutPerAppMetrics asserts that the per-app metrics
// RunFamilyCV attaches change nothing: Table 2 and Figures 6-7 render
// the same bytes, text and CSV, from a FamilyRun built by hand out of
// the same results (which falls back to transpose.PerApp), and the
// memoized RunSpecs render equals the hand-built one.
func TestFamilyViewsWithoutPerAppMetrics(t *testing.T) {
	st := resultstore.New()
	cfg := fastConfig()
	cfg.Store = st
	var memo bytes.Buffer
	if err := RunSpecs(cfg, &memo, SpecTable2, SpecFigure6, SpecFigure7); err != nil {
		t.Fatal(err)
	}
	fr, err := RunFamilyCV(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(fr.perApp) != len(MethodNames) {
		t.Fatalf("RunFamilyCV attached per-app metrics for %d methods, want %d", len(fr.perApp), len(MethodNames))
	}
	hand := &FamilyRun{Order: fr.Order, Results: fr.Results}
	views := func(fr *FamilyRun) (text, csv string) {
		t2, err := fr.Table2()
		if err != nil {
			t.Fatal(err)
		}
		f6, err := fr.Figure6()
		if err != nil {
			t.Fatal(err)
		}
		f7, err := fr.Figure7()
		if err != nil {
			t.Fatal(err)
		}
		var tb, cb bytes.Buffer
		for _, v := range []interface {
			Render() string
			WriteCSV(io.Writer) error
		}{t2, f6, f7} {
			tb.WriteString(v.Render() + "\n")
			if err := v.WriteCSV(&cb); err != nil {
				t.Fatal(err)
			}
		}
		return tb.String(), cb.String()
	}
	memoText, memoCSV := views(fr)
	handText, handCSV := views(hand)
	if handText != memoText || handCSV != memoCSV {
		t.Fatalf("hand-built FamilyRun renders differently:\n--- memoized\n%s\n--- hand-built\n%s", memoText, handText)
	}
	if memo.String() != handText {
		t.Fatalf("RunSpecs render differs from the hand-built views:\n--- RunSpecs\n%s\n--- hand-built\n%s", memo.String(), handText)
	}
}

// TestCorruptUnitIsRecomputed damages one stored unit and asserts the
// next run recomputes exactly that unit and renders identical output —
// corruption costs time, never correctness.
func TestCorruptUnitIsRecomputed(t *testing.T) {
	dir := t.TempDir()
	cold, s1 := runSpecsWithStore(t, dir, SpecTable3)
	entries, err := filepath.Glob(filepath.Join(dir, "*.dtr"))
	if err != nil || len(entries) == 0 {
		t.Fatalf("no store entries (%v)", err)
	}
	if int64(len(entries)) != s1.Puts {
		t.Fatalf("%d entries for %d puts", len(entries), s1.Puts)
	}
	// Truncate one entry.
	blob, err := os.ReadFile(entries[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(entries[0], blob[:len(blob)/3], 0o644); err != nil {
		t.Fatal(err)
	}
	warm, s2 := runSpecsWithStore(t, dir, SpecTable3)
	if warm != cold {
		t.Fatal("output changed after corruption recompute")
	}
	if s2.Corrupt != 1 || s2.Misses != 1 || s2.Puts != 1 {
		t.Fatalf("stats after corruption %+v", s2)
	}
}

// TestRunAllWarmCache runs the full paper pipeline cold then warm: the
// warm run must skip every unit and render byte-identical output. This
// is the acceptance guarantee behind `dtrank run -spec all -cache`.
func TestRunAllWarmCache(t *testing.T) {
	if testing.Short() {
		t.Skip("full pipeline twice in -short mode")
	}
	if raceEnabled {
		t.Skip("full pipeline twice under -race")
	}
	dir := t.TempDir()
	run := func() (string, resultstore.Stats) {
		st, err := resultstore.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		cfg := fastConfig()
		cfg.Workers = 8
		cfg.Store = st
		var buf bytes.Buffer
		if err := RunAll(cfg, &buf); err != nil {
			t.Fatal(err)
		}
		return buf.String(), st.Stats()
	}
	cold, s1 := run()
	warm, s2 := run()
	if warm != cold {
		d := 0
		for d < len(cold) && d < len(warm) && cold[d] == warm[d] {
			d++
		}
		lo := max(0, d-80)
		t.Fatalf("warm output differs at byte %d: cold ...%q..., warm ...%q...",
			d, cold[lo:min(d+80, len(cold))], warm[lo:min(d+80, len(warm))])
	}
	if s2.Misses != 0 || s2.Puts != 0 {
		t.Fatalf("warm RunAll recomputed units: %+v", s2)
	}
	if s2.Hits == 0 || s2.Hits < s1.Puts {
		t.Fatalf("warm RunAll hits %d, cold computed %d", s2.Hits, s1.Puts)
	}
}

// TestStoreKeyedBySeed asserts a different seed shares nothing with a
// warm store — seeds are part of every unit key.
func TestStoreKeyedBySeed(t *testing.T) {
	dir := t.TempDir()
	_, s1 := runSpecsWithStore(t, dir, SpecTable3)
	st, err := resultstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	cfg := fastConfig()
	cfg.Seed = 2
	cfg.Store = st
	var buf bytes.Buffer
	if err := RunSpecs(cfg, &buf, SpecTable3); err != nil {
		t.Fatal(err)
	}
	s2 := st.Stats()
	if s2.Hits != 0 || s2.Puts != s1.Puts {
		t.Fatalf("seed 2 reused seed 1 units: %+v", s2)
	}
}

// TestStoreKeyedByBudget asserts -fast and full-budget runs address
// disjoint units: a warm fast cache must never serve a full run.
func TestStoreKeyedByBudget(t *testing.T) {
	fastKey := fastConfig().unitKey("fp", SpecTable3, "NN^T", "2008")
	full := fastConfig()
	full.Fast = false
	fullKey := full.unitKey("fp", SpecTable3, "NN^T", "2008")
	if fastKey == fullKey {
		t.Fatalf("fast and full runs share unit key %+v", fastKey)
	}
	if fastKey.Budget != "fast" || fullKey.Budget != "" {
		t.Fatalf("budgets %q / %q", fastKey.Budget, fullKey.Budget)
	}
}
