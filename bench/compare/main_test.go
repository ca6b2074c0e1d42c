package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// bySeedFrom numbers xs as the runs of seeds 1, 2, ...
func bySeedFrom(xs []float64) map[int64]float64 {
	out := map[int64]float64{}
	for i, x := range xs {
		out[int64(i+1)] = x
	}
	return out
}

func TestQuartilesMatchPythonStatisticsQuantiles(t *testing.T) {
	cases := []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
		{[]float64{5, 1}, [3]float64{0, 3, 6}},
	}
	for _, c := range cases {
		if got := quartiles(c.xs); got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

func TestJudgeVerdicts(t *testing.T) {
	bound := 0.1
	lower := metricSpec{Name: "p50_ms", Better: "lower", Bound: &bound}
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	shift := func(d float64) []float64 {
		out := make([]float64, len(base))
		for i, v := range base {
			out[i] = v + d
		}
		return out
	}
	cases := []struct {
		name      string
		m         metricSpec
		old, cur  []float64
		wantVerd  string
		wantNoBnd string
	}{
		{"same", lower, base, base, "within bound", "~"},
		{"faster", lower, base, shift(-20), "improved", "improved"},
		{"slightly slower", lower, base, shift(5), "within bound", "worse"},
		{"much slower", lower, base, shift(20), "regressed", "worse"},
		{"noisy", lower, base, []float64{60, 140, 70, 130, 100, 80, 120, 90, 110, 100}, "unresolved", "~"},
	}
	for _, c := range cases {
		if got := judge(c.m, bySeedFrom(c.old), bySeedFrom(c.cur)); got != c.wantVerd {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.wantVerd)
		}
		unbounded := c.m
		unbounded.Bound = nil
		if got := judge(unbounded, bySeedFrom(c.old), bySeedFrom(c.cur)); got != c.wantNoBnd {
			t.Errorf("%s without a bound: verdict %q, want %q", c.name, got, c.wantNoBnd)
		}
	}
}

func TestWinsPairsRunsBySeed(t *testing.T) {
	lower := func(x, y float64) bool { return x < y }
	old := map[int64]float64{1: 10, 2: 20, 3: 30, 4: 40, 5: 50, 6: 60, 7: 70, 8: 80, 9: 90, 10: 100}
	// Seed 1 is missing on the new side and seed 11 is extra; paired by
	// position instead of by seed, every new run would face the old run of
	// the previous seed and lose.
	cur := map[int64]float64{}
	for seed := int64(2); seed <= 11; seed++ {
		cur[seed] = float64(10*seed) - 1
	}
	if !wins(old, cur, lower) {
		t.Error("a change faster on all nine shared seeds does not win")
	}
	cur[5] = 51
	if wins(old, cur, lower) {
		t.Error("a change that loses one of nine shared seeds still wins")
	}
}

// writeRecord writes one result file under dir.
func writeRecord(t *testing.T, dir, name string, r map[string]any) {
	t.Helper()
	blob, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, name), blob, 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestRunRefusesResultsThatCannotBePaired(t *testing.T) {
	spec := filepath.Join(t.TempDir(), "BENCHMARK.json")
	if err := os.WriteFile(spec, []byte(`{"end_to_end":[{"name":"p50_ms","unit":"ms","better":"lower","bound":0.1}],"per_layer":[]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	rec := func(seed int64, seconds float64, smoke bool, p50 float64) map[string]any {
		return map[string]any{"workload": "rank-hot", "seed": seed, "trace": false, "seconds": seconds, "smoke": smoke,
			"correct": true, "metrics": map[string]any{"p50_ms": map[string]any{"value": p50, "unit": "ms"}}}
	}
	cases := []struct {
		name     string
		extra    map[string]any // one more new-side record
		wantCode int
		wantErr  string
	}{
		{"paired", nil, 0, ""},
		{"extra seed", rec(11, 15, false, 1), 0, ""},
		{"duplicate seed", rec(3, 15, false, 1), 2, "with seed 3"},
		{"smoke run", rec(11, 1, true, 1), 2, "-smoke"},
		{"other length", rec(11, 10, false, 1), 2, "10s phases"},
	}
	for _, c := range cases {
		root := t.TempDir()
		oldDir, newDir := filepath.Join(root, "old"), filepath.Join(root, "new")
		for seed := int64(1); seed <= 10; seed++ {
			writeRecord(t, oldDir, "o"+string(rune('a'+seed))+".json", rec(seed, 15, false, 1))
			writeRecord(t, newDir, "n"+string(rune('a'+seed))+".json", rec(seed, 15, false, 1))
		}
		if c.extra != nil {
			writeRecord(t, newDir, "zz.json", c.extra)
		}
		var stdout, stderr bytes.Buffer
		code := run([]string{"-benchmark", spec, oldDir, newDir}, &stdout, &stderr)
		if code != c.wantCode || !strings.Contains(stderr.String(), c.wantErr) {
			t.Errorf("%s: exit %d, stderr %q; want exit %d mentioning %q", c.name, code, stderr.String(), c.wantCode, c.wantErr)
		}
		if c.wantCode == 0 && !strings.Contains(stdout.String(), "within bound") {
			t.Errorf("%s: no verdict in\n%s", c.name, stdout.String())
		}
	}
}
