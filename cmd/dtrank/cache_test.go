package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// seedCache computes one small spec into a fresh cache dir.
func seedCache(t *testing.T) string {
	t.Helper()
	dir := filepath.Join(t.TempDir(), "cache")
	if err := runRun([]string{"-spec", "table3", "-cache", dir, "-fast", "-draws", "2", "-maxk", "3"}); err != nil {
		t.Fatal(err)
	}
	return dir
}

func TestCacheLsAndVerify(t *testing.T) {
	if testing.Short() {
		t.Skip("pipeline run in -short mode")
	}
	dir := seedCache(t)
	out := captureStdout(t, func() {
		if err := runCache([]string{"ls", "-cache", dir}); err != nil {
			t.Fatal(err)
		}
	})
	for _, want := range []string{"snapshot", "table3", "NN^T", "fast", "0 damaged"} {
		if !strings.Contains(out, want) {
			t.Fatalf("cache ls output missing %q:\n%s", want, out)
		}
	}
	out = captureStdout(t, func() {
		if err := runCache([]string{"verify", "-cache", dir}); err != nil {
			t.Fatal(err)
		}
	})
	if !strings.Contains(out, "9 entries verified, 0 damaged") {
		t.Fatalf("cache verify output:\n%s", out)
	}

	// Damage one entry: verify must report it and fail.
	entries, err := filepath.Glob(filepath.Join(dir, "*.dtr"))
	if err != nil || len(entries) == 0 {
		t.Fatalf("no entries (%v)", err)
	}
	if err := os.WriteFile(entries[0], []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	captureStdout(t, func() {
		if err := runCache([]string{"verify", "-cache", dir}); err == nil {
			t.Error("verify of damaged cache must fail")
		}
	})
}

func TestCachePrune(t *testing.T) {
	if testing.Short() {
		t.Skip("pipeline run in -short mode")
	}
	dir := seedCache(t)
	// A second snapshot (different seed ⇒ different recipe fingerprint).
	if err := runRun([]string{"-spec", "table3", "-cache", dir, "-fast", "-draws", "2", "-maxk", "3", "-seed", "2"}); err != nil {
		t.Fatal(err)
	}
	entries, err := filepath.Glob(filepath.Join(dir, "*.dtr"))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 18 {
		t.Fatalf("%d entries, want 18", len(entries))
	}
	// Everything is fresh, so an age-bounded prune removes nothing.
	out := captureStdout(t, func() {
		if err := runCache([]string{"prune", "-cache", dir, "-max-age", "24h"}); err != nil {
			t.Fatal(err)
		}
	})
	if !strings.Contains(out, "removed 0 entries") {
		t.Fatalf("fresh prune output:\n%s", out)
	}
	// keep-latest-1 drops one whole snapshot (9 entries), dry-run first.
	out = captureStdout(t, func() {
		if err := runCache([]string{"prune", "-cache", dir, "-keep", "1", "-dry-run"}); err != nil {
			t.Fatal(err)
		}
	})
	if !strings.Contains(out, "would remove 9 entries of 1 snapshots") {
		t.Fatalf("dry-run output:\n%s", out)
	}
	if left, _ := filepath.Glob(filepath.Join(dir, "*.dtr")); len(left) != 18 {
		t.Fatalf("dry run deleted files: %d left", len(left))
	}
	out = captureStdout(t, func() {
		if err := runCache([]string{"prune", "-cache", dir, "-keep", "1"}); err != nil {
			t.Fatal(err)
		}
	})
	if !strings.Contains(out, "removed 9 entries of 1 snapshots") {
		t.Fatalf("prune output:\n%s", out)
	}
	if left, _ := filepath.Glob(filepath.Join(dir, "*.dtr")); len(left) != 9 {
		t.Fatalf("%d entries left, want 9", len(left))
	}

	if err := runCache([]string{"prune", "-cache", dir}); err == nil {
		t.Fatal("prune without criterion must fail")
	}
	if err := runCache([]string{"bogus"}); err == nil {
		t.Fatal("unknown subcommand must fail")
	}
}
