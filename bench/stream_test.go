package main

import (
	"bytes"
	"encoding/json"
	"math"
	"sync"
	"testing"

	"repro/internal/serve"
)

var (
	testUniverseOnce sync.Once
	testUniverse     *universe
	testUniverseErr  error
)

func universeForTest(t *testing.T) *universe {
	t.Helper()
	testUniverseOnce.Do(func() { testUniverse, testUniverseErr = newUniverse() })
	if testUniverseErr != nil {
		t.Fatal(testUniverseErr)
	}
	return testUniverse
}

func TestStreamsAreDeterministicPerSeed(t *testing.T) {
	u := universeForTest(t)
	streams := map[string]func(seed int64) stream{
		"rank-hot":   func(seed int64) stream { return newHotStream(u, seed, 5, 6) },
		"rank-fresh": func(seed int64) stream { return newFreshStream(u, seed, len(u.families)) },
		"rank-cold":  func(seed int64) stream { return newColdStream(u, seed, 20) },
	}
	for name, mk := range streams {
		a, b, c := mk(7), mk(7), mk(8)
		differs := false
		for i := int64(0); i < 300; i++ {
			ra, rb, rc := a.at(i), b.at(i), c.at(i)
			if !bytes.Equal(ra.body, rb.body) || ra.inm != rb.inm || ra.shape != rb.shape {
				t.Fatalf("%s: request %d differs between two streams of seed 7", name, i)
			}
			if !bytes.Equal(ra.body, rc.body) || ra.inm != rc.inm {
				differs = true
			}
		}
		if !differs {
			t.Errorf("%s: seeds 7 and 8 give the same first 300 requests", name)
		}
	}
}

func TestHotStreamShapesAndRevalidations(t *testing.T) {
	s := newHotStream(universeForTest(t), 1, 5, 6)
	if len(s.shapes) != 90 {
		t.Fatalf("got %d shapes, want 90", len(s.shapes))
	}
	const n = 20000
	inm, seen := 0, map[int]bool{}
	for i := int64(0); i < n; i++ {
		r := s.at(i)
		seen[r.shape] = true
		if r.inm {
			inm++
		}
	}
	if share := float64(inm) / n; math.Abs(share-hotINM) > 0.01 {
		t.Errorf("If-None-Match share %.3f, want about %.2f", share, hotINM)
	}
	if len(seen) < 80 {
		t.Errorf("only %d of 90 shapes requested in %d requests", len(seen), n)
	}
}

func TestColdStreamNeverRepeatsAShape(t *testing.T) {
	u := universeForTest(t)
	s := newColdStream(u, 3, 0)
	keys := len(u.families) * len(u.apps) * len(coldMethods)
	type shape struct {
		family, app, method string
		top                 int
	}
	seen := map[shape]bool{}
	for i := int64(0); i < int64(3*keys); i++ {
		var req serve.RankRequest
		if err := json.Unmarshal(s.at(i).body, &req); err != nil {
			t.Fatal(err)
		}
		k := shape{req.Family, req.App, req.Method, req.Top}
		if seen[k] {
			t.Fatalf("request %d repeats %+v", i, k)
		}
		seen[k] = true
	}
}

func TestFreshScoresArePositiveAndModelsFitTheRegistry(t *testing.T) {
	u := universeForTest(t)
	s := newFreshStream(u, 5, len(u.families))
	models := map[[2]string]bool{}
	for i := int64(0); i < 2000; i++ {
		var req serve.RankRequest
		if err := json.Unmarshal(s.at(i).body, &req); err != nil {
			t.Fatal(err)
		}
		_, pred, err := u.data.Matrix.FamilySplit(req.Family)
		if err != nil {
			t.Fatal(err)
		}
		if len(req.Scores) != pred.NumMachines() {
			t.Fatalf("request %d: %d scores for %d predictive machines", i, len(req.Scores), pred.NumMachines())
		}
		for _, v := range req.Scores {
			if math.IsNaN(v) || math.IsInf(v, 0) || v <= 0 {
				t.Fatalf("request %d: score %v is not finite and positive", i, v)
			}
		}
		models[[2]string{req.Family, req.Method}] = true
	}
	if len(models) > serve.DefaultMaxModels {
		t.Errorf("stream uses %d models, more than the registry holds (%d)", len(models), serve.DefaultMaxModels)
	}
	if want := len(u.families) * len(freshMethods); len(models) != want || len(s.warmup()) != want {
		t.Errorf("stream uses %d models and warms %d, want %d", len(models), len(s.warmup()), want)
	}
}
