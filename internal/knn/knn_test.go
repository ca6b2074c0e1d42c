package knn

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// sortTruncate is the reference selection Insert replaces: sort every
// candidate by (Distance, Index) and keep the first k.
func sortTruncate(all []Neighbour, k int) []Neighbour {
	all = append([]Neighbour(nil), all...)
	slices.SortStableFunc(all, func(a, b Neighbour) int {
		if a.Distance != b.Distance {
			if a.Distance < b.Distance {
				return -1
			}
			return 1
		}
		return a.Index - b.Index
	})
	return all[:min(k, len(all))]
}

func selectAll(all []Neighbour, k int) []Neighbour {
	top := make([]Neighbour, 0, k)
	for _, n := range all {
		top = Insert(top, k, n)
	}
	return top
}

func sameNeighbours(a, b []Neighbour) bool {
	return slices.EqualFunc(a, b, func(x, y Neighbour) bool {
		return x.Index == y.Index && math.Float64bits(x.Distance) == math.Float64bits(y.Distance)
	})
}

func TestNeighboursOrderAndTies(t *testing.T) {
	// Distances 1, 0, 2, 0: the two zeros tie and break by index.
	all := []Neighbour{{0, 1}, {1, 0}, {2, 2}, {3, 0}}
	got := selectAll(all, 3)
	want := []Neighbour{{1, 0}, {3, 0}, {0, 1}}
	if !sameNeighbours(got, want) {
		t.Fatalf("neighbours = %+v, want %+v", got, want)
	}
	if got := selectAll(all, 10); len(got) != len(all) {
		t.Fatalf("k above the candidate count kept %d of %d", len(got), len(all))
	}
}

// TestInsertMatchesSortTruncate pins Insert to the reference selection
// on random candidate sets full of tied distances, fed in index order
// (how every caller feeds it) and shuffled.
func TestInsertMatchesSortTruncate(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 2000; trial++ {
		n := 1 + rng.Intn(40)
		k := 1 + rng.Intn(n+3)
		levels := 1 + rng.Intn(6) // few distinct distances: many ties
		all := make([]Neighbour, n)
		for i := range all {
			all[i] = Neighbour{Index: i, Distance: float64(rng.Intn(levels)) * 0.25}
		}
		want := sortTruncate(all, k)
		if got := selectAll(all, k); !sameNeighbours(got, want) {
			t.Fatalf("trial %d (n=%d k=%d): Insert %+v, sort-then-truncate %+v", trial, n, k, got, want)
		}
		rng.Shuffle(n, func(i, j int) { all[i], all[j] = all[j], all[i] })
		if got := selectAll(all, k); !sameNeighbours(got, want) {
			t.Fatalf("trial %d shuffled (n=%d k=%d): Insert %+v, sort-then-truncate %+v", trial, n, k, got, want)
		}
	}
}

func TestInsertAllocFree(t *testing.T) {
	top := make([]Neighbour, 0, 4)
	avg := testing.AllocsPerRun(100, func() {
		top = top[:0]
		for i := 0; i < 20; i++ {
			top = Insert(top, 4, Neighbour{Index: i, Distance: float64((i * 7) % 5)})
		}
	})
	if avg != 0 {
		t.Fatalf("Insert allocates %.1f objects per 20 candidates, want 0", avg)
	}
}
