package cluster

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// threeBlobs returns 3 well-separated 2-D clusters of size m each.
func threeBlobs(rng *rand.Rand, m int) ([][]float64, []int) {
	centers := [][]float64{{0, 0}, {10, 0}, {0, 10}}
	var pts [][]float64
	var labels []int
	for ci, c := range centers {
		for i := 0; i < m; i++ {
			pts = append(pts, []float64{c[0] + rng.NormFloat64()*0.5, c[1] + rng.NormFloat64()*0.5})
			labels = append(labels, ci)
		}
	}
	return pts, labels
}

// agreesWithLabels checks that a clustering is a relabelling of want.
func agreesWithLabels(assign, want []int, k int) bool {
	mapping := make(map[int]int)
	for i, a := range assign {
		if m, ok := mapping[a]; ok {
			if m != want[i] {
				return false
			}
		} else {
			mapping[a] = want[i]
		}
	}
	seen := make(map[int]bool)
	for _, v := range mapping {
		if seen[v] {
			return false
		}
		seen[v] = true
	}
	return len(mapping) == k
}

func TestValidation(t *testing.T) {
	if _, err := PAM(nil, 1, nil, nil); !errors.Is(err, ErrNoPoints) {
		t.Fatalf("want ErrNoPoints, got %v", err)
	}
	pts := [][]float64{{1}, {2}}
	if _, err := PAM(pts, 0, nil, nil); !errors.Is(err, ErrBadK) {
		t.Fatalf("want ErrBadK, got %v", err)
	}
	if _, err := PAM(pts, 3, nil, nil); !errors.Is(err, ErrBadK) {
		t.Fatalf("want ErrBadK, got %v", err)
	}
	if _, err := PAM([][]float64{{1}, {1, 2}}, 1, nil, nil); err == nil {
		t.Fatal("want dim error")
	}
	if _, err := KMeans(nil, 1, nil, 0); !errors.Is(err, ErrNoPoints) {
		t.Fatalf("want ErrNoPoints, got %v", err)
	}
}

func TestPAMRecoversBlobs(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	pts, labels := threeBlobs(rng, 15)
	res, err := PAM(pts, 3, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !agreesWithLabels(res.Assign, labels, 3) {
		t.Fatalf("PAM assignment does not match blob structure: %v", res.Assign)
	}
	// Medoids must be members of their own clusters.
	for ci, m := range res.Medoids {
		if res.Assign[m] != ci {
			t.Fatalf("medoid %d assigned to cluster %d, expected %d", m, res.Assign[m], ci)
		}
	}
}

func TestPAMDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	pts, _ := threeBlobs(rng, 10)
	r1, err := PAM(pts, 3, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := PAM(pts, 3, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Cost != r2.Cost {
		t.Fatalf("PAM not deterministic: %v vs %v", r1.Cost, r2.Cost)
	}
	for i := range r1.Medoids {
		if r1.Medoids[i] != r2.Medoids[i] {
			t.Fatal("medoids differ between runs")
		}
	}
}

func TestPAMK1PicksCentralPoint(t *testing.T) {
	pts := [][]float64{{0}, {1}, {2}, {3}, {100}}
	res, err := PAM(pts, 1, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	// The 1-medoid minimises total distance; that is point {2} (index 2):
	// cost from 2: 2+1+0+1+98=102; from 3: 3+2+1+0+97=103.
	if res.Medoids[0] != 2 {
		t.Fatalf("1-medoid = %d, want 2", res.Medoids[0])
	}
}

func TestPAMKEqualsN(t *testing.T) {
	pts := [][]float64{{0}, {5}, {9}}
	res, err := PAM(pts, 3, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cost != 0 {
		t.Fatalf("k=n cost = %v, want 0", res.Cost)
	}
	seen := map[int]bool{}
	for _, m := range res.Medoids {
		seen[m] = true
	}
	if len(seen) != 3 {
		t.Fatalf("medoids not distinct: %v", res.Medoids)
	}
}

func TestKMeansRecoversBlobs(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	pts, labels := threeBlobs(rng, 15)
	res, err := KMeans(pts, 3, rand.New(rand.NewSource(4)), 100)
	if err != nil {
		t.Fatal(err)
	}
	if !agreesWithLabels(res.Assign, labels, 3) {
		t.Fatalf("KMeans assignment does not match blobs: %v", res.Assign)
	}
	for _, m := range res.Medoids {
		if m < 0 || m >= len(pts) {
			t.Fatalf("representative index %d out of range", m)
		}
	}
}

func TestEuclideanPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Euclidean([]float64{1}, []float64{1, 2})
}

// Property: PAM invariants — medoids distinct and valid, every point
// assigned to its nearest medoid, cost equals the induced assignment cost.
func TestPAMInvariantsProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	f := func(n8, k8 uint8) bool {
		n := int(n8%25) + 2
		k := int(k8)%n + 1
		pts := make([][]float64, n)
		for i := range pts {
			pts[i] = []float64{rng.NormFloat64(), rng.NormFloat64()}
		}
		res, err := PAM(pts, k, nil, nil)
		if err != nil {
			return false
		}
		seen := map[int]bool{}
		for _, m := range res.Medoids {
			if m < 0 || m >= n || seen[m] {
				return false
			}
			seen[m] = true
		}
		cost := 0.0
		for i, p := range pts {
			// Nearest medoid distance.
			bd := math.Inf(1)
			bi := -1
			for ci, m := range res.Medoids {
				if d := Euclidean(p, pts[m]); d < bd {
					bd, bi = d, ci
				}
			}
			// Allow ties: assigned medoid must be at the same distance.
			got := Euclidean(p, pts[res.Medoids[res.Assign[i]]])
			if got > bd+1e-9 {
				return false
			}
			_ = bi
			cost += got
		}
		return math.Abs(cost-res.Cost) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: PAM cost is non-increasing in k.
func TestPAMCostMonotoneInKProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	pts := make([][]float64, 20)
	for i := range pts {
		pts[i] = []float64{rng.NormFloat64() * 3, rng.NormFloat64() * 3}
	}
	prev := math.Inf(1)
	for k := 1; k <= 8; k++ {
		res, err := PAM(pts, k, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if res.Cost > prev+1e-9 {
			t.Fatalf("cost increased from %v to %v at k=%d", prev, res.Cost, k)
		}
		prev = res.Cost
	}
}
