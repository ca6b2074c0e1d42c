// Package cluster implements k-medoids (PAM) and k-means clustering with
// silhouette scoring. The paper selects predictive machines as the medoids
// of the machine population in benchmark-score space (Figure 8), so PAM is
// the load-bearing algorithm here; k-means is provided for comparison and
// ablation.
package cluster

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
)

// ErrNoPoints is returned when the input set is empty.
var ErrNoPoints = errors.New("cluster: no points")

// ErrBadK is returned when k is out of the valid range [1, len(points)].
var ErrBadK = errors.New("cluster: k out of range")

// Distance computes the dissimilarity of two equal-length vectors.
type Distance func(a, b []float64) float64

// Euclidean is the default distance.
func Euclidean(a, b []float64) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("cluster: distance between vectors of lengths %d and %d", len(a), len(b)))
	}
	s := 0.0
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return math.Sqrt(s)
}

// Result describes a clustering of n points into k clusters.
type Result struct {
	// Medoids (PAM) or centroid-nearest points (k-means) — indices into the
	// input point set, one per cluster.
	Medoids []int
	// Assign maps each point index to its cluster number in [0, k).
	Assign []int
	// Cost is the total distance of points to their cluster representative.
	Cost float64
	// Iterations actually performed until convergence.
	Iterations int
}

// distMatrix precomputes all pairwise distances.
func distMatrix(points [][]float64, dist Distance) [][]float64 {
	n := len(points)
	d := make([][]float64, n)
	for i := range d {
		d[i] = make([]float64, n)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			v := dist(points[i], points[j])
			d[i][j] = v
			d[j][i] = v
		}
	}
	return d
}

func validate(points [][]float64, k int) error {
	if len(points) == 0 {
		return ErrNoPoints
	}
	if k < 1 || k > len(points) {
		return fmt.Errorf("cluster: k = %d with %d points: %w", k, len(points), ErrBadK)
	}
	dim := len(points[0])
	for i, p := range points {
		if len(p) != dim {
			return fmt.Errorf("cluster: point %d has %d dims, want %d", i, len(p), dim)
		}
	}
	return nil
}

// PAM runs Partitioning Around Medoids: a BUILD phase that greedily seeds k
// medoids, then SWAP iterations that exchange a medoid with a non-medoid
// whenever that lowers total cost, until no improving swap exists.
//
// PAM is deterministic for fixed input: seeding is greedy, not random; rng
// is only used to break exact ties (pass nil for first-index tie-breaking).
func PAM(points [][]float64, k int, dist Distance, rng *rand.Rand) (*Result, error) {
	if err := validate(points, k); err != nil {
		return nil, err
	}
	if dist == nil {
		dist = Euclidean
	}
	n := len(points)
	d := distMatrix(points, dist)

	isMedoid := make([]bool, n)
	medoids := make([]int, 0, k)

	// BUILD: first medoid minimises total distance to all points.
	best, bestCost := -1, math.Inf(1)
	for i := 0; i < n; i++ {
		c := 0.0
		for j := 0; j < n; j++ {
			c += d[i][j]
		}
		if c < bestCost {
			best, bestCost = i, c
		}
	}
	medoids = append(medoids, best)
	isMedoid[best] = true

	// nearest[i] = distance of point i to its closest medoid so far.
	nearest := make([]float64, n)
	for i := range nearest {
		nearest[i] = d[i][best]
	}
	for len(medoids) < k {
		bestGain, bestIdx := math.Inf(-1), -1
		for c := 0; c < n; c++ {
			if isMedoid[c] {
				continue
			}
			gain := 0.0
			for j := 0; j < n; j++ {
				if d[j][c] < nearest[j] {
					gain += nearest[j] - d[j][c]
				}
			}
			if gain > bestGain {
				bestGain, bestIdx = gain, c
			}
		}
		medoids = append(medoids, bestIdx)
		isMedoid[bestIdx] = true
		for j := 0; j < n; j++ {
			if d[j][bestIdx] < nearest[j] {
				nearest[j] = d[j][bestIdx]
			}
		}
	}

	assign := make([]int, n)
	cost := assignAll(d, medoids, assign)

	// SWAP phase.
	const maxIter = 200
	iter := 0
	for ; iter < maxIter; iter++ {
		improved := false
		for mi := 0; mi < k; mi++ {
			for c := 0; c < n; c++ {
				if isMedoid[c] {
					continue
				}
				trial := append([]int(nil), medoids...)
				trial[mi] = c
				trialAssign := make([]int, n)
				trialCost := assignAll(d, trial, trialAssign)
				if trialCost < cost-1e-12 {
					isMedoid[medoids[mi]] = false
					isMedoid[c] = true
					medoids = trial
					assign = trialAssign
					cost = trialCost
					improved = true
				}
			}
		}
		if !improved {
			break
		}
	}
	_ = rng // reserved for tie-breaking extensions; PAM itself is deterministic
	return &Result{Medoids: medoids, Assign: assign, Cost: cost, Iterations: iter + 1}, nil
}

// assignAll assigns every point to its nearest representative (by index into
// d) and returns the total cost. assign must have length n.
func assignAll(d [][]float64, reps []int, assign []int) float64 {
	cost := 0.0
	for j := range assign {
		bi, bd := 0, d[j][reps[0]]
		for ri := 1; ri < len(reps); ri++ {
			if dd := d[j][reps[ri]]; dd < bd {
				bi, bd = ri, dd
			}
		}
		assign[j] = bi
		cost += bd
	}
	return cost
}

// KMeans runs Lloyd's algorithm with k-means++ seeding. The returned
// Result.Medoids holds, for API symmetry with PAM, the index of the point
// nearest to each final centroid.
func KMeans(points [][]float64, k int, rng *rand.Rand, maxIter int) (*Result, error) {
	if err := validate(points, k); err != nil {
		return nil, err
	}
	if rng == nil {
		rng = rand.New(rand.NewSource(1))
	}
	if maxIter <= 0 {
		maxIter = 100
	}
	n, dim := len(points), len(points[0])

	// k-means++ seeding.
	centroids := make([][]float64, 0, k)
	first := rng.Intn(n)
	centroids = append(centroids, append([]float64(nil), points[first]...))
	minD2 := make([]float64, n)
	for i := range minD2 {
		di := Euclidean(points[i], centroids[0])
		minD2[i] = di * di
	}
	for len(centroids) < k {
		total := 0.0
		for _, v := range minD2 {
			total += v
		}
		var next int
		if total == 0 {
			next = rng.Intn(n)
		} else {
			r := rng.Float64() * total
			acc := 0.0
			next = n - 1
			for i, v := range minD2 {
				acc += v
				if acc >= r {
					next = i
					break
				}
			}
		}
		centroids = append(centroids, append([]float64(nil), points[next]...))
		for i := range minD2 {
			di := Euclidean(points[i], centroids[len(centroids)-1])
			if d2 := di * di; d2 < minD2[i] {
				minD2[i] = d2
			}
		}
	}

	assign := make([]int, n)
	iter := 0
	for ; iter < maxIter; iter++ {
		changed := false
		for i, p := range points {
			bi, bd := 0, math.Inf(1)
			for ci, c := range centroids {
				if dd := Euclidean(p, c); dd < bd {
					bi, bd = ci, dd
				}
			}
			if assign[i] != bi {
				assign[i] = bi
				changed = true
			}
		}
		if !changed && iter > 0 {
			break
		}
		// Recompute centroids; empty clusters keep their previous centroid.
		sums := make([][]float64, k)
		counts := make([]int, k)
		for ci := range sums {
			sums[ci] = make([]float64, dim)
		}
		for i, p := range points {
			counts[assign[i]]++
			for j, v := range p {
				sums[assign[i]][j] += v
			}
		}
		for ci := range centroids {
			if counts[ci] == 0 {
				continue
			}
			for j := range centroids[ci] {
				centroids[ci][j] = sums[ci][j] / float64(counts[ci])
			}
		}
	}

	// Representative points and final cost.
	medoids := make([]int, k)
	for ci := range centroids {
		bi, bd := 0, math.Inf(1)
		for i, p := range points {
			if dd := Euclidean(p, centroids[ci]); dd < bd {
				bi, bd = i, dd
			}
		}
		medoids[ci] = bi
	}
	cost := 0.0
	for i, p := range points {
		cost += Euclidean(p, centroids[assign[i]])
	}
	return &Result{Medoids: medoids, Assign: assign, Cost: cost, Iterations: iter + 1}, nil
}
