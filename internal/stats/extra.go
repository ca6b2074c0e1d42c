package stats

import (
	"fmt"
	"math"
)

// Kendall returns the Kendall τ-b rank correlation of the paired samples,
// handling ties in either variable. It is an alternative to Spearman for
// validating ranking quality; both should agree on direction.
func Kendall(x, y []float64) (float64, error) {
	if len(x) != len(y) {
		return 0, fmt.Errorf("stats: Kendall with %d and %d observations: %w", len(x), len(y), ErrLength)
	}
	n := len(x)
	if n == 0 {
		return 0, ErrEmpty
	}
	var concordant, discordant, tiesX, tiesY float64
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			dx := x[i] - x[j]
			dy := y[i] - y[j]
			switch {
			case dx == 0 && dy == 0:
				tiesX++
				tiesY++
			case dx == 0:
				tiesX++
			case dy == 0:
				tiesY++
			case dx*dy > 0:
				concordant++
			default:
				discordant++
			}
		}
	}
	den := math.Sqrt((concordant + discordant + tiesX) * (concordant + discordant + tiesY))
	if den == 0 {
		return 0, nil
	}
	return (concordant - discordant) / den, nil
}

// Histogram bins xs into n equal-width bins over [min, max] and returns
// the bin counts plus the bin edges (n+1 values).
func Histogram(xs []float64, n int) (counts []int, edges []float64, err error) {
	if len(xs) == 0 {
		return nil, nil, ErrEmpty
	}
	if n < 1 {
		return nil, nil, fmt.Errorf("stats: %d histogram bins", n)
	}
	lo, _ := Min(xs)
	hi, _ := Max(xs)
	if hi == lo {
		hi = lo + 1
	}
	counts = make([]int, n)
	edges = make([]float64, n+1)
	width := (hi - lo) / float64(n)
	for i := range edges {
		edges[i] = lo + float64(i)*width
	}
	for _, x := range xs {
		b := int((x - lo) / width)
		if b >= n {
			b = n - 1
		}
		if b < 0 {
			b = 0
		}
		counts[b]++
	}
	return counts, edges, nil
}
