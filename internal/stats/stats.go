// Package stats provides the descriptive statistics, correlation measures
// and error metrics used throughout the data-transposition methodology:
// Pearson and Spearman correlation (with average-rank tie handling), ranking
// utilities, coefficient of determination R², and the paper's accuracy
// metrics (relative prediction error and top-1 deficiency).
package stats

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"repro/internal/lanes"
)

// ErrEmpty is returned for operations that need at least one observation.
var ErrEmpty = errors.New("stats: empty sample")

// ErrLength is returned when paired samples have different lengths.
var ErrLength = errors.New("stats: mismatched sample lengths")

// Mean returns the arithmetic mean of xs. It returns 0 for an empty sample.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Variance returns the unbiased (n−1) sample variance.
// It returns 0 for samples with fewer than two observations.
func Variance(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	s := 0.0
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return s / float64(len(xs)-1)
}

// StdDev returns the unbiased sample standard deviation.
func StdDev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// Min returns the smallest value in xs.
func Min(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m, nil
}

// Max returns the largest value in xs.
func Max(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m, nil
}

// ArgMax returns the index of the largest value in xs (first on ties).
func ArgMax(xs []float64) (int, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	best := 0
	for i, x := range xs {
		if x > xs[best] {
			best = i
		}
	}
	return best, nil
}

// GeoMean returns the geometric mean of a sample of positive values.
// SPEC aggregate ratios are geometric means, so dataset summaries use this.
func GeoMean(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	s := 0.0
	for _, x := range xs {
		if x <= 0 {
			return 0, fmt.Errorf("stats: GeoMean requires positive values, got %v", x)
		}
		s += math.Log(x)
	}
	return lanes.Exp(s / float64(len(xs))), nil
}

// Pearson returns the Pearson product-moment correlation coefficient of the
// paired samples x and y. It returns 0 when either sample has zero variance.
func Pearson(x, y []float64) (float64, error) {
	if len(x) != len(y) {
		return 0, fmt.Errorf("stats: Pearson with %d and %d observations: %w", len(x), len(y), ErrLength)
	}
	if len(x) == 0 {
		return 0, ErrEmpty
	}
	mx, my := Mean(x), Mean(y)
	var sxy, sxx, syy float64
	for i := range x {
		dx, dy := x[i]-mx, y[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return 0, nil
	}
	return sxy / math.Sqrt(sxx*syy), nil
}

// Ranks returns the fractional (average) ranks of xs, 1-based: the smallest
// value gets rank 1; ties share the average of the ranks they span. This is
// the standard tie treatment for the Spearman coefficient.
func Ranks(xs []float64) []float64 {
	n := len(xs)
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return xs[idx[a]] < xs[idx[b]] })
	ranks := make([]float64, n)
	for i := 0; i < n; {
		j := i
		for j+1 < n && xs[idx[j+1]] == xs[idx[i]] {
			j++
		}
		// Positions i..j (0-based) share the average rank.
		avg := float64(i+j)/2 + 1
		for k := i; k <= j; k++ {
			ranks[idx[k]] = avg
		}
		i = j + 1
	}
	return ranks
}

// Spearman returns the Spearman rank correlation coefficient of the paired
// samples x and y, using average ranks for ties (i.e. the Pearson
// correlation of the rank vectors).
func Spearman(x, y []float64) (float64, error) {
	if len(x) != len(y) {
		return 0, fmt.Errorf("stats: Spearman with %d and %d observations: %w", len(x), len(y), ErrLength)
	}
	if len(x) == 0 {
		return 0, ErrEmpty
	}
	return Pearson(Ranks(x), Ranks(y))
}

// RSquared returns the coefficient of determination of predictions pred
// against observations obs: 1 − SS_res/SS_tot. It can be negative for models
// worse than predicting the mean. A zero-variance observation vector yields
// R² = 0.
func RSquared(obs, pred []float64) (float64, error) {
	if len(obs) != len(pred) {
		return 0, fmt.Errorf("stats: RSquared with %d and %d observations: %w", len(obs), len(pred), ErrLength)
	}
	if len(obs) == 0 {
		return 0, ErrEmpty
	}
	m := Mean(obs)
	var ssRes, ssTot float64
	for i := range obs {
		r := obs[i] - pred[i]
		d := obs[i] - m
		ssRes += r * r
		ssTot += d * d
	}
	if ssTot == 0 {
		return 0, nil
	}
	return 1 - ssRes/ssTot, nil
}

// MAPE returns the mean absolute percentage error of pred against obs, in
// percent. Observations equal to zero are rejected.
func MAPE(obs, pred []float64) (float64, error) {
	if len(obs) != len(pred) {
		return 0, fmt.Errorf("stats: MAPE with %d and %d observations: %w", len(obs), len(pred), ErrLength)
	}
	if len(obs) == 0 {
		return 0, ErrEmpty
	}
	s := 0.0
	for i := range obs {
		if obs[i] == 0 {
			return 0, fmt.Errorf("stats: MAPE with zero observation at index %d", i)
		}
		s += math.Abs(pred[i]-obs[i]) / math.Abs(obs[i])
	}
	return 100 * s / float64(len(obs)), nil
}

// Top1Deficiency quantifies the loss from purchasing the machine the
// prediction ranks first instead of the truly best machine, in percent:
//
//	100 · (perf(actual best) − perf(predicted best)) / perf(predicted best)
//
// where both performances are the *measured* values. A deficiency of 0 means
// the prediction identified a genuinely optimal machine. The paper calls
// this the "top-1 error".
func Top1Deficiency(obs, pred []float64) (float64, error) {
	if len(obs) != len(pred) {
		return 0, fmt.Errorf("stats: Top1Deficiency with %d and %d observations: %w", len(obs), len(pred), ErrLength)
	}
	if len(obs) == 0 {
		return 0, ErrEmpty
	}
	bestActual, err := Max(obs)
	if err != nil {
		return 0, err
	}
	iPred, err := ArgMax(pred)
	if err != nil {
		return 0, err
	}
	chosen := obs[iPred]
	if chosen <= 0 {
		return 0, fmt.Errorf("stats: Top1Deficiency with non-positive chosen performance %v", chosen)
	}
	return 100 * (bestActual - chosen) / chosen, nil
}
