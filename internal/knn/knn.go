// Package knn holds the neighbour selection shared by the k-nearest-
// neighbour predictors: the GA-kNN baseline (benchmarks nearest the
// application in weighted workload-characteristic space) and kNN^M
// (predictive machines nearest each target in score space). GA-kNN's
// weight-learning fitness does not use it: it ranks all candidates of
// every benchmark at once with lanes.Ranks, which yields the same order.
package knn

// Neighbour is one training point with its distance from the query.
type Neighbour struct {
	Index    int
	Distance float64
}

// before reports whether a precedes b under (Distance, then Index). For
// finite distances and unique indices this is a strict total order; a
// NaN distance precedes nothing and nothing precedes it.
func (a Neighbour) before(b Neighbour) bool {
	return a.Distance < b.Distance || a.Distance == b.Distance && a.Index < b.Index
}

// Insert adds n to top, the k nearest neighbours seen so far, and returns
// the updated slice: at most k (k >= 1) entries, closest first under
// (Distance, then Index). Feeding every candidate through Insert yields
// the same prefix as sorting all candidates under that order and keeping
// the first k, because the order is total. With cap(top) >= k it
// allocates nothing. It picks a fitted GA-kNN model's neighbours and
// kNN^M's, not those of GA-kNN's fitness.
func Insert(top []Neighbour, k int, n Neighbour) []Neighbour {
	i := len(top)
	if i < k {
		top = append(top, n)
	} else if n.before(top[i-1]) {
		i--
	} else {
		return top
	}
	for ; i > 0 && n.before(top[i-1]); i-- {
		top[i] = top[i-1]
	}
	top[i] = n
	return top
}
