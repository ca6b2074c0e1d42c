package gaknn

// testPairs is looError's pair table, refilled on every call; the tests
// call looError from one goroutine at a time.
var testPairs pairTable

// looError is the GA fitness of Fit for one genome, with the pair table
// built from zBench on each call instead of once per fit. Reusing one
// table keeps a warm evaluation allocation-free, as in Fit.
func (p *Predictor) looError(w []float64, zBench [][]float64, scores rowMajor) float64 {
	testPairs.fill(zBench, scores)
	return p.loo(w, &testPairs)
}
