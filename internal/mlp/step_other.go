//go:build !amd64

package mlp

// step4 and step2 run the multi-unit training steps in Go on every
// GOARCH without an assembly kernel.
func step4(w, dw, in, next []float64, grad *[4]float64, mu float64, sums *[4]float64) {
	step4Go(w, dw, in, next, grad, mu, sums)
}

func step2(w, dw, in, next []float64, grad *[2]float64, mu float64, sums *[2]float64) {
	step2Go(w, dw, in, next, grad, mu, sums)
}
