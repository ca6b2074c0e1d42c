//go:build !amd64

package lanes

// Only amd64 has the assembly kernels; every other GOARCH runs the Go
// lane loops.
const hasAVX2FMA = false

func sigmoidAVX2([]float64) bool { panic("lanes: no assembly kernels on this GOARCH") }

func stepAVX2(w, dw []float64, stride int, in, next, d, b, db, s []float64, lr, mu float64) {
	panic("lanes: no assembly kernels on this GOARCH")
}

func distancesAVX2(diff, w, out []float64) { panic("lanes: no assembly kernels on this GOARCH") }

func ranksAVX2(d []float64, n int, r []int64) { panic("lanes: no assembly kernels on this GOARCH") }

func voteErrorsAVX2(near []float64, order []int64, s, w []float64, n, nb, k, stride, nt int, eps float64, rows int) (float64, bool) {
	panic("lanes: no assembly kernels on this GOARCH")
}
