//go:build amd64

package mlp

// step4 and step2 are step4Go and step2Go in SSE2 assembly, part of the
// amd64 baseline, so they need no CPU feature check. They update two k
// at a time: each packed MULPD/ADDPD lane is the IEEE operation the
// scalar code does on the same operands, there is no FMA, and each
// unit's sum still adds its products one at a time (scalar ADDSD) in
// ascending k, so the results are bit-identical to the Go kernels'.
//
//go:noescape
func step4(w, dw, in, next []float64, grad *[4]float64, mu float64, sums *[4]float64)

//go:noescape
func step2(w, dw, in, next []float64, grad *[2]float64, mu float64, sums *[2]float64)
