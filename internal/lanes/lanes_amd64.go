//go:build amd64

package lanes

// hasAVX2 reports whether the CPU has AVX2 and the OS saves the YMM
// registers across context switches.
var hasAVX2 = func() bool {
	const (
		osxsave = 1 << 27 // CPUID.1:ECX
		avx     = 1 << 28
		avx2    = 1 << 5 // CPUID.(7,0):EBX
		ymm     = 6      // XCR0: SSE and AVX state
	)
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	_, _, ecx1, _ := cpuid(1, 0)
	if ecx1&(osxsave|avx) != osxsave|avx {
		return false
	}
	if xcr0, _ := xgetbv(); xcr0&ymm != ymm {
		return false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	return ebx7&avx2 != 0
}()

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)

// sigmoidAVX2 replaces x[i] with Sigmoid(x[i]) four lanes at a time;
// len(x) is a multiple of four. A lane outside ±expLimit, or NaN or
// ±Inf, keeps its input, and the call then returns true.
//
//go:noescape
func sigmoidAVX2(x []float64) (kept bool)

// stepAVX2 is Step for the len(b) = 4, 8, 12 or 16 units starting at
// w[0], with stride units in each k-major row of w and dw.
//
//go:noescape
func stepAVX2(w, dw []float64, stride int, in, next, d, b, db, s []float64, lr, mu float64)

// distancesAVX2 is Distances for len(w) >= 1.
//
//go:noescape
func distancesAVX2(diff, w, out []float64)

// ranksAVX2 is Ranks for n >= 4.
//
//go:noescape
func ranksAVX2(d []float64, n int, r []int64)

// voteErrorsAVX2 is VoteErrors for nb >= 1 over a score table of rows
// rows. It checks every neighbour index against rows before it reads
// the row, and returns ok = false, with no total, at the first outside.
//
//go:noescape
func voteErrorsAVX2(near []float64, order []int64, s, w []float64, n, nb, k, stride, nt int, eps float64, rows int) (total float64, ok bool)
