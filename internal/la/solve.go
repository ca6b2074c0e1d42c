package la

import (
	"fmt"
	"math"
)

// Solve solves the square linear system A·x = b using Gaussian elimination
// with partial pivoting. A is not modified.
func Solve(a *Matrix, b []float64) ([]float64, error) {
	n := a.rows
	x := make([]float64, n)
	if err := SolveInto(x, a, b, NewMatrix(n, n+1)); err != nil {
		return nil, err
	}
	return x, nil
}

// SolveInto is Solve with caller-owned storage: the solution lands in x
// (length n) and the elimination works in aug, an n×(n+1) scratch matrix
// whose previous contents are overwritten (see ReuseMatrix for pooling
// it). aug must not alias a. The pivoting and elimination sequence is
// exactly Solve's, so results are bitwise identical.
func SolveInto(x []float64, a *Matrix, b []float64, aug *Matrix) error {
	n := a.rows
	if a.cols != n {
		return fmt.Errorf("la: Solve on %d×%d matrix: %w", a.rows, a.cols, ErrShape)
	}
	if len(b) != n {
		return fmt.Errorf("la: Solve rhs length %d, want %d: %w", len(b), n, ErrShape)
	}
	if len(x) != n {
		return fmt.Errorf("la: Solve solution length %d, want %d: %w", len(x), n, ErrShape)
	}
	if aug.rows != n || aug.cols != n+1 || aug.stride != n+1 {
		return fmt.Errorf("la: Solve scratch %d×%d, want %d×%d: %w", aug.rows, aug.cols, n, n+1, ErrShape)
	}
	// Work on the augmented scratch.
	for i := 0; i < n; i++ {
		copy(aug.data[i*(n+1):i*(n+1)+n], a.row(i))
		aug.data[i*(n+1)+n] = b[i]
	}
	for k := 0; k < n; k++ {
		// Partial pivot: find the largest |value| in column k at or below row k.
		p, pmax := k, math.Abs(aug.At(k, k))
		for i := k + 1; i < n; i++ {
			if a := math.Abs(aug.At(i, k)); a > pmax {
				p, pmax = i, a
			}
		}
		if pmax == 0 || math.IsNaN(pmax) {
			return fmt.Errorf("la: pivot %d: %w", k, ErrSingular)
		}
		if p != k {
			for j := k; j <= n; j++ {
				aug.data[k*(n+1)+j], aug.data[p*(n+1)+j] = aug.data[p*(n+1)+j], aug.data[k*(n+1)+j]
			}
		}
		pivot := aug.At(k, k)
		for i := k + 1; i < n; i++ {
			f := aug.At(i, k) / pivot
			if f == 0 {
				continue
			}
			for j := k; j <= n; j++ {
				aug.data[i*(n+1)+j] -= f * aug.data[k*(n+1)+j]
			}
		}
	}
	// Back substitution.
	for i := n - 1; i >= 0; i-- {
		s := aug.At(i, n)
		for j := i + 1; j < n; j++ {
			s -= aug.At(i, j) * x[j]
		}
		x[i] = s / aug.At(i, i)
		if math.IsNaN(x[i]) || math.IsInf(x[i], 0) {
			return fmt.Errorf("la: back-substitution row %d: %w", i, ErrSingular)
		}
	}
	return nil
}

// QR holds the compact Householder QR factorisation of an m×n matrix with
// m >= n: A = Q·R, Q orthonormal m×n (thin form), R upper-triangular n×n.
type QR struct {
	qr   *Matrix   // Householder vectors below the diagonal, R on and above
	tau  []float64 // Householder scalar factors
	m, n int
}

// NewQR computes the Householder QR factorisation of a. a is not modified.
// It requires a.Rows() >= a.Cols().
func NewQR(a *Matrix) (*QR, error) {
	m, n := a.rows, a.cols
	if m < n {
		return nil, fmt.Errorf("la: QR of %d×%d (needs rows >= cols): %w", m, n, ErrShape)
	}
	qr := a.Clone()
	tau := make([]float64, n)
	for k := 0; k < n; k++ {
		// Norm of column k at and below the diagonal.
		norm := 0.0
		for i := k; i < m; i++ {
			norm = math.Hypot(norm, qr.At(i, k))
		}
		if norm == 0 {
			tau[k] = 0
			continue
		}
		if qr.At(k, k) < 0 {
			norm = -norm
		}
		for i := k; i < m; i++ {
			qr.Set(i, k, qr.At(i, k)/norm)
		}
		qr.Set(k, k, qr.At(k, k)+1)
		tau[k] = qr.At(k, k)
		// Apply transformation to remaining columns.
		for j := k + 1; j < n; j++ {
			s := 0.0
			for i := k; i < m; i++ {
				s += qr.At(i, k) * qr.At(i, j)
			}
			s = -s / qr.At(k, k)
			for i := k; i < m; i++ {
				qr.Add(i, j, s*qr.At(i, k))
			}
		}
		qr.Set(k, k, -norm)
	}
	return &QR{qr: qr, tau: tau, m: m, n: n}, nil
}

// Solve returns the least-squares solution x minimising ‖A·x − b‖₂.
func (q *QR) Solve(b []float64) ([]float64, error) {
	if len(b) != q.m {
		return nil, fmt.Errorf("la: QR.Solve rhs length %d, want %d: %w", len(b), q.m, ErrShape)
	}
	// y = Qᵀ·b via the stored Householder vectors. The head of each vector
	// lives in tau[k] (the diagonal slot holds R's diagonal instead).
	y := make([]float64, q.m)
	copy(y, b)
	for k := 0; k < q.n; k++ {
		if q.tau[k] == 0 {
			continue
		}
		s := q.tau[k] * y[k]
		for i := k + 1; i < q.m; i++ {
			s += q.qr.At(i, k) * y[i]
		}
		s = -s / q.tau[k]
		y[k] += s * q.tau[k]
		for i := k + 1; i < q.m; i++ {
			y[i] += s * q.qr.At(i, k)
		}
	}
	// Back-substitute R·x = y[:n].
	x := make([]float64, q.n)
	for i := q.n - 1; i >= 0; i-- {
		d := q.qr.At(i, i)
		if d == 0 || math.IsNaN(d) {
			return nil, fmt.Errorf("la: rank-deficient column %d: %w", i, ErrSingular)
		}
		s := y[i]
		for j := i + 1; j < q.n; j++ {
			s -= q.qr.At(i, j) * x[j]
		}
		x[i] = s / d
	}
	return x, nil
}

// LeastSquares returns argmin_x ‖A·x − b‖₂ via Householder QR.
func LeastSquares(a *Matrix, b []float64) ([]float64, error) {
	qr, err := NewQR(a)
	if err != nil {
		return nil, err
	}
	return qr.Solve(b)
}
