// Package la provides the dense linear-algebra substrate used by the
// regression and neural-network models: matrices, vectors, linear solves
// and Householder-QR least squares.
//
// The package is deliberately small and dependency-free (stdlib only). All
// matrices are dense, row-major float64, each backed by one flat slice of
// its own; RowView exposes a row without copying. Operations that can
// fail (shape mismatches, singular systems) return errors rather than
// panicking, except for index accessors, which panic on out-of-range
// indices like built-in slices do.
package la

import (
	"errors"
	"fmt"
)

// ErrShape is returned when operand dimensions are incompatible.
var ErrShape = errors.New("la: incompatible matrix shapes")

// ErrSingular is returned when a linear system has no unique solution.
var ErrSingular = errors.New("la: matrix is singular to working precision")

// Matrix is a dense row-major matrix of float64 values. Row i occupies
// data[i*cols : (i+1)*cols].
type Matrix struct {
	rows, cols int
	data       []float64 // row-major backing; len == rows*cols
}

// NewMatrix returns a zero-initialised rows×cols matrix.
// It panics if rows or cols is negative.
func NewMatrix(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("la: NewMatrix(%d, %d): negative dimension", rows, cols))
	}
	return &Matrix{rows: rows, cols: cols, data: make([]float64, rows*cols)}
}

// At returns the element at row i, column j.
func (m *Matrix) At(i, j int) float64 {
	m.check(i, j)
	return m.data[i*m.cols+j]
}

// Set assigns v to the element at row i, column j.
func (m *Matrix) Set(i, j int, v float64) {
	m.check(i, j)
	m.data[i*m.cols+j] = v
}

// Add adds v to the element at row i, column j.
func (m *Matrix) Add(i, j int, v float64) {
	m.check(i, j)
	m.data[i*m.cols+j] += v
}

func (m *Matrix) check(i, j int) {
	if i < 0 || i >= m.rows || j < 0 || j >= m.cols {
		panic(fmt.Sprintf("la: index (%d, %d) out of range for %d×%d matrix", i, j, m.rows, m.cols))
	}
}

// row returns the aliasing slice of row i without copying.
func (m *Matrix) row(i int) []float64 {
	return m.data[i*m.cols : (i+1)*m.cols]
}

// RowView returns row i as a slice aliasing the matrix storage: writes to
// the slice write through to the matrix. The slice stays valid for the
// lifetime of the backing array.
func (m *Matrix) RowView(i int) []float64 {
	if i < 0 || i >= m.rows {
		panic(fmt.Sprintf("la: row %d out of range for %d×%d matrix", i, m.rows, m.cols))
	}
	return m.row(i)
}

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	out := NewMatrix(m.rows, m.cols)
	copy(out.data, m.data)
	return out
}

// T returns the transpose of m as a new matrix.
func (m *Matrix) T() *Matrix {
	out := NewMatrix(m.cols, m.rows)
	_ = m.TInto(out)
	return out
}

// mulBlock is the tile edge of the blocked kernel: three 64×64 float64
// tiles (96 KiB) stay resident in L2 while the inner loops stream.
const mulBlock = 64

// Mul returns the matrix product m·b through a blocked, cache-friendly
// kernel; each output element accumulates in ascending-k order
// regardless of blocking, so the result is bitwise identical to a plain
// ikj loop.
func (m *Matrix) Mul(b *Matrix) (*Matrix, error) {
	if m.cols != b.rows {
		return nil, fmt.Errorf("la: Mul %d×%d by %d×%d: %w", m.rows, m.cols, b.rows, b.cols, ErrShape)
	}
	out := NewMatrix(m.rows, b.cols)
	if err := m.MulInto(out, b); err != nil {
		return nil, err
	}
	return out, nil
}

// MulInto computes m·b into dst, reusing dst's storage instead of
// allocating a result — the scratch-pooling hook of fits that multiply
// per candidate. dst must be (m's rows)×(b's columns) and must not alias m or
// b; previous contents are overwritten. Mul runs through it, so results
// are bitwise identical.
func (m *Matrix) MulInto(dst, b *Matrix) error {
	if m.cols != b.rows {
		return fmt.Errorf("la: MulInto %d×%d by %d×%d: %w", m.rows, m.cols, b.rows, b.cols, ErrShape)
	}
	if dst.rows != m.rows || dst.cols != b.cols {
		return fmt.Errorf("la: MulInto destination %d×%d for %d×%d product: %w",
			dst.rows, dst.cols, m.rows, b.cols, ErrShape)
	}
	for i := 0; i < dst.rows; i++ {
		row := dst.row(i)
		for j := range row {
			row[j] = 0
		}
	}
	// Tile k and j for cache locality. For every output element the k
	// contributions accumulate in ascending order (k blocks ascending, k
	// ascending within a block), the same order as a plain ikj loop,
	// keeping results bitwise stable.
	for k0 := 0; k0 < m.cols; k0 += mulBlock {
		k1 := min(k0+mulBlock, m.cols)
		for j0 := 0; j0 < b.cols; j0 += mulBlock {
			j1 := min(j0+mulBlock, b.cols)
			for i := 0; i < m.rows; i++ {
				mrow := m.row(i)
				orow := dst.data[i*dst.cols+j0 : i*dst.cols+j1]
				for k := k0; k < k1; k++ {
					mv := mrow[k]
					if mv == 0 {
						continue
					}
					brow := b.data[k*b.cols+j0 : k*b.cols+j1]
					for j, bv := range brow {
						orow[j] += mv * bv
					}
				}
			}
		}
	}
	return nil
}

// MulVec returns the matrix-vector product m·v.
func (m *Matrix) MulVec(v []float64) ([]float64, error) {
	if m.cols != len(v) {
		return nil, fmt.Errorf("la: MulVec %d×%d by vector of length %d: %w", m.rows, m.cols, len(v), ErrShape)
	}
	out := make([]float64, m.rows)
	_ = m.MulVecInto(out, v)
	return out, nil
}
