package la

import "fmt"

// This file holds the allocation-free forms the spline fit runs on per
// candidate: reshaped scratch matrices, the in-place transpose and the
// in-place GEMV. The allocating T and MulVec run through them, so both
// forms give the same bits.

// ReuseMatrix returns a rows×cols matrix backed by m's storage when m is
// non-nil, owns its backing and has capacity for the new shape;
// otherwise it allocates. Contents are unspecified — callers must
// overwrite every element (or use an overwriting kernel such as MulInto).
// It is the scratch-pooling hook for fit kernels that run millions of
// small factorisations: hold one matrix per scratch slot and reshape it
// per unit instead of allocating per unit.
func ReuseMatrix(m *Matrix, rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("la: ReuseMatrix(%d, %d): negative dimension", rows, cols))
	}
	n := rows * cols
	if m == nil || m.stride != m.cols || cap(m.data) < n {
		return NewMatrix(rows, cols)
	}
	m.rows, m.cols, m.stride = rows, cols, cols
	m.data = m.data[:n]
	return m
}

// TInto writes the transpose of m into dst, which must be
// m.Cols()×m.Rows() and must not alias m. T runs through it.
func (m *Matrix) TInto(dst *Matrix) error {
	if dst.rows != m.cols || dst.cols != m.rows {
		return fmt.Errorf("la: TInto destination %d×%d for %d×%d transpose: %w",
			dst.rows, dst.cols, m.rows, m.cols, ErrShape)
	}
	for i := 0; i < m.rows; i++ {
		row := m.row(i)
		for j, v := range row {
			dst.data[j*dst.stride+i] = v
		}
	}
	return nil
}

// MulVecInto computes m·v into dst without allocating: each element
// accumulates its row's terms in ascending order. dst must have length
// m.Rows() and must not alias v. MulVec runs through it.
func (m *Matrix) MulVecInto(dst, v []float64) error {
	if m.cols != len(v) {
		return fmt.Errorf("la: MulVecInto %d×%d by vector of length %d: %w", m.rows, m.cols, len(v), ErrShape)
	}
	if len(dst) != m.rows {
		return fmt.Errorf("la: MulVecInto destination length %d for %d rows: %w", len(dst), m.rows, ErrShape)
	}
	for i := 0; i < m.rows; i++ {
		row := m.row(i)
		s := 0.0
		for j, rv := range row {
			s += rv * v[j]
		}
		dst[i] = s
	}
	return nil
}
