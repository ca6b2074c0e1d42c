package la

import (
	"fmt"

	"repro/internal/engine"
)

// This file holds the allocation-free kernel variants the fit hot path
// runs on: transposed-operand multiplies for weight matrices stored
// row-major (the natural layout of an MLP layer) and in-place GEMV
// forms. Every kernel accumulates each output element in a single
// ascending-index chain, so results are bitwise identical to the naive
// reference loops they replace (and are tested against).

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

// NewMatrixFromFlat wraps an existing row-major backing slice as a
// rows×cols matrix without copying: writes through the matrix write the
// slice and vice versa. len(data) must be exactly rows*cols.
func NewMatrixFromFlat(rows, cols int, data []float64) (*Matrix, error) {
	if rows < 0 || cols < 0 {
		return nil, fmt.Errorf("la: NewMatrixFromFlat(%d, %d): %w", rows, cols, ErrShape)
	}
	if len(data) != rows*cols {
		return nil, fmt.Errorf("la: NewMatrixFromFlat(%d, %d) over %d values: %w", rows, cols, len(data), ErrShape)
	}
	return &Matrix{rows: rows, cols: cols, stride: cols, data: data}, nil
}

// TInto writes the transpose of m into dst, which must be
// m.Cols()×m.Rows() and must not alias m. Identical element order to T.
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

// MulTInto computes m·bᵀ into dst, overwriting previous contents. m is
// r×k, b is c×k (its rows are the columns of the logical right operand),
// dst must be r×c and must not alias m or b. Both operands stream
// row-major, so this is the cache-friendly product for weight matrices
// stored one unit per row. Each output element accumulates its k terms
// in ascending order from zero — bitwise identical to the reference
// dot-product loop.
func (m *Matrix) MulTInto(dst, b *Matrix) error {
	if m.cols != b.cols {
		return fmt.Errorf("la: MulTInto %d×%d by (%d×%d)ᵀ: %w", m.rows, m.cols, b.rows, b.cols, ErrShape)
	}
	if dst.rows != m.rows || dst.cols != b.rows {
		return fmt.Errorf("la: MulTInto destination %d×%d for %d×%d product: %w",
			dst.rows, dst.cols, m.rows, b.rows, ErrShape)
	}
	for i := 0; i < dst.rows; i++ {
		row := dst.row(i)
		for j := range row {
			row[j] = 0
		}
	}
	return m.MulTAddInto(dst, b)
}

// MulTAddInto accumulates m·bᵀ onto dst's existing contents (dst += m·bᵀ):
// the fused bias-plus-product form of a dense layer's forward pass — load
// the bias into dst, then accumulate the weighted inputs in ascending-k
// order, exactly the per-unit `s = b + Σ_k w_k·x_k` chain of the scalar
// loop. Shapes as in MulTInto. Large products fan row bands out on the
// engine's default pool; each band owns its output rows, and per-element
// accumulation order never depends on banding, so results are bitwise
// identical to the serial kernel.
func (m *Matrix) MulTAddInto(dst, b *Matrix) error {
	if m.cols != b.cols {
		return fmt.Errorf("la: MulTAddInto %d×%d by (%d×%d)ᵀ: %w", m.rows, m.cols, b.rows, b.cols, ErrShape)
	}
	if dst.rows != m.rows || dst.cols != b.rows {
		return fmt.Errorf("la: MulTAddInto destination %d×%d for %d×%d product: %w",
			dst.rows, dst.cols, m.rows, b.rows, ErrShape)
	}
	if m.rows*m.cols*b.rows >= mulParallelFlops && m.rows > mulBlock {
		bands := (m.rows + mulBlock - 1) / mulBlock
		_ = engine.Default().Map(bands, func(bi int) error {
			m.mulTRange(dst, b, bi*mulBlock, min((bi+1)*mulBlock, m.rows))
			return nil
		})
	} else {
		m.mulTRange(dst, b, 0, m.rows)
	}
	return nil
}

// mulTRange accumulates rows [i0, i1) of m·bᵀ onto dst, tiling j so a
// tile of b rows stays cache-resident while m's row streams. The inner
// k loop is a single ascending pass per output element.
func (m *Matrix) mulTRange(dst, b *Matrix, i0, i1 int) {
	for j0 := 0; j0 < b.rows; j0 += mulBlock {
		j1 := min(j0+mulBlock, b.rows)
		for i := i0; i < i1; i++ {
			mrow := m.row(i)
			orow := dst.data[i*dst.stride+j0 : i*dst.stride+j1]
			for j := range orow {
				brow := b.row(j0 + j)
				s := orow[j]
				for k, bv := range brow {
					s += mrow[k] * bv
				}
				orow[j] = s
			}
		}
	}
}

// MulVecInto computes m·v into dst without allocating. dst must have
// length m.Rows() and must not alias v. Identical arithmetic to MulVec.
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

// MulVecAddInto accumulates m·v onto dst (dst += m·v): the fused
// bias-plus-product GEMV of a dense layer's forward pass — load the bias
// into dst, then each row accumulates its terms in a single ascending
// chain seeded from the dst value, exactly the per-unit
// `s = b + Σ_k w_k·x_k` scalar loop. dst must have length m.Rows() and
// must not alias v.
func (m *Matrix) MulVecAddInto(dst, v []float64) error {
	if m.cols != len(v) {
		return fmt.Errorf("la: MulVecAddInto %d×%d by vector of length %d: %w", m.rows, m.cols, len(v), ErrShape)
	}
	if len(dst) != m.rows {
		return fmt.Errorf("la: MulVecAddInto destination length %d for %d rows: %w", len(dst), m.rows, ErrShape)
	}
	for i := 0; i < m.rows; i++ {
		row := m.row(i)
		s := dst[i]
		for j, rv := range row {
			s += rv * v[j]
		}
		dst[i] = s
	}
	return nil
}

// MulVecTInto computes mᵀ·v into dst without materialising the
// transpose: dst[j] = Σ_i m[i][j]·v[i], i ascending — the
// back-propagation form that pushes a layer's deltas through its weight
// matrix. dst must have length m.Cols() and must not alias v.
func (m *Matrix) MulVecTInto(dst, v []float64) error {
	if m.rows != len(v) {
		return fmt.Errorf("la: MulVecTInto %d×%d by vector of length %d: %w", m.rows, m.cols, len(v), ErrShape)
	}
	if len(dst) != m.cols {
		return fmt.Errorf("la: MulVecTInto destination length %d for %d columns: %w", len(dst), m.cols, ErrShape)
	}
	for j := range dst {
		dst[j] = 0
	}
	for i := 0; i < m.rows; i++ {
		mv := v[i]
		row := m.row(i)
		for j, rv := range row {
			dst[j] += mv * rv
		}
	}
	return nil
}
