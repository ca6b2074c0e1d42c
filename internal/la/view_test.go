package la

import "testing"

func counted(rows, cols int) *Matrix {
	m := NewMatrix(rows, cols)
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			m.Set(i, j, float64(10*i+j))
		}
	}
	return m
}

func TestRowViewAliases(t *testing.T) {
	m := counted(3, 4)
	r := m.RowView(1)
	if len(r) != 4 || r[2] != 12 {
		t.Fatalf("RowView = %v", r)
	}
	r[2] = -1
	if m.At(1, 2) != -1 {
		t.Fatal("RowView must alias the matrix")
	}
}

func TestSubMatrixView(t *testing.T) {
	m := counted(4, 5)
	v := m.SubMatrixView(1, 2, 2, 3)
	if v.Rows() != 2 || v.Cols() != 3 || v.stride != 5 {
		t.Fatalf("view %dx%d stride %d", v.Rows(), v.Cols(), v.stride)
	}
	if v.At(0, 0) != 12 || v.At(1, 2) != 24 {
		t.Fatalf("view contents wrong: %v", v)
	}
	// Writes go through.
	v.Set(0, 1, -7)
	if m.At(1, 3) != -7 {
		t.Fatal("SubMatrixView must alias parent")
	}
	// Operations on a strided view behave like on a compact matrix.
	if maxAbs(v) != 24 {
		t.Fatalf("maxAbs = %v", maxAbs(v))
	}
	cl := v.Clone()
	if cl.stride != cl.Cols() {
		t.Fatal("Clone must compact")
	}
	if !equalWithin(cl, v, 0) {
		t.Fatalf("Clone differs: %v vs %v", cl, v)
	}
	tr := v.T()
	if tr.At(2, 1) != v.At(1, 2) {
		t.Fatal("transpose of view wrong")
	}
	out, err := v.MulVec([]float64{1, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if out[1] != v.At(1, 0)+v.At(1, 1)+v.At(1, 2) {
		t.Fatalf("MulVec on view = %v", out)
	}
	// Empty view is legal.
	e := m.SubMatrixView(0, 0, 0, 0)
	if e.Rows() != 0 || e.Cols() != 0 {
		t.Fatal("empty view shape")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range SubMatrixView must panic")
		}
	}()
	m.SubMatrixView(3, 3, 2, 3)
}

func TestViewMulMatchesCompact(t *testing.T) {
	m := counted(6, 6)
	a := m.SubMatrixView(0, 1, 3, 4)
	b := m.SubMatrixView(1, 0, 4, 2)
	got, err := a.Mul(b)
	if err != nil {
		t.Fatal(err)
	}
	want, err := a.Clone().Mul(b.Clone())
	if err != nil {
		t.Fatal(err)
	}
	if !equalWithin(got, want, 0) {
		t.Fatalf("view Mul differs: %v vs %v", got, want)
	}
}

func TestSolveOnView(t *testing.T) {
	// Embed an SPD-ish system inside a larger matrix and solve through a view.
	big := NewMatrix(4, 5)
	big.Set(1, 1, 2)
	big.Set(1, 2, 1)
	big.Set(2, 1, 1)
	big.Set(2, 2, 3)
	v := big.SubMatrixView(1, 1, 2, 2)
	x, err := Solve(v, []float64{3, 4})
	if err != nil {
		t.Fatal(err)
	}
	// 2a+b=3, a+3b=4 => a=1, b=1.
	if x[0] != 1 || x[1] != 1 {
		t.Fatalf("Solve on view = %v", x)
	}
}
