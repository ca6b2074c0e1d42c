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
