package dataset

import (
	"fmt"
	"math/rand"
	"testing"
)

// generated builds a deterministic pseudo-random nb×nm matrix spanning
// three families and three years.
func generated(t *testing.T, nb, nm int, seed int64) *Matrix {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	benchmarks := make([]string, nb)
	for b := range benchmarks {
		benchmarks[b] = fmt.Sprintf("bench%02d", b)
	}
	machines := make([]Machine, nm)
	for m := range machines {
		machines[m] = Machine{
			ID:       fmt.Sprintf("mach%03d", m),
			Vendor:   fmt.Sprintf("V%d", m%4),
			Family:   fmt.Sprintf("Fam%d", m%3),
			Nickname: fmt.Sprintf("N%d", m),
			ISA:      "x86-64",
			Year:     2007 + m%3,
		}
	}
	d, err := New(benchmarks, machines)
	if err != nil {
		t.Fatal(err)
	}
	for b := 0; b < nb; b++ {
		for m := 0; m < nm; m++ {
			d.Set(b, m, 1+rng.Float64()*99)
		}
	}
	return d
}

// deepSelectMachines rebuilds the pre-refactor deep-copy selection: a
// fresh contiguous matrix holding copies of the kept columns.
func deepSelectMachines(t *testing.T, d *Matrix, keep func(Machine) bool) *Matrix {
	t.Helper()
	var kept []Machine
	var idx []int
	for i, m := range d.Machines {
		if keep(m) {
			kept = append(kept, m)
			idx = append(idx, i)
		}
	}
	out, err := New(d.Benchmarks, kept)
	if err != nil {
		t.Fatal(err)
	}
	for b := 0; b < d.NumBenchmarks(); b++ {
		for j, i := range idx {
			out.Set(b, j, d.At(b, i))
		}
	}
	return out
}

func assertSameScores(t *testing.T, label string, got, want *Matrix) {
	t.Helper()
	if got.NumBenchmarks() != want.NumBenchmarks() || got.NumMachines() != want.NumMachines() {
		t.Fatalf("%s: shape %dx%d, want %dx%d", label,
			got.NumBenchmarks(), got.NumMachines(), want.NumBenchmarks(), want.NumMachines())
	}
	for b := 0; b < want.NumBenchmarks(); b++ {
		if got.Benchmarks[b] != want.Benchmarks[b] {
			t.Fatalf("%s: benchmark %d = %q, want %q", label, b, got.Benchmarks[b], want.Benchmarks[b])
		}
		for m := 0; m < want.NumMachines(); m++ {
			if got.At(b, m) != want.At(b, m) {
				t.Fatalf("%s: score (%d,%d) = %v, want %v", label, b, m, got.At(b, m), want.At(b, m))
			}
		}
	}
	for m := range want.Machines {
		if got.Machines[m] != want.Machines[m] {
			t.Fatalf("%s: machine %d = %+v, want %+v", label, m, got.Machines[m], want.Machines[m])
		}
	}
}

// TestViewEquivalence asserts that every view-based selection the
// experiments use produces scores identical to the old deep-copy
// construction, including views of views (family split then leave-one-out).
func TestViewEquivalence(t *testing.T) {
	d := generated(t, 12, 30, 7)

	t.Run("FamilySplit", func(t *testing.T) {
		tgt, pred, err := d.FamilySplit("Fam1")
		if err != nil {
			t.Fatal(err)
		}
		assertSameScores(t, "target", tgt,
			deepSelectMachines(t, d, func(m Machine) bool { return m.Family == "Fam1" }))
		assertSameScores(t, "predictive", pred,
			deepSelectMachines(t, d, func(m Machine) bool { return m.Family != "Fam1" }))
	})

	t.Run("YearSplit", func(t *testing.T) {
		tgt, pred, err := d.YearSplit(2009, func(y int) bool { return y < 2009 })
		if err != nil {
			t.Fatal(err)
		}
		assertSameScores(t, "target", tgt,
			deepSelectMachines(t, d, func(m Machine) bool { return m.Year == 2009 }))
		assertSameScores(t, "predictive", pred,
			deepSelectMachines(t, d, func(m Machine) bool { return m.Year < 2009 }))
	})

	t.Run("DropBenchmark over FamilySplit", func(t *testing.T) {
		// The fold construction: a row view of a column view.
		_, pred, err := d.FamilySplit("Fam2")
		if err != nil {
			t.Fatal(err)
		}
		app := d.Benchmarks[5]
		rest, appRow, err := pred.DropBenchmark(app)
		if err != nil {
			t.Fatal(err)
		}
		deep := deepSelectMachines(t, d, func(m Machine) bool { return m.Family != "Fam2" })
		var wantBench []string
		for _, b := range d.Benchmarks {
			if b != app {
				wantBench = append(wantBench, b)
			}
		}
		want, err := New(wantBench, deep.Machines)
		if err != nil {
			t.Fatal(err)
		}
		wb := 0
		for b, name := range deep.Benchmarks {
			if name == app {
				for m := 0; m < deep.NumMachines(); m++ {
					if appRow[m] != deep.At(b, m) {
						t.Fatalf("app row score %d = %v, want %v", m, appRow[m], deep.At(b, m))
					}
				}
				continue
			}
			for m := 0; m < deep.NumMachines(); m++ {
				want.Set(wb, m, deep.At(b, m))
			}
			wb++
		}
		assertSameScores(t, "fold predictive half", rest, want)
		// Row/Col on the nested view agree with element access.
		for b := 0; b < rest.NumBenchmarks(); b++ {
			for m, v := range rest.Row(b) {
				if v != rest.At(b, m) {
					t.Fatalf("Row(%d)[%d] = %v, want %v", b, m, v, rest.At(b, m))
				}
			}
		}
		for m := 0; m < rest.NumMachines(); m++ {
			for b, v := range rest.Col(m) {
				if v != rest.At(b, m) {
					t.Fatalf("Col(%d)[%d] = %v, want %v", m, b, v, rest.At(b, m))
				}
			}
		}
	})

	t.Run("SelectBenchmarks", func(t *testing.T) {
		names := []string{d.Benchmarks[3], d.Benchmarks[0], d.Benchmarks[9]}
		sub, err := d.SelectBenchmarks(names)
		if err != nil {
			t.Fatal(err)
		}
		for b, name := range names {
			src, err := d.BenchmarkIndex(name)
			if err != nil {
				t.Fatal(err)
			}
			for m := 0; m < d.NumMachines(); m++ {
				if sub.At(b, m) != d.At(src, m) {
					t.Fatalf("SelectBenchmarks (%d,%d) = %v, want %v", b, m, sub.At(b, m), d.At(src, m))
				}
			}
		}
	})
}

// TestViewAliasing proves that views share storage with their parent in
// both directions, through arbitrary nesting, and that Compact severs it.
func TestViewAliasing(t *testing.T) {
	d := generated(t, 8, 18, 11)
	_, pred, err := d.FamilySplit("Fam0")
	if err != nil {
		t.Fatal(err)
	}
	fold, _, err := pred.DropBenchmark(d.Benchmarks[2])
	if err != nil {
		t.Fatal(err)
	}
	if !pred.IsView() || !fold.IsView() {
		t.Fatal("selections must be views")
	}

	// Locate fold (0,0) in parent coordinates.
	pb, err := d.BenchmarkIndex(fold.Benchmarks[0])
	if err != nil {
		t.Fatal(err)
	}
	pm, err := d.MachineIndex(fold.Machines[0].ID)
	if err != nil {
		t.Fatal(err)
	}

	// Write through the nested view, read through the root.
	fold.Set(0, 0, 123.5)
	if d.At(pb, pm) != 123.5 {
		t.Fatalf("parent read %v after view write, want 123.5", d.At(pb, pm))
	}
	// Write through the root, read through the nested view.
	d.Set(pb, pm, 321.25)
	if fold.At(0, 0) != 321.25 {
		t.Fatalf("view read %v after parent write, want 321.25", fold.At(0, 0))
	}
	// SetRow through the intermediate view propagates to the root.
	row := make([]float64, pred.NumMachines())
	for i := range row {
		row[i] = float64(1000 + i)
	}
	pred.SetRow(pb, row)
	if d.At(pb, pm) != row[0] {
		t.Fatalf("parent read %v after view SetRow, want %v", d.At(pb, pm), row[0])
	}

	// Compact is independent.
	cp := fold.Compact()
	if cp.IsView() {
		t.Fatal("Compact must not be a view")
	}
	before := d.At(pb, pm)
	cp.Set(0, 0, -before)
	if d.At(pb, pm) != before {
		t.Fatal("Compact write leaked into parent")
	}
}

// TestFamilyTargetsMatchFamilySplit: the one-pass index holds, for every
// family, the target view FamilySplit builds — on a root matrix and on a
// view of one (a year selection, so column indices are remapped).
func TestFamilyTargetsMatchFamilySplit(t *testing.T) {
	d := generated(t, 6, 30, 11)
	for name, m := range map[string]*Matrix{
		"root": d,
		"view": d.SelectMachines(func(m Machine) bool { return m.Year != 2008 }),
	} {
		index := m.FamilyTargets()
		if len(index) != len(m.Families()) {
			t.Fatalf("%s: %d families indexed, want %d", name, len(index), len(m.Families()))
		}
		for _, f := range m.Families() {
			want, _, err := m.FamilySplit(f)
			if err != nil {
				t.Fatal(err)
			}
			assertSameScores(t, name+"/"+f, index[f], want)
		}
	}
}
