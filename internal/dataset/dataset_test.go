package dataset

import (
	"bytes"
	"strings"
	"testing"
)

func sample(t *testing.T) *Matrix {
	t.Helper()
	machines := []Machine{
		{ID: "m1", Vendor: "A", Family: "Fam1", Nickname: "N1", ISA: "x86-64", Year: 2007},
		{ID: "m2", Vendor: "B", Family: "Fam1", Nickname: "N2", ISA: "x86-64", Year: 2008},
		{ID: "m3", Vendor: "C", Family: "Fam2", Nickname: "N3", ISA: "Power", Year: 2009},
	}
	d, err := New([]string{"b1", "b2"}, machines)
	if err != nil {
		t.Fatal(err)
	}
	d.SetRow(0, []float64{1, 2, 3})
	d.SetRow(1, []float64{4, 5, 6})
	return d
}

func TestNewValidation(t *testing.T) {
	if _, err := New([]string{"a", "a"}, nil); err == nil {
		t.Fatal("want duplicate-benchmark error")
	}
	if _, err := New([]string{""}, nil); err == nil {
		t.Fatal("want empty-name error")
	}
	if _, err := New(nil, []Machine{{ID: "x"}, {ID: "x"}}); err == nil {
		t.Fatal("want duplicate-machine error")
	}
	if _, err := New(nil, []Machine{{}}); err == nil {
		t.Fatal("want empty-ID error")
	}
}

func TestValidateScores(t *testing.T) {
	d := sample(t)
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	d.Set(0, 1, -1)
	if err := d.Validate(); err == nil {
		t.Fatal("want error for non-positive score")
	}
	d.Set(0, 1, 2)
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	// Structural damage: benchmark list longer than the backing rows.
	d.Benchmarks = append(d.Benchmarks, "b3")
	if err := d.Validate(); err == nil {
		t.Fatal("want error for benchmark/backing mismatch")
	}
}

func TestIndexLookups(t *testing.T) {
	d := sample(t)
	b, err := d.BenchmarkIndex("b2")
	if err != nil || b != 1 {
		t.Fatalf("BenchmarkIndex = %d, %v", b, err)
	}
	if _, err := d.BenchmarkIndex("nope"); err == nil {
		t.Fatal("want unknown-benchmark error")
	}
	m, err := d.MachineIndex("m3")
	if err != nil || m != 2 {
		t.Fatalf("MachineIndex = %d, %v", m, err)
	}
	if _, err := d.MachineIndex("nope"); err == nil {
		t.Fatal("want unknown-machine error")
	}
}

func TestRowColCopies(t *testing.T) {
	d := sample(t)
	r := d.Row(0)
	r[0] = 99
	if d.At(0, 0) != 1 {
		t.Fatal("Row must copy")
	}
	c := d.Col(1)
	if c[0] != 2 || c[1] != 5 {
		t.Fatalf("Col = %v", c)
	}
	c[0] = 99
	if d.At(0, 1) != 2 {
		t.Fatal("Col must copy")
	}
}

func TestSelectMachines(t *testing.T) {
	d := sample(t)
	sub := d.SelectMachines(func(m Machine) bool { return m.Family == "Fam1" })
	if sub.NumMachines() != 2 || sub.NumBenchmarks() != 2 {
		t.Fatalf("submatrix %dx%d", sub.NumBenchmarks(), sub.NumMachines())
	}
	if sub.At(1, 1) != 5 {
		t.Fatalf("submatrix score (1,1) = %v, want 5", sub.At(1, 1))
	}
	if !sub.IsView() {
		t.Fatal("SelectMachines must return a view")
	}
	// Views alias the parent: writes through the view are visible in d.
	sub.Set(0, 0, 42)
	if d.At(0, 0) != 42 {
		t.Fatal("SelectMachines view must alias parent scores")
	}
	d.Set(0, 0, 1)
	// Compact severs the aliasing.
	cp := sub.Compact()
	cp.Set(0, 0, 77)
	if d.At(0, 0) != 1 {
		t.Fatal("Compact must deep-copy")
	}
	empty := d.SelectMachines(func(Machine) bool { return false })
	if empty.NumMachines() != 0 {
		t.Fatal("empty selection must have no machines")
	}
}

func TestSelectBenchmarks(t *testing.T) {
	d := sample(t)
	sub, err := d.SelectBenchmarks([]string{"b2"})
	if err != nil {
		t.Fatal(err)
	}
	if sub.NumBenchmarks() != 1 || sub.At(0, 2) != 6 {
		t.Fatalf("SelectBenchmarks wrong: %+v", sub)
	}
	if _, err := d.SelectBenchmarks([]string{"zzz"}); err == nil {
		t.Fatal("want unknown-benchmark error")
	}
}

func TestDropBenchmark(t *testing.T) {
	d := sample(t)
	rest, row, err := d.DropBenchmark("b1")
	if err != nil {
		t.Fatal(err)
	}
	if rest.NumBenchmarks() != 1 || rest.Benchmarks[0] != "b2" {
		t.Fatalf("rest = %+v", rest.Benchmarks)
	}
	if row[0] != 1 || row[2] != 3 {
		t.Fatalf("dropped row = %v", row)
	}
	// Original shape untouched.
	if d.NumBenchmarks() != 2 {
		t.Fatal("DropBenchmark must not mutate the source")
	}
	// The extracted row is a copy, not a view.
	row[0] = 99
	if d.At(0, 0) != 1 {
		t.Fatal("DropBenchmark row must copy")
	}
	if _, _, err := d.DropBenchmark("zzz"); err == nil {
		t.Fatal("want unknown-benchmark error")
	}
}

func TestFamiliesYears(t *testing.T) {
	d := sample(t)
	fams := d.Families()
	if len(fams) != 2 || fams[0] != "Fam1" || fams[1] != "Fam2" {
		t.Fatalf("Families = %v", fams)
	}
}

func TestFamilySplit(t *testing.T) {
	d := sample(t)
	tgt, pred, err := d.FamilySplit("Fam1")
	if err != nil {
		t.Fatal(err)
	}
	if tgt.NumMachines() != 2 || pred.NumMachines() != 1 {
		t.Fatalf("split %d/%d", tgt.NumMachines(), pred.NumMachines())
	}
	if _, _, err := d.FamilySplit("FamX"); err == nil {
		t.Fatal("want unknown-family error")
	}
}

func TestYearSplit(t *testing.T) {
	d := sample(t)
	tgt, pred, err := d.YearSplit(2009, func(y int) bool { return y < 2009 })
	if err != nil {
		t.Fatal(err)
	}
	if tgt.NumMachines() != 1 || pred.NumMachines() != 2 {
		t.Fatalf("split %d/%d", tgt.NumMachines(), pred.NumMachines())
	}
	if _, _, err := d.YearSplit(1990, func(int) bool { return true }); err == nil {
		t.Fatal("want no-targets error")
	}
	if _, _, err := d.YearSplit(2009, func(int) bool { return false }); err == nil {
		t.Fatal("want empty-predictive error")
	}
}

func TestCSVRoundTrip(t *testing.T) {
	d := sample(t)
	var buf bytes.Buffer
	if err := d.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.NumBenchmarks() != 2 || back.NumMachines() != 3 {
		t.Fatalf("round trip %dx%d", back.NumBenchmarks(), back.NumMachines())
	}
	for b := 0; b < d.NumBenchmarks(); b++ {
		for m := 0; m < d.NumMachines(); m++ {
			if back.At(b, m) != d.At(b, m) {
				t.Fatalf("score (%d,%d) = %v, want %v", b, m, back.At(b, m), d.At(b, m))
			}
		}
	}
	if back.Machines[2] != d.Machines[2] {
		t.Fatalf("machine metadata lost: %+v vs %+v", back.Machines[2], d.Machines[2])
	}
}

func TestMachineString(t *testing.T) {
	m := Machine{ID: "x", Family: "F", Nickname: "N", Year: 2009}
	if s := m.String(); !strings.Contains(s, "x") || !strings.Contains(s, "2009") {
		t.Fatalf("String = %q", s)
	}
}
