package mica

import (
	"math"
	"testing"
)

func TestSPEC2006Composition(t *testing.T) {
	ws := SPEC2006()
	if len(ws) != 29 {
		t.Fatalf("%d benchmarks, want 29", len(ws))
	}
	ints, fps := 0, 0
	for _, w := range ws {
		switch w.Suite {
		case Int:
			ints++
		case FP:
			fps++
		default:
			t.Fatalf("%s: unknown suite %q", w.Name, w.Suite)
		}
	}
	if ints != 12 || fps != 17 {
		t.Fatalf("suite split %d INT / %d FP, want 12/17", ints, fps)
	}
}

func TestSPEC2006AllValid(t *testing.T) {
	for _, w := range SPEC2006() {
		if err := w.Validate(); err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
	}
}

func TestSPEC2006KnownMembers(t *testing.T) {
	tab, err := SPEC2006Table()
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"libquantum", "mcf", "namd", "hmmer", "leslie3d", "cactusADM", "gcc", "lbm"} {
		if _, err := tab.Get(name); err != nil {
			t.Fatalf("missing benchmark %s: %v", name, err)
		}
	}
	if _, err := tab.Get("no-such-benchmark"); err == nil {
		t.Fatal("expected error for unknown benchmark")
	}
}

func TestOutlierTaxonomy(t *testing.T) {
	tab, err := SPEC2006Table()
	if err != nil {
		t.Fatal(err)
	}
	libq, _ := tab.Get("libquantum")
	mcf, _ := tab.Get("mcf")
	namd, _ := tab.Get("namd")
	gobmk, _ := tab.Get("gobmk")
	if libq.Streaming < 0.9 || libq.BytesPerInstr < 0.3 {
		t.Fatal("libquantum must be a streaming, high-traffic workload")
	}
	if mcf.Streaming > 0.3 || mcf.WorkingSetKB < 100000 {
		t.Fatal("mcf must be a pointer-chasing, huge-working-set workload")
	}
	if namd.DLP < 0.7 || namd.WorkingSetKB > 4096 {
		t.Fatal("namd must be a high-DLP, cache-resident workload")
	}
	if gobmk.BranchEntropy < 0.5 {
		t.Fatal("gobmk must be a branchy workload")
	}
}

func TestValidateRejectsBadWorkloads(t *testing.T) {
	good := SPEC2006()[0]
	cases := []struct {
		name string
		mut  func(*Workload)
	}{
		{"empty name", func(w *Workload) { w.Name = "" }},
		{"negative load", func(w *Workload) { w.FracLoad = -0.1 }},
		{"mix > 1", func(w *Workload) { w.FracLoad = 0.6; w.FracStore = 0.3; w.FracBranch = 0.3 }},
		{"ILP < 1", func(w *Workload) { w.ILP = 0.5 }},
		{"zero regularity", func(w *Workload) { w.Regularity = 0 }},
		{"zero working set", func(w *Workload) { w.WorkingSetKB = 0 }},
		{"DLP > 1", func(w *Workload) { w.DLP = 1.5 }},
		{"negative traffic", func(w *Workload) { w.BytesPerInstr = -1 }},
		{"NaN entropy", func(w *Workload) { w.BranchEntropy = math.NaN() }},
	}
	for _, tc := range cases {
		w := good
		tc.mut(&w)
		if err := w.Validate(); err == nil {
			t.Fatalf("%s: expected validation error", tc.name)
		}
	}
}

func TestVectorShape(t *testing.T) {
	w := SPEC2006()[0]
	v := w.Vector()
	if len(v) != VectorLen {
		t.Fatalf("vector length %d, want %d", len(v), VectorLen)
	}
	for i, x := range v {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			t.Fatalf("vector[%d] = %v", i, x)
		}
	}
}

func TestTableDuplicateRejected(t *testing.T) {
	w := SPEC2006()[0]
	if _, err := NewTable([]Workload{w, w}); err == nil {
		t.Fatal("expected duplicate error")
	}
}

func TestTableOrder(t *testing.T) {
	tab, err := SPEC2006Table()
	if err != nil {
		t.Fatal(err)
	}
	if tab.Len() != 29 {
		t.Fatalf("Len = %d", tab.Len())
	}
	names := tab.Names()
	if names[0] != "astar" || names[len(names)-1] != "zeusmp" {
		t.Fatalf("unexpected order: first %s last %s", names[0], names[len(names)-1])
	}
}
