package synth

import (
	"math"
	"testing"

	"repro/internal/machine"
	"repro/internal/mica"
	"repro/internal/perfmodel"
	"repro/internal/stats"
)

func TestGenerateShape(t *testing.T) {
	d, err := Generate(DefaultOptions(1))
	if err != nil {
		t.Fatal(err)
	}
	if d.Matrix.NumBenchmarks() != 29 {
		t.Fatalf("%d benchmarks, want 29", d.Matrix.NumBenchmarks())
	}
	if d.Matrix.NumMachines() != 117 {
		t.Fatalf("%d machines, want 117", d.Matrix.NumMachines())
	}
	if err := d.Matrix.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(d.Characteristics) != 29 {
		t.Fatalf("%d characteristic vectors, want 29", len(d.Characteristics))
	}
	for name, v := range d.Characteristics {
		if len(v) != mica.VectorLen {
			t.Fatalf("%s: characteristic length %d, want %d", name, len(v), mica.VectorLen)
		}
	}
	if len(d.Configs) != 117 {
		t.Fatalf("%d configs, want 117", len(d.Configs))
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, err := Generate(DefaultOptions(42))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(DefaultOptions(42))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < a.Matrix.NumBenchmarks(); i++ {
		for j := 0; j < a.Matrix.NumMachines(); j++ {
			if a.Matrix.At(i, j) != b.Matrix.At(i, j) {
				t.Fatal("same seed produced different scores")
			}
		}
	}
	c, err := Generate(DefaultOptions(43))
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := 0; i < a.Matrix.NumBenchmarks(); i++ {
		for j := 0; j < a.Matrix.NumMachines(); j++ {
			if a.Matrix.At(i, j) != c.Matrix.At(i, j) {
				same = false
			}
		}
	}
	if same {
		t.Fatal("different seeds produced identical scores")
	}
}

func TestNoiseMagnitude(t *testing.T) {
	clean, err := Generate(Options{Seed: 1, ScoreNoise: 0, CharNoise: 0})
	if err != nil {
		t.Fatal(err)
	}
	noisy, err := Generate(DefaultOptions(1))
	if err != nil {
		t.Fatal(err)
	}
	var rel []float64
	for i := 0; i < clean.Matrix.NumBenchmarks(); i++ {
		for j := 0; j < clean.Matrix.NumMachines(); j++ {
			rel = append(rel, math.Abs(noisy.Matrix.At(i, j)/clean.Matrix.At(i, j)-1))
		}
	}
	mean := stats.Mean(rel)
	// |N(0, 0.03)| has mean ≈ 0.024.
	if mean < 0.01 || mean > 0.05 {
		t.Fatalf("mean relative noise %v, want ≈ 0.024", mean)
	}
}

func TestNegativeNoiseRejected(t *testing.T) {
	if _, err := Generate(Options{ScoreNoise: -1}); err == nil {
		t.Fatal("expected error for negative score noise")
	}
	if _, err := Generate(Options{CharNoise: -1}); err == nil {
		t.Fatal("expected error for negative characteristic noise")
	}
}

func TestOutlierStructureSurvivesNoise(t *testing.T) {
	d, err := Generate(DefaultOptions(7))
	if err != nil {
		t.Fatal(err)
	}
	best := func(bench string) string {
		b, err := d.Matrix.BenchmarkIndex(bench)
		if err != nil {
			t.Fatal(err)
		}
		row := d.Matrix.Row(b)
		arg, err := stats.ArgMax(row)
		if err != nil {
			t.Fatal(err)
		}
		return d.Matrix.Machines[arg].Family
	}
	// §6.2 outliers: streaming codes peak on Nehalem-class machines,
	// high-DLP codes on Itanium.
	for _, bench := range []string{"libquantum", "lbm"} {
		if f := best(bench); f != "Intel Xeon" && f != "Intel Core i7" {
			t.Fatalf("%s best on %q, want a Nehalem-class family", bench, f)
		}
	}
	for _, bench := range []string{"namd", "hmmer"} {
		if f := best(bench); f != "Intel Itanium" {
			t.Fatalf("%s best on %q, want Intel Itanium", bench, f)
		}
	}
}

func TestMachineMainEffect(t *testing.T) {
	// A top-2009 machine must beat the 2002 UltraSPARC III on every
	// benchmark: machine main effects dominate noise.
	d, err := Generate(DefaultOptions(3))
	if err != nil {
		t.Fatal(err)
	}
	gt, err := d.Matrix.MachineIndex("intel-xeon-gainestown-2")
	if err != nil {
		t.Fatal(err)
	}
	us, err := d.Matrix.MachineIndex("ultrasparc-iii-cheetah-2")
	if err != nil {
		t.Fatal(err)
	}
	for b, name := range d.Matrix.Benchmarks {
		if d.Matrix.At(b, gt) <= d.Matrix.At(b, us) {
			t.Fatalf("%s: Gainestown %v <= UltraSPARC III %v", name,
				d.Matrix.At(b, gt), d.Matrix.At(b, us))
		}
	}
}

func TestGenerateForCustomRoster(t *testing.T) {
	ref := machine.Reference()
	ref.ID = "custom-a"
	b := ref
	b.ID = "custom-b"
	b.FreqGHz = 0.6
	tab, err := mica.NewTable(mica.SPEC2006()[:3])
	if err != nil {
		t.Fatal(err)
	}
	d, err := GenerateFor([]machine.Config{ref, b}, tab, Options{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if d.Matrix.NumMachines() != 2 || d.Matrix.NumBenchmarks() != 3 {
		t.Fatalf("custom matrix %dx%d", d.Matrix.NumBenchmarks(), d.Matrix.NumMachines())
	}
}

func TestCharacteristicsDistortedForOutliers(t *testing.T) {
	honest, err := Generate(Options{Seed: 9, HonestCharacteristics: true})
	if err != nil {
		t.Fatal(err)
	}
	distorted, err := Generate(Options{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"leslie3d", "cactusADM", "libquantum"} {
		same := true
		for j := range honest.Characteristics[name] {
			if honest.Characteristics[name][j] != distorted.Characteristics[name][j] {
				same = false
			}
		}
		if same {
			t.Fatalf("%s: measured characteristics not distorted", name)
		}
	}
	// Non-outlier benchmarks are identical under both modes.
	for j, v := range honest.Characteristics["gcc"] {
		if distorted.Characteristics["gcc"][j] != v {
			t.Fatal("gcc characteristics must not be distorted")
		}
	}
}

func TestCharacteristicsNearGroundTruth(t *testing.T) {
	opts := DefaultOptions(9)
	opts.HonestCharacteristics = true
	d, err := Generate(opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range d.Workloads.Names() {
		w, err := d.Workloads.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		truth := w.Vector()
		got := d.Characteristics[name]
		for j := range truth {
			if truth[j] == 0 {
				continue
			}
			if rel := math.Abs(got[j]/truth[j] - 1); rel > 0.15 {
				t.Fatalf("%s dim %d: relative error %v too large", name, j, rel)
			}
		}
	}
}

// TestGenerateMatchesSPECRatio pins the hoisted reference rate: without
// score noise every cell is exactly perfmodel.SPECRatio of its machine
// and workload.
func TestGenerateMatchesSPECRatio(t *testing.T) {
	d, err := Generate(Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	roster, err := machine.Roster()
	if err != nil {
		t.Fatal(err)
	}
	for b, name := range d.Matrix.Benchmarks {
		w, err := d.Workloads.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		for m, c := range roster {
			want, err := perfmodel.SPECRatio(c, w)
			if err != nil {
				t.Fatal(err)
			}
			if got := d.Matrix.At(b, m); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s on %s: %v, SPECRatio %v", name, c.ID, got, want)
			}
		}
	}
}
