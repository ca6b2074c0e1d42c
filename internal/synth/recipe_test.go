package synth

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/recipe.golden from the current synthesis")

// recipeGolden renders the lines testdata/recipe.golden pins: Version,
// then the matrix hash and the data fingerprint (matrix hash plus
// characteristics) of seeds 1-5 under the default options, and of seed 1
// with honest characteristics, which the characterisation ablation
// computes under the default recipe's key.
func recipeGolden(t *testing.T) string {
	t.Helper()
	var sb strings.Builder
	fmt.Fprintf(&sb, "version %d\n", Version)
	line := func(label string, opts Options) {
		d, err := Generate(opts)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&sb, "%s matrix %s\n", label, d.Matrix.Hash())
		fmt.Fprintf(&sb, "%s data %s\n", label, d.Fingerprint())
	}
	for seed := int64(1); seed <= 5; seed++ {
		line(fmt.Sprintf("seed %d", seed), DefaultOptions(seed))
	}
	honest := DefaultOptions(1)
	honest.HonestCharacteristics = true
	line("seed 1 honest", honest)
	return sb.String()
}

// TestRecipeGolden pins the data each recipe synthesises next to
// Version. Experiment units are keyed by the recipe, not by the data, so
// data that moves under an unchanged Version would let a store serve
// results computed from other data.
func TestRecipeGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("the golden pins amd64 data; %s synthesis is not bit-identical to it", runtime.GOARCH)
	}
	path := filepath.Join("testdata", "recipe.golden")
	got := recipeGolden(t)
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want := string(raw)
	if got == want {
		return
	}
	gotLines, wantLines := strings.Split(got, "\n"), strings.Split(want, "\n")
	if gotLines[0] != wantLines[0] {
		t.Fatalf("Version is %d but %s pins %q: rerun with -update and list the moved lines in CHANGES.md", Version, path, wantLines[0])
	}
	var moved []string
	for i := range gotLines {
		if i >= len(wantLines) || gotLines[i] != wantLines[i] {
			moved = append(moved, gotLines[i])
		}
	}
	t.Fatalf("synthesis moved under Version %d; bump synth.Version, then rerun with -update. Moved lines:\n%s",
		Version, strings.Join(moved, "\n"))
}

// TestFingerprintCoversEveryOption changes each Options field in turn
// and requires a new fingerprint, so an option added later cannot let
// two recipes share one key.
func TestFingerprintCoversEveryOption(t *testing.T) {
	base := DefaultOptions(1)
	seen := map[string]string{base.Fingerprint(): "default"}
	v := reflect.ValueOf(&base).Elem()
	for i := 0; i < v.NumField(); i++ {
		opts := base
		f := reflect.ValueOf(&opts).Elem().Field(i)
		name := v.Type().Field(i).Name
		switch f.Kind() {
		case reflect.Int64:
			f.SetInt(f.Int() + 1)
		case reflect.Float64:
			f.SetFloat(f.Float() + 0.5)
		case reflect.Bool:
			f.SetBool(!f.Bool())
		default:
			t.Fatalf("field %s has kind %s: teach Options.Fingerprint and this test about it", name, f.Kind())
		}
		fp := opts.Fingerprint()
		if prev, ok := seen[fp]; ok {
			t.Fatalf("changing %s leaves the fingerprint of %s: Options.Fingerprint must hash it", name, prev)
		}
		seen[fp] = name
	}
}

// TestLayoutMatchesGenerate pins what a run enumerates its units from
// without synthesising: Layout's benchmarks and machines are Generate's,
// in the same order.
func TestLayoutMatchesGenerate(t *testing.T) {
	layout, err := Layout()
	if err != nil {
		t.Fatal(err)
	}
	d, err := Generate(DefaultOptions(1))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(layout.Benchmarks, d.Matrix.Benchmarks) || !reflect.DeepEqual(layout.Machines, d.Matrix.Machines) {
		t.Fatal("Layout's benchmarks or machines differ from Generate's")
	}
}
