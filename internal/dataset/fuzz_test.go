package dataset

import (
	"bytes"
	"math"
	"slices"
	"testing"
)

// FuzzReadCSV feeds hostile snapshot bodies to ReadCSV, the parser
// behind POST /v1/snapshot. It must never panic, and a matrix it accepts
// must survive WriteCSV → ReadCSV with the same benchmarks, machine IDs
// and metadata, and scores bit for bit. Seeds are in
// testdata/fuzz/FuzzReadCSV.
func FuzzReadCSV(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte) {
		d, err := ReadCSV(bytes.NewReader(body))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := d.WriteCSV(&buf); err != nil {
			t.Fatalf("accepted matrix does not write: %v", err)
		}
		back, err := ReadCSV(&buf)
		if err != nil {
			t.Fatalf("written matrix does not read back: %v\n%s", err, buf.Bytes())
		}
		if !slices.Equal(back.Benchmarks, d.Benchmarks) {
			t.Fatalf("benchmarks %q read back as %q", d.Benchmarks, back.Benchmarks)
		}
		if !slices.Equal(back.Machines, d.Machines) {
			t.Fatalf("machines %+v read back as %+v", d.Machines, back.Machines)
		}
		for b := range d.Benchmarks {
			for m := range d.Machines {
				if got, want := back.At(b, m), d.At(b, m); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("score (%d, %d) %v read back as %v", b, m, want, got)
				}
			}
		}
	})
}
