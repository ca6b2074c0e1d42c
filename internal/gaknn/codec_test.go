package gaknn

import (
	"bytes"
	"math"
	"testing"

	"repro/internal/knn"
	"repro/internal/transpose"
)

func TestModelRoundTripBitwiseIdentical(t *testing.T) {
	pred, tgt, chars := clusteredWorld(t, 4)
	fold, _, err := transpose.NewFold(pred, tgt, "a1", chars)
	if err != nil {
		t.Fatal(err)
	}
	m, err := fastNew(4, 3).Fit(fold)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := transpose.EncodeModel(&buf, m); err != nil {
		t.Fatal(err)
	}
	got, err := transpose.DecodeModel(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	gm, ok := got.(*Model)
	if !ok {
		t.Fatalf("decoded %T, want *gaknn.Model", got)
	}
	if gm.NumTargets() != m.NumTargets() {
		t.Fatalf("decoded %d targets, want %d", gm.NumTargets(), m.NumTargets())
	}
	want := make([]float64, m.NumTargets())
	have := make([]float64, gm.NumTargets())
	if err := m.PredictTargets(want); err != nil {
		t.Fatal(err)
	}
	if err := gm.PredictTargets(have); err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if math.Float64bits(want[i]) != math.Float64bits(have[i]) {
			t.Fatalf("target %d: %v decoded vs %v fitted", i, have[i], want[i])
		}
	}
}

func TestDecodeRejectsInconsistentPayload(t *testing.T) {
	pred, tgt, chars := clusteredWorld(t, 5)
	fold, _, err := transpose.NewFold(pred, tgt, "b2", chars)
	if err != nil {
		t.Fatal(err)
	}
	fitted, err := fastNew(5, 3).Fit(fold)
	if err != nil {
		t.Fatal(err)
	}
	m := fitted.(*Model)

	check := func(name string, mutate func(*Model)) {
		t.Helper()
		bad := &Model{
			Weights:    append([]float64(nil), m.Weights...),
			Neighbours: append([]knn.Neighbour(nil), m.Neighbours...),
			tgt:        rowMajor{data: append([]float64(nil), m.tgt.data...), cols: m.tgt.cols},
			nt:         m.nt,
		}
		mutate(bad)
		var buf bytes.Buffer
		if err := transpose.EncodeModel(&buf, bad); err != nil {
			t.Fatalf("%s: encode: %v", name, err)
		}
		if _, err := transpose.DecodeModel(bytes.NewReader(buf.Bytes())); err == nil {
			t.Fatalf("%s: corrupted payload accepted", name)
		}
	}
	check("neighbour out of range", func(b *Model) { b.Neighbours[0].Index = 99 })
	check("negative distance", func(b *Model) { b.Neighbours[0].Distance = -1 })
	check("table shape mismatch", func(b *Model) { b.nt = b.nt + 1 })
	// An empty vote divides 0 by 0: every prediction would be NaN.
	check("no neighbours", func(b *Model) { b.Neighbours = nil })
	check("NaN distance", func(b *Model) { b.Neighbours[0].Distance = math.NaN() })
	// Each of these used to decode and predict NaN or +Inf.
	check("+Inf distance", func(b *Model) {
		for i := range b.Neighbours {
			b.Neighbours[i].Distance = math.Inf(1)
		}
	})
	check("distance whose square overflows", func(b *Model) { b.Neighbours[0].Distance = 1e200 })
	check("NaN target score", func(b *Model) { b.tgt.data[b.Neighbours[0].Index*b.tgt.cols] = math.NaN() })
	check("+Inf target score", func(b *Model) { b.tgt.data[0] = math.Inf(1) })
	check("zero target score", func(b *Model) { b.tgt.data[len(b.tgt.data)-1] = 0 })
	check("negative target score", func(b *Model) { b.tgt.data[1] = -2 })
	check("numerator overflow", func(b *Model) {
		b.Neighbours[0].Distance = 0
		b.tgt.data[b.Neighbours[0].Index*b.tgt.cols] = math.MaxFloat64
	})
	check("more neighbours than benchmarks", func(b *Model) {
		rows := len(b.tgt.data) / b.tgt.cols
		for len(b.Neighbours) <= rows {
			b.Neighbours = append(b.Neighbours, b.Neighbours[0])
		}
	})
}
