package transpose_test

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math"
	"testing"

	_ "repro/internal/gaknn" // registers the "gaknn" model kind
	"repro/internal/transpose"
)

// reseal returns blob with its trailing checksum recomputed when blob is
// laid out as one model file (header, payload of the declared length,
// checksum), and nil otherwise. Random mutations of a model almost never
// keep the checksum valid, so without resealing the fuzzer would not get
// past it to the payload decoders.
func reseal(blob []byte) []byte {
	const kindAt = 12 // magic (8) + version (2) + kind length (2)
	if len(blob) < kindAt {
		return nil
	}
	kindEnd := kindAt + int(binary.LittleEndian.Uint16(blob[10:kindAt]))
	if len(blob) < kindEnd+8 {
		return nil
	}
	payLen := binary.LittleEndian.Uint64(blob[kindEnd:])
	payAt := kindEnd + 8
	if payLen != uint64(len(blob)-payAt-4) {
		return nil
	}
	out := append([]byte(nil), blob...)
	crc := crc32.NewIEEE()
	crc.Write(out[kindAt:kindEnd])
	crc.Write(out[payAt : len(out)-4])
	binary.LittleEndian.PutUint32(out[len(out)-4:], crc.Sum32())
	return out
}

// FuzzDecodeModel feeds hostile model files to DecodeModel, as is and
// with a valid checksum: decoding must never panic, and neither may
// PredictTargets on any model it accepts. A GA-kNN model it accepts
// must predict finite scores. The seed corpus in
// testdata/fuzz/FuzzDecodeModel holds one valid model of each kind, a
// truncated model, a header claiming a 1 GiB payload, GA-kNN models
// with +Inf distances, distances whose square overflows and a NaN
// target score, and an MLP^T payload holding two networks.
func FuzzDecodeModel(f *testing.F) {
	f.Fuzz(func(t *testing.T, blob []byte) {
		for _, in := range [][]byte{blob, reseal(blob)} {
			if in == nil {
				continue
			}
			m, err := transpose.DecodeModel(bytes.NewReader(in))
			if err != nil {
				continue
			}
			if n := m.NumTargets(); n < 0 || n > len(in) {
				t.Fatalf("decoded model claims %d targets from %d bytes", n, len(in))
			}
			pred := make([]float64, m.NumTargets())
			if err := m.PredictTargets(pred); err != nil {
				continue
			}
			if bm, ok := m.(transpose.BinaryModel); ok && bm.ModelKind() == "gaknn" {
				for i, v := range pred {
					if math.IsNaN(v) || math.IsInf(v, 0) {
						t.Fatalf("decoded GA-kNN model predicts %v on target %d", v, i)
					}
				}
			}
		}
	})
}
