package transpose

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"repro/internal/mlp"
	"repro/internal/spline"
)

// codecFold builds a deterministic fold big enough that every model family
// fits something non-trivial.
func codecFold(t *testing.T) Fold {
	t.Helper()
	pred, tgt := syntheticPair(t, 9, 7, 5, 0.02, 11)
	fold, _, err := NewFold(pred, tgt, "benchD", nil)
	if err != nil {
		t.Fatal(err)
	}
	return fold
}

func codecFitters(t *testing.T) []Fitter {
	t.Helper()
	mlpt := NewMLPT(5)
	mlpt.Config.Epochs = 40
	return []Fitter{NNT{}, NewSPLT(), mlpt, NewKNNM()}
}

func roundTrip(t *testing.T, m Model) Model {
	t.Helper()
	var buf bytes.Buffer
	if err := EncodeModel(&buf, m); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeModel(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	return got
}

func assertSamePredictions(t *testing.T, name string, want, got Model) {
	t.Helper()
	if want.NumTargets() != got.NumTargets() {
		t.Fatalf("%s: %d targets decoded as %d", name, want.NumTargets(), got.NumTargets())
	}
	a := make([]float64, want.NumTargets())
	b := make([]float64, got.NumTargets())
	if err := want.PredictTargets(a); err != nil {
		t.Fatal(err)
	}
	if err := got.PredictTargets(b); err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			t.Fatalf("%s: target %d predicts %v decoded vs %v fitted — not bitwise identical", name, i, b[i], a[i])
		}
	}
}

func TestModelRoundTripBitwiseIdentical(t *testing.T) {
	fold := codecFold(t)
	for _, ft := range codecFitters(t) {
		m, err := ft.Fit(fold)
		if err != nil {
			t.Fatalf("%s: %v", ft.Name(), err)
		}
		assertSamePredictions(t, ft.Name(), m, roundTrip(t, m))
	}
}

func TestNNTRoundTripServesFreshApplications(t *testing.T) {
	fold := codecFold(t)
	m, err := NNT{}.Fit(fold)
	if err != nil {
		t.Fatal(err)
	}
	got := roundTrip(t, m).(*NNTModel)
	fresh := make([]float64, len(fold.AppOnPred))
	for i, v := range fold.AppOnPred {
		fresh[i] = v * 1.75
	}
	want := make([]float64, m.NumTargets())
	have := make([]float64, m.NumTargets())
	if err := m.(*NNTModel).PredictTargetsWith(fresh, want); err != nil {
		t.Fatal(err)
	}
	if err := got.PredictTargetsWith(fresh, have); err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if math.Float64bits(want[i]) != math.Float64bits(have[i]) {
			t.Fatalf("target %d: %v vs %v", i, have[i], want[i])
		}
	}
}

func TestSPLTPredictTargetsWithMatchesPredictTargets(t *testing.T) {
	fold := codecFold(t)
	m, err := NewSPLT().Fit(fold)
	if err != nil {
		t.Fatal(err)
	}
	sm := m.(*SPLTModel)
	a := make([]float64, sm.NumTargets())
	b := make([]float64, sm.NumTargets())
	if err := sm.PredictTargets(a); err != nil {
		t.Fatal(err)
	}
	if err := sm.PredictTargetsWith(fold.AppOnPred, b); err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			t.Fatalf("target %d: %v vs %v", i, b[i], a[i])
		}
	}
	if err := sm.PredictTargetsWith(fold.AppOnPred[:1], b); err == nil {
		t.Fatal("want error for too few predictive scores")
	}
}

func TestDecodeModelRejectsDamage(t *testing.T) {
	fold := codecFold(t)
	m, err := NNT{}.Fit(fold)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := EncodeModel(&buf, m); err != nil {
		t.Fatal(err)
	}
	blob := buf.Bytes()

	t.Run("empty", func(t *testing.T) {
		if _, err := DecodeModel(bytes.NewReader(nil)); err == nil {
			t.Fatal("want error")
		}
	})
	t.Run("foreign magic", func(t *testing.T) {
		bad := append([]byte("NOTMODEL"), blob[8:]...)
		if _, err := DecodeModel(bytes.NewReader(bad)); err == nil || !strings.Contains(err.Error(), "not a model file") {
			t.Fatalf("got %v", err)
		}
	})
	t.Run("version mismatch", func(t *testing.T) {
		bad := append([]byte(nil), blob...)
		bad[8], bad[9] = 0xff, 0xff
		if _, err := DecodeModel(bytes.NewReader(bad)); err == nil || !strings.Contains(err.Error(), "version") {
			t.Fatalf("got %v", err)
		}
	})
	t.Run("unknown kind", func(t *testing.T) {
		bad := append([]byte(nil), blob...)
		// kind starts after magic(8) + version(2) + kindLen(2).
		bad[12], bad[13], bad[14] = 'z', 'z', 'z'
		if _, err := DecodeModel(bytes.NewReader(bad)); err == nil {
			t.Fatal("want error")
		}
	})
	t.Run("truncated", func(t *testing.T) {
		for _, cut := range []int{9, 13, 20, len(blob) / 2, len(blob) - 3} {
			if _, err := DecodeModel(bytes.NewReader(blob[:cut])); err == nil {
				t.Fatalf("truncation at %d of %d bytes accepted", cut, len(blob))
			}
		}
	})
	t.Run("corrupted payload", func(t *testing.T) {
		bad := append([]byte(nil), blob...)
		bad[len(bad)/2] ^= 0x40
		if _, err := DecodeModel(bytes.NewReader(bad)); err == nil || !strings.Contains(err.Error(), "checksum") {
			t.Fatalf("got %v", err)
		}
	})
	t.Run("trailing garbage is ignored by design", func(t *testing.T) {
		// Streams may carry several models back to back; the decoder must
		// consume exactly one.
		r := bytes.NewReader(append(append([]byte(nil), blob...), blob...))
		if _, err := DecodeModel(r); err != nil {
			t.Fatal(err)
		}
		if _, err := DecodeModel(r); err != nil {
			t.Fatalf("second model in stream: %v", err)
		}
		if _, err := DecodeModel(r); err != io.ErrUnexpectedEOF && err != nil && !strings.Contains(err.Error(), "EOF") {
			t.Fatalf("stream end: %v", err)
		}
	})
}

// TestSPLTDecodeRejectsMalformedSpline: a spline whose coefficient count
// does not match its knots would index out of range at prediction.
func TestSPLTDecodeRejectsMalformedSpline(t *testing.T) {
	m, err := NewSPLT().Fit(codecFold(t))
	if err != nil {
		t.Fatal(err)
	}
	sm := m.(*SPLTModel)
	for _, coef := range [][]float64{nil, {1}, {1, 2, 3}, make([]float64, 5+len(sm.Pair[0].Knots))} {
		bad := *sm.Pair[0]
		bad.Coef = coef
		pairs := append([]*spline.Model{&bad}, sm.Pair[1:]...)
		var buf bytes.Buffer
		if err := EncodeModel(&buf, &SPLTModel{PredIdx: sm.PredIdx, Pair: pairs, appOnPred: sm.appOnPred}); err != nil {
			t.Fatal(err)
		}
		if _, err := DecodeModel(&buf); err == nil || !strings.Contains(err.Error(), "coefficients") {
			t.Fatalf("%d coefficients for %d knots: got %v", len(coef), len(bad.Knots), err)
		}
	}
}

// TestDecodeModelHostileLengthAllocatesLittle feeds a header claiming a
// 1 GiB payload followed by 10 bytes: decoding must fail as truncated
// without allocating for the claimed length.
func TestDecodeModelHostileLengthAllocatesLittle(t *testing.T) {
	var blob bytes.Buffer
	blob.WriteString(codecMagic)
	binary.Write(&blob, binary.LittleEndian, uint16(codecVersion))
	binary.Write(&blob, binary.LittleEndian, uint16(3))
	blob.WriteString("nnt")
	binary.Write(&blob, binary.LittleEndian, uint64(1<<30))
	blob.Write(make([]byte, 10))

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := DecodeModel(bytes.NewReader(blob.Bytes()))
	runtime.ReadMemStats(&after)
	if err == nil || !strings.Contains(err.Error(), "truncated") {
		t.Fatalf("got %v, want a truncated-payload error", err)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 1<<20 {
		t.Fatalf("decoding a %d-byte file allocated %d bytes", blob.Len(), alloc)
	}
}

func TestEncodeModelRejectsNonBinaryModels(t *testing.T) {
	if err := EncodeModel(io.Discard, fakeModel{}); err == nil {
		t.Fatal("want ErrNotBinaryModel")
	}
}

type fakeModel struct{}

func (fakeModel) NumTargets() int                { return 0 }
func (fakeModel) PredictTargets([]float64) error { return nil }

// rawModel encodes a hand-built payload under a model kind.
type rawModel struct {
	kind    string
	payload []byte
}

func (rawModel) NumTargets() int                   { return 0 }
func (rawModel) PredictTargets([]float64) error    { return nil }
func (m rawModel) ModelKind() string               { return m.kind }
func (m rawModel) EncodePayload(w io.Writer) error { _, err := w.Write(m.payload); return err }

// TestMLPTDecodeRequiresOneNetwork pins the MLP^T payload to exactly one
// network: payloads with none or two are refused, and one network
// decodes to a model that predicts bit for bit like the fitted one.
func TestMLPTDecodeRequiresOneNetwork(t *testing.T) {
	fold := codecFold(t)
	mlpt := NewMLPT(9)
	mlpt.Config.Epochs = 25
	m, err := mlpt.Fit(fold)
	if err != nil {
		t.Fatal(err)
	}
	fitted := m.(*MLPTModel)
	for _, nets := range [][]*mlp.Network{nil, {fitted.Net}, {fitted.Net, fitted.Net}} {
		var payload, blob bytes.Buffer
		if err := gob.NewEncoder(&payload).Encode(mlptWire{Net: &mlptNets{Nets: nets}, Tgt: fitted.tgt}); err != nil {
			t.Fatal(err)
		}
		if err := EncodeModel(&blob, rawModel{kind: "mlpt", payload: payload.Bytes()}); err != nil {
			t.Fatal(err)
		}
		got, err := DecodeModel(&blob)
		if len(nets) != 1 {
			if err == nil || !strings.Contains(err.Error(), "exactly one") {
				t.Fatalf("%d networks: got %v, want a one-network error", len(nets), err)
			}
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		assertSamePredictions(t, "MLP^T one network", m, got)
	}
	// The fuzz seeds: a one-network model decodes, and a two-network
	// ensemble payload of the earlier format decodes as gob but is refused.
	for name, valid := range map[string]bool{"valid-mlpt": true, "mlpt-two-networks": false} {
		_, err := DecodeModel(bytes.NewReader(readModelSeed(t, name)))
		if valid && err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !valid && (err == nil || !strings.Contains(err.Error(), "exactly one")) {
			t.Fatalf("%s: got %v, want a one-network error", name, err)
		}
	}
}

// readModelSeed returns the model bytes of one FuzzDecodeModel seed file.
func readModelSeed(t *testing.T, name string) []byte {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("testdata", "fuzz", "FuzzDecodeModel", name))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	if len(lines) != 2 || !strings.HasPrefix(lines[1], "[]byte(") || !strings.HasSuffix(lines[1], ")") {
		t.Fatalf("%s: not a one-value []byte corpus file", name)
	}
	blob, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(lines[1], "[]byte("), ")"))
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return []byte(blob)
}
