package transpose

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"sort"
	"sync"

	"repro/internal/dataset"
	"repro/internal/mlp"
	"repro/internal/regress"
	"repro/internal/spline"
)

// The model wire format, shared by every trained predictor artifact:
//
//	magic   [8]byte  "DTRKMODL"
//	version uint16   codecVersion (little endian)
//	kindLen uint16   length of the kind string
//	kind    []byte   stable model identifier ("nnt", "splt", "mlpt", ...)
//	payLen  uint64   payload length in bytes
//	payload []byte   kind-specific gob
//	crc     uint32   IEEE CRC-32 of kind + payload
//
// The header makes decoding fail loudly on foreign files and on version
// skew; the explicit payload length plus checksum reject truncated and
// corrupted payloads before any gob state is trusted. Floats travel as
// exact bit patterns (gob preserves them), so a decoded model's
// predictions are bitwise identical to the fitted original's.
const (
	codecMagic   = "DTRKMODL"
	codecVersion = 1
)

// ErrNotBinaryModel is returned by EncodeModel for models that do not
// implement BinaryModel.
var ErrNotBinaryModel = fmt.Errorf("transpose: model does not support serialization")

// BinaryModel is a trained Model that can be persisted and restored. The
// built-in artifacts (NNTModel, SPLTModel, MLPTModel, KNNMModel,
// gaknn.Model)
// all implement it.
type BinaryModel interface {
	Model
	// ModelKind returns the stable wire identifier of the model type.
	ModelKind() string
	// EncodePayload writes the model's gob payload (header excluded).
	EncodePayload(w io.Writer) error
}

var (
	kindMu    sync.RWMutex
	kindCodec = map[string]func(r io.Reader) (Model, error){}
)

// RegisterModelKind installs the payload decoder for one model kind.
// Packages defining BinaryModel implementations outside transpose (e.g.
// gaknn) register theirs in an init function. Kind strings are declared
// as the CodecKind of the method's descriptor in internal/method; the
// registry's drift test asserts the two sets match exactly. Registering
// a kind twice is a programming error and panics.
func RegisterModelKind(kind string, decode func(r io.Reader) (Model, error)) {
	if kind == "" || decode == nil {
		panic("transpose: RegisterModelKind with empty kind or nil decoder")
	}
	kindMu.Lock()
	defer kindMu.Unlock()
	if _, dup := kindCodec[kind]; dup {
		panic(fmt.Sprintf("transpose: model kind %q registered twice", kind))
	}
	kindCodec[kind] = decode
}

func init() {
	RegisterModelKind("nnt", decodeNNTModel)
	RegisterModelKind("splt", decodeSPLTModel)
	RegisterModelKind("mlpt", decodeMLPTModel)
}

// ModelKinds returns the registered model kinds, sorted. The method
// registry's drift test uses it to assert every method's CodecKind has a
// decoder and no decoder is orphaned.
func ModelKinds() []string {
	kindMu.RLock()
	defer kindMu.RUnlock()
	kinds := make([]string, 0, len(kindCodec))
	for k := range kindCodec {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	return kinds
}

// EncodeModel writes m to w in the versioned wire format. The model must
// implement BinaryModel.
func EncodeModel(w io.Writer, m Model) error {
	bm, ok := m.(BinaryModel)
	if !ok {
		return fmt.Errorf("%w (%T)", ErrNotBinaryModel, m)
	}
	var payload bytes.Buffer
	if err := bm.EncodePayload(&payload); err != nil {
		return fmt.Errorf("transpose: encoding %s payload: %w", bm.ModelKind(), err)
	}
	kind := bm.ModelKind()
	if kind == "" || len(kind) > math.MaxUint16 {
		return fmt.Errorf("transpose: invalid model kind %q", kind)
	}
	crc := crc32.NewIEEE()
	io.WriteString(crc, kind)
	crc.Write(payload.Bytes())

	var hdr bytes.Buffer
	hdr.WriteString(codecMagic)
	binary.Write(&hdr, binary.LittleEndian, uint16(codecVersion))
	binary.Write(&hdr, binary.LittleEndian, uint16(len(kind)))
	hdr.WriteString(kind)
	binary.Write(&hdr, binary.LittleEndian, uint64(payload.Len()))
	if _, err := w.Write(hdr.Bytes()); err != nil {
		return err
	}
	if _, err := w.Write(payload.Bytes()); err != nil {
		return err
	}
	return binary.Write(w, binary.LittleEndian, crc.Sum32())
}

// DecodeModel restores a model written by EncodeModel. It rejects foreign
// or truncated input, version mismatches, unknown kinds and payloads whose
// checksum does not verify.
func DecodeModel(r io.Reader) (Model, error) {
	var magic [8]byte
	if _, err := io.ReadFull(r, magic[:]); err != nil {
		return nil, fmt.Errorf("transpose: reading model header: %w", err)
	}
	if string(magic[:]) != codecMagic {
		return nil, fmt.Errorf("transpose: not a model file (magic %q)", magic[:])
	}
	var version, kindLen uint16
	if err := binary.Read(r, binary.LittleEndian, &version); err != nil {
		return nil, fmt.Errorf("transpose: reading model version: %w", err)
	}
	if version != codecVersion {
		return nil, fmt.Errorf("transpose: model format version %d, this build reads %d", version, codecVersion)
	}
	if err := binary.Read(r, binary.LittleEndian, &kindLen); err != nil {
		return nil, fmt.Errorf("transpose: reading model kind: %w", err)
	}
	kindBytes := make([]byte, kindLen)
	if _, err := io.ReadFull(r, kindBytes); err != nil {
		return nil, fmt.Errorf("transpose: reading model kind: %w", err)
	}
	kind := string(kindBytes)
	var payLen uint64
	if err := binary.Read(r, binary.LittleEndian, &payLen); err != nil {
		return nil, fmt.Errorf("transpose: reading payload length: %w", err)
	}
	const maxPayload = 1 << 30
	if payLen > maxPayload {
		return nil, fmt.Errorf("transpose: payload of %d bytes exceeds the %d limit", payLen, maxPayload)
	}
	// Read through a limit rather than into a payLen-sized buffer: the
	// length is untrusted, so memory must grow with the bytes present.
	payload, err := io.ReadAll(io.LimitReader(r, int64(payLen)))
	if err == nil && uint64(len(payload)) < payLen {
		err = io.ErrUnexpectedEOF
	}
	if err != nil {
		return nil, fmt.Errorf("transpose: truncated %s payload: %w", kind, err)
	}
	var wantCRC uint32
	if err := binary.Read(r, binary.LittleEndian, &wantCRC); err != nil {
		return nil, fmt.Errorf("transpose: reading checksum: %w", err)
	}
	crc := crc32.NewIEEE()
	io.WriteString(crc, kind)
	crc.Write(payload)
	if got := crc.Sum32(); got != wantCRC {
		return nil, fmt.Errorf("transpose: %s payload checksum mismatch (%08x != %08x): corrupted model", kind, got, wantCRC)
	}
	kindMu.RLock()
	decode := kindCodec[kind]
	kindMu.RUnlock()
	if decode == nil {
		return nil, fmt.Errorf("transpose: unknown model kind %q", kind)
	}
	m, err := decode(bytes.NewReader(payload))
	if err != nil {
		return nil, fmt.Errorf("transpose: decoding %s model: %w", kind, err)
	}
	return m, nil
}

// nntWire is NNTModel's payload: the fields Fit produces, nothing else.
type nntWire struct {
	PredIdx   []int
	Pair      []regress.Simple
	AppOnPred []float64
}

// ModelKind implements BinaryModel.
func (m *NNTModel) ModelKind() string { return "nnt" }

// EncodePayload implements BinaryModel.
func (m *NNTModel) EncodePayload(w io.Writer) error {
	return gob.NewEncoder(w).Encode(nntWire{PredIdx: m.PredIdx, Pair: m.Pair, AppOnPred: m.appOnPred})
}

func decodeNNTModel(r io.Reader) (Model, error) {
	var wire nntWire
	if err := gob.NewDecoder(r).Decode(&wire); err != nil {
		return nil, err
	}
	if len(wire.PredIdx) != len(wire.Pair) {
		return nil, fmt.Errorf("NN^T payload pairs %d indices with %d regressions", len(wire.PredIdx), len(wire.Pair))
	}
	for t, p := range wire.PredIdx {
		if p < 0 || p >= len(wire.AppOnPred) {
			return nil, fmt.Errorf("NN^T payload target %d references predictive machine %d of %d", t, p, len(wire.AppOnPred))
		}
	}
	return &NNTModel{PredIdx: wire.PredIdx, Pair: wire.Pair, appOnPred: wire.AppOnPred}, nil
}

// spltWire is SPLTModel's payload.
type spltWire struct {
	PredIdx   []int
	Pair      []*spline.Model
	AppOnPred []float64
}

// ModelKind implements BinaryModel.
func (m *SPLTModel) ModelKind() string { return "splt" }

// EncodePayload implements BinaryModel.
func (m *SPLTModel) EncodePayload(w io.Writer) error {
	return gob.NewEncoder(w).Encode(spltWire{PredIdx: m.PredIdx, Pair: m.Pair, AppOnPred: m.appOnPred})
}

func decodeSPLTModel(r io.Reader) (Model, error) {
	var wire spltWire
	if err := gob.NewDecoder(r).Decode(&wire); err != nil {
		return nil, err
	}
	if len(wire.PredIdx) != len(wire.Pair) {
		return nil, fmt.Errorf("SPL^T payload pairs %d indices with %d splines", len(wire.PredIdx), len(wire.Pair))
	}
	for t, p := range wire.PredIdx {
		if p < 0 || p >= len(wire.AppOnPred) {
			return nil, fmt.Errorf("SPL^T payload target %d references predictive machine %d of %d", t, p, len(wire.AppOnPred))
		}
		sp := wire.Pair[t]
		if sp == nil {
			return nil, fmt.Errorf("SPL^T payload target %d has no spline", t)
		}
		// A fitted spline is a line (2 coefficients, no knots) or a cubic
		// with one truncated term per knot.
		if len(sp.Coef) != 4+len(sp.Knots) && (len(sp.Coef) != 2 || len(sp.Knots) != 0) {
			return nil, fmt.Errorf("SPL^T payload target %d has %d coefficients for %d knots", t, len(sp.Coef), len(sp.Knots))
		}
	}
	return &SPLTModel{PredIdx: wire.PredIdx, Pair: wire.Pair, appOnPred: wire.AppOnPred}, nil
}

// mlptWire is MLPTModel's payload: the trained network plus the target
// half of the fitted fold (densified through dataset.Matrix's
// BinaryMarshaler, so the decoded model owns contiguous storage). The
// network travels as the one entry of Net.Nets, the payload's shape since
// models were saved, so stored MLP^T models keep loading.
type mlptWire struct {
	Net *mlptNets
	Tgt *dataset.Matrix
}

// mlptNets wraps the network list of an MLP^T payload, which always holds
// exactly one network.
type mlptNets struct {
	Nets []*mlp.Network
}

// ModelKind implements BinaryModel.
func (m *MLPTModel) ModelKind() string { return "mlpt" }

// EncodePayload implements BinaryModel.
func (m *MLPTModel) EncodePayload(w io.Writer) error {
	return gob.NewEncoder(w).Encode(mlptWire{Net: &mlptNets{Nets: []*mlp.Network{m.Net}}, Tgt: m.tgt})
}

func decodeMLPTModel(r io.Reader) (Model, error) {
	var wire mlptWire
	if err := gob.NewDecoder(r).Decode(&wire); err != nil {
		return nil, err
	}
	if wire.Net == nil || len(wire.Net.Nets) != 1 {
		return nil, fmt.Errorf("MLP^T payload must hold exactly one trained network")
	}
	net := wire.Net.Nets[0]
	if net == nil {
		return nil, fmt.Errorf("MLP^T payload network is nil")
	}
	// Gob carries only the serialised weight rows; rebuild the flat
	// storage the forward pass reads.
	if err := net.Repack(); err != nil {
		return nil, fmt.Errorf("MLP^T payload network: %w", err)
	}
	if wire.Tgt == nil {
		return nil, fmt.Errorf("MLP^T payload without target machines")
	}
	return &MLPTModel{Net: net, tgt: wire.Tgt}, nil
}
