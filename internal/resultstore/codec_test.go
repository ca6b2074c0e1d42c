package resultstore

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

// testMetrics and testFold have the shape of transpose.Metrics and
// transpose.FoldResult, the dominant stored result.
type testMetrics struct {
	RankCorr, Top1Err, MeanErr float64
}

type testFold struct {
	Split, App        string
	Metrics           testMetrics
	Actual, Predicted []float64
}

// sameFolds reports whether a and b are equal bit for bit, nil slices
// included.
func sameFolds(a, b []testFold) bool {
	if len(a) != len(b) || (a == nil) != (b == nil) {
		return false
	}
	sameFloats := func(x, y []float64) bool {
		if len(x) != len(y) || (x == nil) != (y == nil) {
			return false
		}
		for i := range x {
			if math.Float64bits(x[i]) != math.Float64bits(y[i]) {
				return false
			}
		}
		return true
	}
	for i := range a {
		x, y := a[i], b[i]
		if x.Split != y.Split || x.App != y.App ||
			!sameFloats([]float64{x.Metrics.RankCorr, x.Metrics.Top1Err, x.Metrics.MeanErr},
				[]float64{y.Metrics.RankCorr, y.Metrics.Top1Err, y.Metrics.MeanErr}) ||
			!sameFloats(x.Actual, y.Actual) || !sameFloats(x.Predicted, y.Predicted) {
			return false
		}
	}
	return true
}

// TestCodecPreservesFloatBits pins the property the byte-identical
// cold/warm guarantee rests on: decoding an encoded value yields the
// exact float bit patterns that went in, in slices and struct fields.
func TestCodecPreservesFloatBits(t *testing.T) {
	in := []float64{0, math.Copysign(0, -1), 5e-324, math.NaN(), math.Inf(1), math.Inf(-1), 0.1 + 0.2}
	var out []float64
	pay, err := marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	if err := unmarshal(pay, &out); err != nil {
		t.Fatal(err)
	}
	if len(out) != len(in) {
		t.Fatalf("%d values", len(out))
	}
	for i := range in {
		if math.Float64bits(out[i]) != math.Float64bits(in[i]) {
			t.Fatalf("value %d: %x != %x", i, math.Float64bits(out[i]), math.Float64bits(in[i]))
		}
	}
	folds := []testFold{{Metrics: testMetrics{RankCorr: math.Copysign(0, -1), Top1Err: math.NaN(), MeanErr: 5e-324}}}
	var got []testFold
	if pay, err = marshal(folds); err != nil {
		t.Fatal(err)
	}
	if err := unmarshal(pay, &got); err != nil || !sameFolds(got, folds) {
		t.Fatalf("struct fields: %+v, %v", got, err)
	}
}

// TestPayloadGoldenBytes pins the payload format. If it fails, the
// format changed: bump entryVersion so stores written by older builds
// are recomputed rather than misread, then update the golden bytes.
func TestPayloadGoldenBytes(t *testing.T) {
	v := []testFold{{
		Split: "Xeon", App: "gcc",
		Metrics: testMetrics{RankCorr: 0.5, Top1Err: -1, MeanErr: 2},
		Actual:  []float64{1.25},
	}}
	// The fingerprint is the first 8 bytes of the SHA-256 of the shape
	// "[]struct{Split string;App string;Metrics struct{RankCorr float64;
	// Top1Err float64;MeanErr float64;};Actual []float64;Predicted
	// []float64;}" (one line).
	golden := "420d4e9cef9d7f57" +
		"01" + // one fold
		"04" + hex.EncodeToString([]byte("Xeon")) +
		"03" + hex.EncodeToString([]byte("gcc")) +
		"000000000000e03f" + "000000000000f0bf" + "0000000000000040" + // metrics
		"01" + "000000000000f43f" + // Actual
		"00" // Predicted: nil
	pay, err := marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	if got := hex.EncodeToString(pay); got != golden {
		t.Fatalf("payload\n got %s\nwant %s\n(format changed: bump entryVersion, then update the golden bytes)", got, golden)
	}
	if entryVersion != 2 {
		t.Fatalf("entryVersion %d: update this test's golden bytes with the bump", entryVersion)
	}
}

// TestCodecShape checks what the fingerprint sees: Go type names are
// erased, field names and kinds are not, and a payload of one shape
// never decodes into another.
func TestCodecShape(t *testing.T) {
	type renamed struct {
		Name   string
		Values []float64
	}
	type otherField struct {
		Label  string
		Values []float64
	}
	type otherKind struct {
		Name   string
		Values []int64
	}
	pay, err := marshal(payload{Name: "x", Values: []float64{1}})
	if err != nil {
		t.Fatal(err)
	}
	var same renamed
	if err := unmarshal(pay, &same); err != nil || same.Name != "x" || same.Values[0] != 1 {
		t.Fatalf("same shape under another type name: %+v, %v", same, err)
	}
	if err := unmarshal(pay, &otherField{}); err == nil {
		t.Fatal("renamed field decoded")
	}
	if err := unmarshal(pay, &otherKind{}); err == nil {
		t.Fatal("changed field kind decoded")
	}
}

// TestCodecKinds round-trips every supported kind, and rejects the
// unsupported ones with an error naming the type.
func TestCodecKinds(t *testing.T) {
	type scalars struct {
		B    bool
		I    int
		I8   int8
		I64  int64
		U16  uint16
		U    uint
		S    string
		Ss   []string
		Nest [][]int
		skip func() // unexported: not encoded
	}
	in := scalars{B: true, I: -1 << 40, I8: -128, I64: math.MaxInt64, U16: 65535, U: 7,
		S: "é", Ss: []string{"", "a"}, Nest: [][]int{{1, -2}, nil}}
	pay, err := marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	var out scalars
	if err := unmarshal(pay, &out); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(out, in) {
		t.Fatalf("round trip %+v != %+v", out, in)
	}

	type recursive struct{ Kids []recursive }
	for _, v := range []any{
		map[string]float64{}, new(float64), struct{ V any }{}, make(chan int),
		func() {}, [2]float64{}, struct{ E []struct{} }{}, recursive{}, nil,
	} {
		s := New()
		err := s.Put(testKey("kinds"), v, nil)
		if err == nil {
			t.Fatalf("Put(%T) succeeded", v)
		}
		if v != nil && !strings.Contains(err.Error(), reflect.TypeOf(v).String()) {
			t.Fatalf("Put(%T) error %q does not name the type", v, err)
		}
	}
}

// TestCodecCanonicalisesEmptySlices pins property 2 of the codec: a
// zero-length slice decodes as nil, so Put's round-tripped value is what
// a warm Get returns.
func TestCodecCanonicalisesEmptySlices(t *testing.T) {
	s := New()
	key := testKey("empty")
	var out payload
	if err := s.Put(key, payload{Values: []float64{}}, &out); err != nil {
		t.Fatal(err)
	}
	if out.Values != nil {
		t.Fatalf("Put round trip kept an empty non-nil slice")
	}
	warm := payload{Values: []float64{3}}
	if ok, err := s.Get(key, &warm); err != nil || !ok || warm.Values != nil {
		t.Fatalf("Get = %v, %v, %+v", ok, err, warm)
	}
	var top []testFold
	if err := s.Put(key, []testFold{}, &top); err != nil || top != nil {
		t.Fatalf("top-level empty slice: %v, %v", top, err)
	}
}

// hostilePayloads are short payloads that carry a valid fingerprint but
// claim 2^40 elements: of the outer slice, of a fold's Actual vector, and
// of a string.
func hostilePayloads(t testing.TB) map[string][]byte {
	t.Helper()
	c, err := codecFor(reflect.TypeOf([]testFold(nil)))
	if err != nil {
		t.Fatal(err)
	}
	head := func() []byte { return append([]byte(nil), c.fp[:]...) }
	folds := binary.AppendUvarint(head(), 1<<40)
	actual := append(binary.AppendUvarint(head(), 1), 0, 0)
	actual = append(actual, make([]byte, 24)...)
	actual = binary.AppendUvarint(actual, 1<<40)
	str := binary.AppendUvarint(binary.AppendUvarint(head(), 1), 1<<40)
	return map[string][]byte{
		"folds":  append(folds, make([]byte, 16)...),
		"actual": append(actual, make([]byte, 4)...),
		"string": append(str, make([]byte, 32)...),
	}
}

// TestDecodeRejectsHostileLengths feeds ~30-byte payloads claiming 2^40
// elements: each must fail without allocating what it claims.
func TestDecodeRejectsHostileLengths(t *testing.T) {
	for name, pay := range hostilePayloads(t) {
		var before, after runtime.MemStats
		var got []testFold
		runtime.GC()
		runtime.ReadMemStats(&before)
		err := unmarshal(pay, &got)
		runtime.ReadMemStats(&after)
		if err == nil || !strings.Contains(err.Error(), "exceeds") {
			t.Fatalf("%s: got %v, want a length error", name, err)
		}
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 1<<20 {
			t.Fatalf("%s: decoding a %d-byte payload allocated %d bytes", name, len(pay), alloc)
		}
	}
}

// TestDecodeRejectsMalformed covers the remaining ways a payload with a
// valid fingerprint can be wrong: truncation, trailing bytes and
// non-canonical bools.
func TestDecodeRejectsMalformed(t *testing.T) {
	pay, err := marshal([]testFold{{Split: "s", Actual: []float64{1, 2}}})
	if err != nil {
		t.Fatal(err)
	}
	var got []testFold
	for i := 0; i < len(pay); i++ {
		if err := unmarshal(pay[:i], &got); err == nil {
			t.Fatalf("payload truncated to %d of %d bytes decoded", i, len(pay))
		}
	}
	if err := unmarshal(append(pay, 0), &got); err == nil || !strings.Contains(err.Error(), "trailing") {
		t.Fatalf("trailing byte: %v", err)
	}
	bpay, err := marshal(true)
	if err != nil {
		t.Fatal(err)
	}
	bpay[len(bpay)-1] = 2
	var b bool
	if err := unmarshal(bpay, &b); err == nil {
		t.Fatal("bool byte 2 decoded")
	}
	if err := unmarshal(pay, got); err == nil {
		t.Fatal("decoding into a non-pointer succeeded")
	}
}

// FuzzDecodePayload decodes arbitrary bytes into a FoldResult-shaped
// value: decoding never panics, and whatever it accepts re-encodes and
// decodes back to the same value bit for bit. The seed corpus in
// testdata/fuzz/FuzzDecodePayload holds valid payloads (several folds,
// NaN and -0 metrics, empty and nil vectors), the hostile lengths, a
// truncation, trailing bytes and a foreign fingerprint.
func FuzzDecodePayload(f *testing.F) {
	f.Fuzz(func(t *testing.T, in []byte) {
		var v []testFold
		if err := unmarshal(in, &v); err != nil {
			return
		}
		again, err := marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		var w []testFold
		if err := unmarshal(again, &w); err != nil {
			t.Fatalf("re-encoded payload does not decode: %v", err)
		}
		if !sameFolds(v, w) {
			t.Fatalf("round trip changed the value:\n%+v\n%+v", v, w)
		}
		if len(again) > len(in) || !bytes.Equal(again[:fingerprintLen], in[:fingerprintLen]) {
			t.Fatalf("re-encoding grew the payload or changed its fingerprint")
		}
	})
}
