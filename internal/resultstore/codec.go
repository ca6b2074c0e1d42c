package resultstore

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"reflect"
	"strings"
	"sync"
)

// The payload codec. A payload is the 8-byte fingerprint of the value's
// shape followed by the value:
//
//	float64      IEEE bits, 8 bytes little endian
//	int kinds    zig-zag varint
//	uint kinds   uvarint
//	bool         one byte, 0 or 1
//	string       uvarint length, then the bytes
//	slice        uvarint length, then the elements
//	struct       the exported fields in declaration order
//
// Any other kind (map, pointer, interface, array, chan, func, ...) is not
// encodable, so Put fails naming the type.
//
// The shape is the type with every Go type name erased: field names and
// kinds, recursively. A payload written for another shape fails to decode,
// so a result type changed under a stored entry is a recomputable miss
// rather than a misread value. Decoding checks every length against the
// bytes left before allocating and rejects trailing bytes, because the
// HTTP backend serves entries any client uploaded. A zero-length slice
// decodes as nil.
//
// Each Go type's codec is built once and cached.

// fingerprintLen is the length of the shape fingerprint that opens every
// payload.
const fingerprintLen = 8

// codec encodes and decodes one Go type.
type codec struct {
	// fp fingerprints the type's shape.
	fp [fingerprintLen]byte
	// min is the fewest bytes one encoded value takes, so a hostile
	// slice length can be bounded by the bytes left.
	min int
	enc func(b []byte, v reflect.Value) []byte
	dec func(d *decoder, v reflect.Value) error
}

// decoder walks one payload.
type decoder struct {
	buf []byte
}

var errTruncated = errors.New("truncated payload")

func (d *decoder) next(n int) ([]byte, error) {
	if n > len(d.buf) {
		return nil, errTruncated
	}
	b := d.buf[:n]
	d.buf = d.buf[n:]
	return b, nil
}

func (d *decoder) uvarint() (uint64, error) {
	x, n := binary.Uvarint(d.buf)
	if n <= 0 {
		return 0, errors.New("malformed varint")
	}
	d.buf = d.buf[n:]
	return x, nil
}

// length reads a slice or string length and checks that that many
// values of at least size bytes each fit in what is left.
func (d *decoder) length(size int) (int, error) {
	n, err := d.uvarint()
	if err != nil {
		return 0, err
	}
	if n > uint64(len(d.buf)/size) {
		return 0, fmt.Errorf("length %d exceeds the %d bytes left", n, len(d.buf))
	}
	return int(n), nil
}

// codecs caches one *codec per reflect.Type.
var codecs sync.Map

// codecFor returns the codec of t, building and caching it on first use.
func codecFor(t reflect.Type) (*codec, error) {
	if c, ok := codecs.Load(t); ok {
		return c.(*codec), nil
	}
	if t == nil {
		return nil, errors.New("resultstore: cannot encode a nil value")
	}
	var shape strings.Builder
	c, err := build(t, &shape, map[reflect.Type]bool{})
	if err != nil {
		return nil, fmt.Errorf("resultstore: cannot encode %v: %w", t, err)
	}
	sum := sha256.Sum256([]byte(shape.String()))
	copy(c.fp[:], sum[:])
	actual, _ := codecs.LoadOrStore(t, c)
	return actual.(*codec), nil
}

// build assembles the codec of t and writes its shape. open holds the
// struct types being built, so recursive types fail instead of looping.
func build(t reflect.Type, shape *strings.Builder, open map[reflect.Type]bool) (*codec, error) {
	switch k := t.Kind(); k {
	case reflect.Bool:
		shape.WriteString("bool")
		return &codec{min: 1, enc: encBool, dec: decBool}, nil
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		shape.WriteString(k.String())
		return &codec{min: 1, enc: encInt, dec: decInt}, nil
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		shape.WriteString(k.String())
		return &codec{min: 1, enc: encUint, dec: decUint}, nil
	case reflect.Float64:
		shape.WriteString("float64")
		return &codec{min: 8, enc: encFloat64, dec: decFloat64}, nil
	case reflect.String:
		shape.WriteString("string")
		return &codec{min: 1, enc: encString, dec: decString}, nil
	case reflect.Slice:
		shape.WriteString("[]")
		elem, err := build(t.Elem(), shape, open)
		if err != nil {
			return nil, err
		}
		if elem.min == 0 {
			return nil, fmt.Errorf("slice of zero-size %v", t.Elem())
		}
		if t == float64sType {
			return &codec{min: 1, enc: encFloat64s, dec: decFloat64s}, nil
		}
		return sliceCodec(t, elem), nil
	case reflect.Struct:
		if open[t] {
			return nil, fmt.Errorf("recursive type %v", t)
		}
		open[t] = true
		defer delete(open, t)
		shape.WriteString("struct{")
		var fields []int
		var fieldCodecs []*codec
		size := 0
		for i := 0; i < t.NumField(); i++ {
			f := t.Field(i)
			if !f.IsExported() {
				continue
			}
			shape.WriteString(f.Name)
			shape.WriteByte(' ')
			c, err := build(f.Type, shape, open)
			if err != nil {
				return nil, fmt.Errorf("field %s: %w", f.Name, err)
			}
			shape.WriteByte(';')
			fields = append(fields, i)
			fieldCodecs = append(fieldCodecs, c)
			size += c.min
		}
		shape.WriteByte('}')
		return structCodec(fields, fieldCodecs, size), nil
	default:
		return nil, fmt.Errorf("unsupported kind %s", k)
	}
}

var float64sType = reflect.TypeOf([]float64(nil))

func encBool(b []byte, v reflect.Value) []byte {
	if v.Bool() {
		return append(b, 1)
	}
	return append(b, 0)
}

func decBool(d *decoder, v reflect.Value) error {
	b, err := d.next(1)
	if err != nil {
		return err
	}
	if b[0] > 1 {
		return fmt.Errorf("bool byte %d", b[0])
	}
	v.SetBool(b[0] == 1)
	return nil
}

func encInt(b []byte, v reflect.Value) []byte { return binary.AppendVarint(b, v.Int()) }

func decInt(d *decoder, v reflect.Value) error {
	x, n := binary.Varint(d.buf)
	if n <= 0 {
		return errors.New("malformed varint")
	}
	d.buf = d.buf[n:]
	if v.OverflowInt(x) {
		return fmt.Errorf("%d overflows %v", x, v.Type())
	}
	v.SetInt(x)
	return nil
}

func encUint(b []byte, v reflect.Value) []byte { return binary.AppendUvarint(b, v.Uint()) }

func decUint(d *decoder, v reflect.Value) error {
	x, err := d.uvarint()
	if err != nil {
		return err
	}
	if v.OverflowUint(x) {
		return fmt.Errorf("%d overflows %v", x, v.Type())
	}
	v.SetUint(x)
	return nil
}

func encFloat64(b []byte, v reflect.Value) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(v.Float()))
}

func decFloat64(d *decoder, v reflect.Value) error {
	b, err := d.next(8)
	if err != nil {
		return err
	}
	v.SetFloat(math.Float64frombits(binary.LittleEndian.Uint64(b)))
	return nil
}

func encString(b []byte, v reflect.Value) []byte {
	s := v.String()
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

func decString(d *decoder, v reflect.Value) error {
	n, err := d.length(1)
	if err != nil {
		return err
	}
	s, _ := d.next(n)
	v.SetString(string(s))
	return nil
}

// float64s returns the []float64 held by v without copying it.
func float64s(v reflect.Value) []float64 {
	if v.CanAddr() {
		return *v.Addr().Interface().(*[]float64)
	}
	return v.Interface().([]float64)
}

// encFloat64s and decFloat64s are the bulk path of []float64, the bulk
// of every stored result.
func encFloat64s(b []byte, v reflect.Value) []byte {
	fs := float64s(v)
	b = binary.AppendUvarint(b, uint64(len(fs)))
	for _, f := range fs {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(f))
	}
	return b
}

func decFloat64s(d *decoder, v reflect.Value) error {
	n, err := d.length(8)
	if err != nil {
		return err
	}
	if n == 0 {
		v.SetZero()
		return nil
	}
	fs := make([]float64, n)
	b, _ := d.next(8 * n)
	for i := range fs {
		fs[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
	}
	*v.Addr().Interface().(*[]float64) = fs
	return nil
}

func sliceCodec(t reflect.Type, elem *codec) *codec {
	return &codec{
		min: 1,
		enc: func(b []byte, v reflect.Value) []byte {
			n := v.Len()
			b = binary.AppendUvarint(b, uint64(n))
			for i := 0; i < n; i++ {
				b = elem.enc(b, v.Index(i))
			}
			return b
		},
		dec: func(d *decoder, v reflect.Value) error {
			n, err := d.length(elem.min)
			if err != nil {
				return err
			}
			if n == 0 {
				v.SetZero()
				return nil
			}
			s := reflect.MakeSlice(t, n, n)
			for i := 0; i < n; i++ {
				if err := elem.dec(d, s.Index(i)); err != nil {
					return err
				}
			}
			v.Set(s)
			return nil
		},
	}
}

func structCodec(fields []int, fieldCodecs []*codec, size int) *codec {
	return &codec{
		min: size,
		enc: func(b []byte, v reflect.Value) []byte {
			for j, i := range fields {
				b = fieldCodecs[j].enc(b, v.Field(i))
			}
			return b
		},
		dec: func(d *decoder, v reflect.Value) error {
			for j, i := range fields {
				if err := fieldCodecs[j].dec(d, v.Field(i)); err != nil {
					return err
				}
			}
			return nil
		},
	}
}

// marshal encodes v as a payload: its shape fingerprint, then its value.
func marshal(v any) ([]byte, error) {
	c, err := codecFor(reflect.TypeOf(v))
	if err != nil {
		return nil, err
	}
	b := make([]byte, 0, 256)
	b = append(b, c.fp[:]...)
	return c.enc(b, reflect.ValueOf(v)), nil
}

// unmarshal decodes a payload written by marshal into the value v points
// to. A payload of another shape, a malformed or truncated one, or one
// with trailing bytes is an error.
func unmarshal(payload []byte, v any) error {
	rv := reflect.ValueOf(v)
	if rv.Kind() != reflect.Pointer || rv.IsNil() {
		return fmt.Errorf("resultstore: decoding into %T, want a non-nil pointer", v)
	}
	c, err := codecFor(rv.Type().Elem())
	if err != nil {
		return err
	}
	if len(payload) < fingerprintLen {
		return errors.New("resultstore: payload shorter than its fingerprint")
	}
	if [fingerprintLen]byte(payload) != c.fp {
		return fmt.Errorf("resultstore: payload fingerprint %x is not the shape of %v (%x)",
			payload[:fingerprintLen], rv.Type().Elem(), c.fp)
	}
	d := decoder{buf: payload[fingerprintLen:]}
	if err := c.dec(&d, rv.Elem()); err != nil {
		return fmt.Errorf("resultstore: decoding %v: %w", rv.Type().Elem(), err)
	}
	if len(d.buf) != 0 {
		return fmt.Errorf("resultstore: decoding %v: %d trailing bytes", rv.Type().Elem(), len(d.buf))
	}
	return nil
}
