package serve

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"unicode/utf16"
	"unicode/utf8"
)

// maxJSONDepth is encoding/json's nesting limit: a value nested deeper
// than this many arrays and objects is a syntax error.
const maxJSONDepth = 10000

// rankFields are RankRequest's JSON keys, indexed by the rankField*
// constants.
var rankFields = [...]string{"family", "method", "app", "scores", "top"}

const (
	rankFieldFamily = iota
	rankFieldMethod
	rankFieldApp
	rankFieldScores
	rankFieldTop
	rankFieldUnknown
)

// decodeRankRequest decodes the body of POST /v1/rank into req in one
// pass over b, with no reflection and each score parsed straight from
// its bytes. It accepts exactly the bodies
// json.NewDecoder(bytes.NewReader(b)).Decode(req) accepts and leaves req
// exactly as that call would (FuzzDecodeRankRequest pins the two against
// each other), including encoding/json's less obvious rules:
//
//   - only the first value is read; bytes after it are ignored;
//   - a top-level null is accepted and changes nothing;
//   - keys match exactly first, then case-insensitively (EqualFold);
//   - null sets scores to nil, is a no-op for the other fields and leaves
//     an array element's previous value;
//   - a repeated scores key decodes in place into the previous backing
//     array, and an empty array is empty but non-nil;
//   - top takes integers only; scores reject out-of-range numbers;
//   - unknown fields are skipped but grammar-checked, nested at most
//     maxJSONDepth deep;
//   - invalid UTF-8 and unpaired \u surrogates in strings become U+FFFD.
//
// Only the error messages differ from encoding/json's.
func decodeRankRequest(b []byte, req *RankRequest) error {
	d := rankDecoder{b: b}
	switch c, ok := d.peek(); {
	case !ok:
		return errors.New("empty body")
	case c == '{':
		return d.object(req)
	case c == 'n':
		return d.literal("null")
	default:
		return d.mismatch("rank request")
	}
}

// rankDecoder is the cursor of one decodeRankRequest call.
type rankDecoder struct {
	b []byte
	i int
}

// peek skips white space and returns the next byte; ok is false at the
// end of the input.
func (d *rankDecoder) peek() (c byte, ok bool) {
	b, i := d.b, d.i
	for ; i < len(b); i++ {
		switch c := b[i]; c {
		case ' ', '\t', '\n', '\r':
		default:
			d.i = i
			return c, true
		}
	}
	d.i = i
	return 0, false
}

// syntax reports the byte at the cursor as invalid in context.
func (d *rankDecoder) syntax(context string) error {
	if d.i >= len(d.b) {
		return errors.New("unexpected end of JSON input")
	}
	return fmt.Errorf("invalid character %q %s at offset %d", d.b[d.i], context, d.i)
}

// mismatch reports that the value at the cursor cannot go into field:
// it is of another type, or no value at all.
func (d *rankDecoder) mismatch(field string) error {
	if _, ok := d.peek(); !ok {
		return d.syntax("")
	}
	return fmt.Errorf("%s cannot take the value at offset %d", field, d.i)
}

// object decodes the top-level object; the cursor is at its '{'.
func (d *rankDecoder) object(req *RankRequest) error {
	d.i++
	if c, _ := d.peek(); c == '}' {
		return nil
	}
	for {
		if c, _ := d.peek(); c != '"' {
			return d.syntax("looking for beginning of object key string")
		}
		key, err := d.str()
		if err != nil {
			return err
		}
		if c, _ := d.peek(); c != ':' {
			return d.syntax("after object key")
		}
		d.i++
		switch rankField(key) {
		case rankFieldFamily:
			err = d.stringField(&req.Family, "family")
		case rankFieldMethod:
			err = d.stringField(&req.Method, "method")
		case rankFieldApp:
			err = d.stringField(&req.App, "app")
		case rankFieldScores:
			err = d.scores(&req.Scores)
		case rankFieldTop:
			err = d.top(&req.Top)
		default:
			err = d.skip(2)
		}
		if err != nil {
			return err
		}
		switch c, _ := d.peek(); c {
		case ',':
			d.i++
		case '}':
			return nil
		default:
			return d.syntax("after object key:value pair")
		}
	}
}

// rankField maps an unquoted key to its field: an exact match first,
// then encoding/json's case-insensitive one.
func rankField(key []byte) int {
	for f, name := range rankFields {
		if string(key) == name {
			return f
		}
	}
	for f, name := range rankFields {
		if strings.EqualFold(string(key), name) {
			return f
		}
	}
	return rankFieldUnknown
}

// stringField decodes a string or null into *dst; null leaves it as is.
func (d *rankDecoder) stringField(dst *string, name string) error {
	switch c, _ := d.peek(); c {
	case '"':
		s, err := d.str()
		if err != nil {
			return err
		}
		*dst = string(s)
		return nil
	case 'n':
		return d.literal("null")
	}
	return d.mismatch(name)
}

// scores decodes an array of numbers and nulls into *dst the way
// encoding/json decodes into a slice: in place over the existing backing
// array, with null elements left untouched. null sets *dst to nil.
func (d *rankDecoder) scores(dst *[]float64) error {
	switch c, _ := d.peek(); c {
	case 'n':
		if err := d.literal("null"); err != nil {
			return err
		}
		*dst = nil
		return nil
	case '[':
		d.i++
	default:
		return d.mismatch("scores")
	}
	s := *dst
	n := 0 // elements decoded
	if c, _ := d.peek(); c != ']' {
		for {
			// Here len(s) >= n, and n >= cap(s) implies len(s) == cap(s):
			// growing copies every element a later null could reveal, and
			// the new ones are zero, as encoding/json leaves them.
			if n >= cap(s) {
				grown := make([]float64, n+1, max(2*cap(s), 64))
				copy(grown, s)
				s = grown
			} else if n >= len(s) {
				s = s[:n+1]
			}
			switch c, _ := d.peek(); {
			case c == 'n':
				if err := d.literal("null"); err != nil {
					return err
				}
			case c == '-' || '0' <= c && c <= '9':
				num, err := d.number()
				if err != nil {
					return err
				}
				if s[n], err = strconv.ParseFloat(string(num), 64); err != nil {
					return err
				}
			default:
				return d.mismatch("scores element")
			}
			n++
			if c, _ := d.peek(); c == ']' {
				break
			} else if c != ',' {
				return d.syntax("after array element")
			}
			d.i++
		}
	}
	d.i++ // ']'
	if n == 0 {
		s = []float64{}
	}
	*dst = s[:n]
	return nil
}

// top decodes an integer or null into *dst; null leaves it as is.
func (d *rankDecoder) top(dst *int) error {
	switch c, _ := d.peek(); {
	case c == 'n':
		return d.literal("null")
	case c == '-' || '0' <= c && c <= '9':
		num, err := d.number()
		if err != nil {
			return err
		}
		n, err := strconv.ParseInt(string(num), 10, 0)
		if err != nil {
			return err
		}
		*dst = int(n)
		return nil
	}
	return d.mismatch("top")
}

// literal consumes the keyword lit (true, false or null) at the cursor.
func (d *rankDecoder) literal(lit string) error {
	for j := 0; j < len(lit); j++ {
		if d.i >= len(d.b) || d.b[d.i] != lit[j] {
			return d.syntax("in literal " + lit)
		}
		d.i++
	}
	return nil
}

// number consumes a number at the cursor and returns its bytes, checked
// against the JSON grammar -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?.
// It scans on a local index: this loop runs over every digit of every
// score.
func (d *rankDecoder) number() ([]byte, error) {
	b, i := d.b, d.i
	fail := func(at int, context string) ([]byte, error) {
		d.i = at
		return nil, d.syntax(context)
	}
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && '1' <= b[i] && b[i] <= '9':
		i = skipDigits(b, i+1)
	default:
		return fail(i, "in numeric literal")
	}
	if i < len(b) && b[i] == '.' {
		j := skipDigits(b, i+1)
		if j == i+1 {
			return fail(j, "after decimal point in numeric literal")
		}
		i = j
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		j := skipDigits(b, i)
		if j == i {
			return fail(j, "in exponent of numeric literal")
		}
		i = j
	}
	num := b[d.i:i]
	d.i = i
	return num, nil
}

// skipDigits returns the index of the first non-digit at or after i.
func skipDigits(b []byte, i int) int {
	for i < len(b) && b[i]-'0' < 10 {
		i++
	}
	return i
}

// str consumes the string whose opening quote is at the cursor and
// returns its unquoted bytes. A string of plain ASCII is returned as a
// slice of the input; anything else goes through unquote.
func (d *rankDecoder) str() ([]byte, error) {
	body, plain, err := d.scanString()
	if err != nil || plain {
		return body, err
	}
	return unquote(body), nil
}

// scanString consumes the string whose opening quote is at the cursor,
// checking its escapes and rejecting control characters, and returns the
// bytes between the quotes; plain reports that they hold neither an
// escape nor a non-ASCII byte.
func (d *rankDecoder) scanString() (body []byte, plain bool, err error) {
	start := d.i + 1
	plain = true
	for d.i = start; d.i < len(d.b); d.i++ {
		switch c := d.b[d.i]; {
		case c == '"':
			d.i++
			return d.b[start : d.i-1], plain, nil
		case c == '\\':
			plain = false
			d.i++
			if d.i >= len(d.b) {
				return nil, false, d.syntax("in string escape code")
			}
			switch d.b[d.i] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
			case 'u':
				for j := 0; j < 4; j++ {
					d.i++
					if d.i >= len(d.b) || !isHex(d.b[d.i]) {
						return nil, false, d.syntax("in \\u hexadecimal character escape")
					}
				}
			default:
				return nil, false, d.syntax("in string escape code")
			}
		case c < ' ':
			return nil, false, d.syntax("in string literal")
		case c >= utf8.RuneSelf:
			plain = false
		}
	}
	return nil, false, d.syntax("in string literal")
}

func isHex(c byte) bool {
	return '0' <= c && c <= '9' || 'a' <= c && c <= 'f' || 'A' <= c && c <= 'F'
}

// unquote decodes the body of a string scanString accepted as
// encoding/json does: escapes resolved, surrogate pairs joined, and each
// invalid UTF-8 byte or unpaired surrogate replaced by U+FFFD.
func unquote(s []byte) []byte {
	out := make([]byte, 0, len(s)+utf8.UTFMax)
	for r := 0; r < len(s); {
		c := s[r]
		switch {
		case c == '\\' && s[r+1] == 'u':
			rr := hex4(s[r+2:])
			r += 6
			if utf16.IsSurrogate(rr) && r+6 <= len(s) && s[r] == '\\' && s[r+1] == 'u' {
				if dec := utf16.DecodeRune(rr, hex4(s[r+2:])); dec != utf8.RuneError {
					r += 6
					rr = dec
				}
			}
			out = utf8.AppendRune(out, rr) // an unpaired surrogate appends U+FFFD
		case c == '\\':
			switch e := s[r+1]; e {
			case 'b':
				out = append(out, '\b')
			case 'f':
				out = append(out, '\f')
			case 'n':
				out = append(out, '\n')
			case 'r':
				out = append(out, '\r')
			case 't':
				out = append(out, '\t')
			default: // '"', '\\', '/'
				out = append(out, e)
			}
			r += 2
		case c < utf8.RuneSelf:
			out = append(out, c)
			r++
		default:
			rr, size := utf8.DecodeRune(s[r:])
			out = utf8.AppendRune(out, rr)
			r += size
		}
	}
	return out
}

// hex4 decodes the four hex digits scanString checked at the start of s.
func hex4(s []byte) rune {
	var r rune
	for _, c := range s[:4] {
		switch {
		case c <= '9':
			c -= '0'
		case c <= 'F':
			c -= 'A' - 10
		default:
			c -= 'a' - 10
		}
		r = r<<4 | rune(c)
	}
	return r
}

// skip consumes and grammar-checks one value of an unknown field; depth
// is the nesting level a container starting here would have.
func (d *rankDecoder) skip(depth int) error {
	c, _ := d.peek()
	switch {
	case c == '{' || c == '[':
		if depth > maxJSONDepth {
			return errors.New("exceeded max depth")
		}
		d.i++
		end := byte('}')
		if c == '[' {
			end = ']'
		}
		if c, _ := d.peek(); c == end {
			d.i++
			return nil
		}
		for {
			if end == '}' {
				if c, _ := d.peek(); c != '"' {
					return d.syntax("looking for beginning of object key string")
				}
				if _, _, err := d.scanString(); err != nil {
					return err
				}
				if c, _ := d.peek(); c != ':' {
					return d.syntax("after object key")
				}
				d.i++
			}
			if err := d.skip(depth + 1); err != nil {
				return err
			}
			switch c, _ := d.peek(); c {
			case ',':
				d.i++
			case end:
				d.i++
				return nil
			default:
				return d.syntax("after container element")
			}
		}
	case c == '"':
		_, _, err := d.scanString()
		return err
	case c == 't':
		return d.literal("true")
	case c == 'f':
		return d.literal("false")
	case c == 'n':
		return d.literal("null")
	case c == '-' || '0' <= c && c <= '9':
		_, err := d.number()
		return err
	}
	return d.syntax("looking for beginning of value")
}
