package wirecodec

import (
	"bytes"
	"fmt"
	"math"
	"strconv"
)

// This file is the JSON encoding of the two hot messages — the checkout
// response and the checkin request — without reflection. JSON is the
// default wire, so the contract is strict:
//
//   - The encoders emit, byte for byte, what encoding/json emits for
//     core.CheckoutResponse (through Encoder.Encode: trailing newline)
//     and core.CheckinRequest (through Marshal), and refuse the values it
//     refuses (NaN, ±Inf) before anything is appended.
//   - The parsers accept the shape every encoder in this repository
//     produces — the known keys in any order, each at most once, JSON
//     whitespace between tokens — and DECLINE everything else (escaped,
//     unknown or differently-cased keys, null, duplicates, numbers that
//     are not what the field's Go type takes) by reporting ok=false. The
//     caller then hands the same bytes to json.Unmarshal, so what odd
//     input is accepted as, and the text of every error, stay
//     encoding/json's own. When a parser does accept, its result equals
//     json.Unmarshal's bit for bit (FuzzJSONHotPath).

// appendJSONFloat appends f the way encoding/json's float64 encoder
// does: the shortest representation that round-trips, in 'f' form
// except below 1e-6 and from 1e21 on, where it is 'e' form with a
// two-digit exponent's leading zero dropped (e-09 → e-9).
func appendJSONFloat(dst []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if n := len(dst); format == 'e' && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
		dst[n-2] = dst[n-1]
		dst = dst[:n-1]
	}
	return dst
}

// appendJSONFloats appends vals as a JSON array (null for a nil slice).
func appendJSONFloats(dst []byte, vals []float64) ([]byte, error) {
	if vals == nil {
		return append(dst, "null"...), nil
	}
	dst = append(dst, '[')
	for i, f := range vals {
		if math.IsNaN(f) || math.IsInf(f, 0) {
			return dst, fmt.Errorf("json: unsupported value: %s", strconv.FormatFloat(f, 'g', -1, 64))
		}
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = appendJSONFloat(dst, f)
	}
	return append(dst, ']'), nil
}

// AppendCheckoutJSON appends the JSON checkout response, newline
// included. A non-finite parameter is an error and leaves dst as it was.
func AppendCheckoutJSON(dst []byte, params []float64, version int, done bool) ([]byte, error) {
	start := len(dst)
	dst = append(dst, `{"params":`...)
	dst, err := appendJSONFloats(dst, params)
	if err != nil {
		return dst[:start], err
	}
	dst = append(dst, `,"version":`...)
	dst = strconv.AppendInt(dst, int64(version), 10)
	dst = append(dst, `,"done":`...)
	dst = strconv.AppendBool(dst, done)
	return append(dst, "}\n"...), nil
}

// AppendCheckinJSON appends the JSON checkin request body. A non-finite
// gradient value is an error and leaves dst as it was.
func AppendCheckinJSON(dst []byte, grad []float64, version, numSamples, errCount int, labelCounts []int) ([]byte, error) {
	start := len(dst)
	dst = append(dst, `{"grad":`...)
	dst, err := appendJSONFloats(dst, grad)
	if err != nil {
		return dst[:start], err
	}
	dst = append(dst, `,"numSamples":`...)
	dst = strconv.AppendInt(dst, int64(numSamples), 10)
	dst = append(dst, `,"errCount":`...)
	dst = strconv.AppendInt(dst, int64(errCount), 10)
	dst = append(dst, `,"labelCounts":`...)
	if labelCounts == nil {
		dst = append(dst, "null"...)
	} else {
		dst = append(dst, '[')
		for i, c := range labelCounts {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = strconv.AppendInt(dst, int64(c), 10)
		}
		dst = append(dst, ']')
	}
	dst = append(dst, `,"version":`...)
	dst = strconv.AppendInt(dst, int64(version), 10)
	return append(dst, '}'), nil
}

// jsonCursor walks one JSON document. Every method that returns ok=false
// leaves the document declined; none of them reports why, because the
// reason is json.Unmarshal's to give.
type jsonCursor struct {
	b []byte
	i int
}

func (c *jsonCursor) skipSpace() {
	for c.i < len(c.b) {
		switch c.b[c.i] {
		case ' ', '\t', '\r', '\n':
			c.i++
		default:
			return
		}
	}
}

// eat skips whitespace and consumes want if it is the next byte.
func (c *jsonCursor) eat(want byte) bool {
	c.skipSpace()
	if c.i < len(c.b) && c.b[c.i] == want {
		c.i++
		return true
	}
	return false
}

// object walks `{"key":value,…}` to the end of the document, calling
// value(k) with the cursor on the value of keys[k]. A key outside keys,
// spelled with an escape, or seen twice declines.
func (c *jsonCursor) object(keys []string, value func(k int) bool) bool {
	if !c.eat('{') {
		return false
	}
	seen := 0
	for more := !c.eat('}'); more; more = !c.eat('}') {
		if seen != 0 && !c.eat(',') {
			return false
		}
		k := c.key(keys)
		if k < 0 || seen&(1<<k) != 0 || !c.eat(':') {
			return false
		}
		seen |= 1 << k
		c.skipSpace()
		if !value(k) {
			return false
		}
	}
	c.skipSpace()
	return c.i == len(c.b)
}

// key consumes `"name"` for one of the given names and returns its index.
func (c *jsonCursor) key(keys []string) int {
	if !c.eat('"') {
		return -1
	}
	rest := c.b[c.i:]
	for k, name := range keys {
		if len(rest) > len(name) && rest[len(name)] == '"' && string(rest[:len(name)]) == name {
			c.i += len(name) + 1
			return k
		}
	}
	return -1
}

// number consumes one number token of the JSON grammar — strconv takes
// more ("0x1p-2", "1_0", ".5", "01", "Inf") — and reports whether it is
// an integer literal. A nil token means there was no number.
func (c *jsonCursor) number() (tok []byte, integer bool) {
	b, i := c.b, c.i
	digits := func() bool {
		from := i
		for i < len(b) && '0' <= b[i] && b[i] <= '9' {
			i++
		}
		return i > from
	}
	if i < len(b) && b[i] == '-' {
		i++
	}
	if i < len(b) && b[i] == '0' {
		i++
	} else if !digits() {
		return nil, false
	}
	integer = true
	if i < len(b) && b[i] == '.' {
		i++
		if integer = false; !digits() {
			return nil, false
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if integer = false; !digits() {
			return nil, false
		}
	}
	tok, c.i = b[c.i:i], i
	return tok, integer
}

// float consumes a number the way json.Unmarshal fills a float64: out of
// range declines (there it is an UnmarshalTypeError).
func (c *jsonCursor) float() (float64, bool) {
	tok, _ := c.number()
	if tok == nil {
		return 0, false
	}
	f, err := strconv.ParseFloat(string(tok), 64)
	return f, err == nil
}

// int consumes a number the way json.Unmarshal fills an int: a fraction,
// an exponent or an overflow declines.
func (c *jsonCursor) int() (int, bool) {
	tok, integer := c.number()
	if !integer {
		return 0, false
	}
	n, err := strconv.ParseInt(string(tok), 10, 0)
	return int(n), err == nil
}

func (c *jsonCursor) bool() (v, ok bool) {
	rest := c.b[c.i:]
	switch {
	case bytes.HasPrefix(rest, []byte("true")):
		c.i += 4
		return true, true
	case bytes.HasPrefix(rest, []byte("false")):
		c.i += 5
		return false, true
	}
	return false, false
}

// arrayLen consumes `[` and returns how many elements precede the
// matching `]`: one more than the commas between them, since arrays of
// numbers do not nest. The elements are still to be parsed, so a count
// that malformed input throws off only mis-sizes a slice.
func (c *jsonCursor) arrayLen() (int, bool) {
	if !c.eat('[') {
		return 0, false
	}
	end := bytes.IndexByte(c.b[c.i:], ']')
	if end < 0 {
		return 0, false
	}
	body := c.b[c.i : c.i+end]
	if len(bytes.TrimLeft(body, " \t\r\n")) == 0 {
		return 0, true
	}
	// An element and its comma take two bytes at least; a count beyond
	// that is a run of bare commas, not worth allocating for.
	n := bytes.Count(body, []byte{','}) + 1
	return n, 2*n <= len(body)+1
}

// floats consumes an array of numbers into dst's backing array when it
// is large enough, into an exactly sized new one otherwise. The result
// is never nil: `[]` decodes to an empty slice, as in encoding/json.
func (c *jsonCursor) floats(dst []float64) ([]float64, bool) {
	n, ok := c.arrayLen()
	if !ok {
		return nil, false
	}
	if dst == nil || cap(dst) < n {
		dst = make([]float64, 0, n)
	}
	dst = dst[:0]
	for i := 0; i < n; i++ {
		if i > 0 && !c.eat(',') {
			return nil, false
		}
		c.skipSpace()
		f, ok := c.float()
		if !ok {
			return nil, false
		}
		dst = append(dst, f)
	}
	return dst, c.eat(']')
}

// ints is floats for an array of ints, always newly allocated. (The two
// loops stay apart: an element parser passed as a function value makes
// the cursor escape, which costs the allocation this file exists to
// avoid — TestJSONHotPathAllocations.)
func (c *jsonCursor) ints() ([]int, bool) {
	n, ok := c.arrayLen()
	if !ok {
		return nil, false
	}
	dst := make([]int, 0, n)
	for i := 0; i < n; i++ {
		if i > 0 && !c.eat(',') {
			return nil, false
		}
		c.skipSpace()
		v, ok := c.int()
		if !ok {
			return nil, false
		}
		dst = append(dst, v)
	}
	return dst, c.eat(']')
}

var (
	checkoutKeys = []string{"params", "version", "done"}
	checkinKeys  = []string{"grad", "numSamples", "errCount", "labelCounts", "version"}
)

// ParseCheckoutJSON parses a JSON checkout response. It allocates
// exactly the params slice. ok=false declines the document: decode it
// with json.Unmarshal instead.
func ParseCheckoutJSON(data []byte) (params []float64, version int, done, ok bool) {
	c := jsonCursor{b: data}
	ok = c.object(checkoutKeys, func(k int) (ok bool) {
		switch k {
		case 0:
			params, ok = c.floats(nil)
		case 1:
			version, ok = c.int()
		default:
			done, ok = c.bool()
		}
		return ok
	})
	return params, version, done, ok
}

// ParseCheckinJSON parses a JSON checkin request into fr's checkin
// fields (Values is the gradient), with Kind set to KindCheckin. The
// gradient reuses the backing array fr.Values came in with when it is
// large enough — the caller's pooled scratch, whose previous contents it
// must be done with — so a warm fr costs only the LabelCounts slice.
// ok=false declines the document and leaves fr unspecified: decode the
// same bytes with json.Unmarshal instead.
func ParseCheckinJSON(data []byte, fr *Frame) bool {
	scratch := fr.Values
	*fr = Frame{Kind: KindCheckin, Since: -1}
	c := jsonCursor{b: data}
	return c.object(checkinKeys, func(k int) (ok bool) {
		switch k {
		case 0:
			fr.Values, ok = c.floats(scratch)
			fr.Dims = len(fr.Values)
		case 1:
			fr.NumSamples, ok = c.int()
		case 2:
			fr.ErrCount, ok = c.int()
		case 3:
			fr.LabelCounts, ok = c.ints()
		default:
			fr.Version, ok = c.int()
		}
		return ok
	})
}
