package wirecodec

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"math"
	"testing"

	"github.com/crowdml/crowdml/internal/core"
)

// edgeFloats sits on every branch of encoding/json's float formatting:
// the 'f'/'e' switch at 1e-6 and 1e21, the exponent clean-up, signed
// zeros, subnormals and the extremes.
var edgeFloats = []float64{
	0, math.Copysign(0, -1), 1, -1, 0.5, 1.0 / 3, -2.25, math.Pi, 100, 1e6,
	1e-6, 0.99e-6, 1e-7, 1.5e-7, 1e-9, 1e-10, -3e-9, 9.999999e-7, 1.0000001e-6,
	1e20, 1e21, 0.999e21, 1.5e21, 1e22, -1e21, 1e100, 1e-100,
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 2.2250738585072014e-308,
	math.MaxFloat64, -math.MaxFloat64, math.MaxInt64, 1 << 53, 123456789.123456789,
}

// stdCheckout and stdCheckin are the reference encodings: what the
// handler and the client produced before this codec existed.
func stdCheckout(t testing.TB, params []float64, version int, done bool) ([]byte, error) {
	t.Helper()
	var buf bytes.Buffer
	err := json.NewEncoder(&buf).Encode(core.CheckoutResponse{Params: params, Version: version, Done: done})
	return buf.Bytes(), err
}

func stdCheckin(req *core.CheckinRequest) ([]byte, error) { return json.Marshal(req) }

func sameFloatBits(a, b []float64) bool {
	if (a == nil) != (b == nil) || len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func sameInts(a, b []int) bool {
	if (a == nil) != (b == nil) || len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// checkEncoders compares both encoders against encoding/json for one
// set of values, refusals included, and feeds each accepted encoding
// back through its parser.
func checkEncoders(t *testing.T, vals []float64, counts []int, a, b, c int, done bool) {
	t.Helper()
	wantOut, wantErr := stdCheckout(t, vals, a, done)
	gotOut, gotErr := AppendCheckoutJSON([]byte("keep"), vals, a, done)
	if (gotErr != nil) != (wantErr != nil) {
		t.Fatalf("AppendCheckoutJSON error = %v, encoding/json's = %v", gotErr, wantErr)
	}
	if gotErr != nil {
		if string(gotOut) != "keep" {
			t.Fatalf("a refused checkout left %q in the buffer", gotOut)
		}
	} else {
		if !bytes.Equal(gotOut[4:], wantOut) {
			t.Fatalf("checkout JSON differs:\n got %s\nwant %s", gotOut[4:], wantOut)
		}
		// A nil slice is null on the wire, which the parsers decline.
		params, version, d, ok := ParseCheckoutJSON(wantOut)
		if vals != nil && (!ok || !sameFloatBits(params, vals) || version != a || d != done) {
			t.Fatalf("ParseCheckoutJSON(%s) = %v, %d, %v, %v", wantOut, params, version, d, ok)
		}
	}

	req := &core.CheckinRequest{Grad: vals, NumSamples: b, ErrCount: c, LabelCounts: counts, Version: a}
	wantIn, wantErr := stdCheckin(req)
	gotIn, gotErr := AppendCheckinJSON([]byte("keep"), vals, a, b, c, counts)
	if (gotErr != nil) != (wantErr != nil) {
		t.Fatalf("AppendCheckinJSON error = %v, encoding/json's = %v", gotErr, wantErr)
	}
	if gotErr != nil {
		if string(gotIn) != "keep" {
			t.Fatalf("a refused checkin left %q in the buffer", gotIn)
		}
		return
	}
	if !bytes.Equal(gotIn[4:], wantIn) {
		t.Fatalf("checkin JSON differs:\n got %s\nwant %s", gotIn[4:], wantIn)
	}
	if vals == nil || counts == nil {
		return
	}
	var fr Frame
	if !ParseCheckinJSON(wantIn, &fr) || !sameFloatBits(fr.Values, vals) || !sameInts(fr.LabelCounts, counts) ||
		fr.Version != a || fr.NumSamples != b || fr.ErrCount != c {
		t.Fatalf("ParseCheckinJSON(%s) = %+v", wantIn, fr)
	}
}

func TestJSONEncodersMatchEncodingJSON(t *testing.T) {
	counts := []int{3, 0, -7, math.MaxInt64, math.MinInt64}
	checkEncoders(t, edgeFloats, counts, 7, 20, -3, true)
	for _, f := range edgeFloats {
		checkEncoders(t, []float64{f}, []int{1}, 0, 0, 0, false)
	}
	checkEncoders(t, nil, nil, math.MaxInt64, math.MinInt64, 1, false)
	checkEncoders(t, []float64{}, []int{}, -1, 2, 3, true)
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		checkEncoders(t, []float64{1, bad, 2}, []int{1}, 1, 1, 1, false)
	}
}

// checkParsers holds the parsers to their contract on one document: a
// document either parser accepts, json.Unmarshal accepts too, with the
// same result down to nil-versus-empty and the bits of every float.
func checkParsers(t *testing.T, doc []byte) (checkinOK, checkoutOK bool) {
	t.Helper()
	fr := Frame{Values: make([]float64, 0, 4)}
	if checkinOK = ParseCheckinJSON(doc, &fr); checkinOK {
		var want core.CheckinRequest
		if err := json.Unmarshal(doc, &want); err != nil {
			t.Fatalf("ParseCheckinJSON accepted %q, json.Unmarshal says %v", doc, err)
		}
		if !sameFloatBits(fr.Values, want.Grad) || !sameInts(fr.LabelCounts, want.LabelCounts) ||
			fr.NumSamples != want.NumSamples || fr.ErrCount != want.ErrCount || fr.Version != want.Version {
			t.Fatalf("ParseCheckinJSON(%q) = %+v, json.Unmarshal = %+v", doc, fr, want)
		}
		if fr.Kind != KindCheckin || fr.Dims != len(fr.Values) {
			t.Fatalf("ParseCheckinJSON(%q) left kind %d, dims %d", doc, fr.Kind, fr.Dims)
		}
	}
	params, version, done, checkoutOK := ParseCheckoutJSON(doc)
	if checkoutOK {
		var want core.CheckoutResponse
		if err := json.Unmarshal(doc, &want); err != nil {
			t.Fatalf("ParseCheckoutJSON accepted %q, json.Unmarshal says %v", doc, err)
		}
		if !sameFloatBits(params, want.Params) || version != want.Version || done != want.Done {
			t.Fatalf("ParseCheckoutJSON(%q) = %v, %d, %v, json.Unmarshal = %+v", doc, params, version, done, want)
		}
	}
	return checkinOK, checkoutOK
}

// parserDocs is the parsers' table and the fuzzer's seed corpus.
var parserDocs = []struct {
	doc               string
	checkin, checkout bool // which parser must accept it
}{
	{`{"grad":[1.5,-2e-7,0],"numSamples":20,"errCount":-3,"labelCounts":[1,0,2],"version":7}`, true, false},
	{" {\n\t\"version\" : 7 ,\r\n \"labelCounts\" : [ 1 , 2 ] , \"grad\" : [ 1 , -0.0 , 1E+2 , 1e-400 ] } \n", true, false},
	{`{"grad":[],"labelCounts":[]}`, true, false},
	{`{}`, true, true},
	{` { } `, true, true},
	{`{"version":-0}`, true, true},
	{"{\"params\":[0.25,1e21,-1e-7],\"version\":3,\"done\":true}\n", false, true},
	{`{"done":false,"params":[ ],"version":0}`, false, true},

	// Everything below is json.Unmarshal's to judge.
	{``, false, false},
	{`null`, false, false},
	{`[]`, false, false},
	{`{"grad":null}`, false, false},
	{`{"params":null,"version":1,"done":false}`, false, false},
	{`{"GRAD":[1]}`, false, false},
	{`{"grad":[1],"extra":1}`, false, false},
	{`{"grad":[1],"grad":[2]}`, false, false},
	{`{"version":1,"version":2}`, false, false},
	{`{"grad":[0x1p-2]}`, false, false},
	{`{"grad":[1_0]}`, false, false},
	{`{"grad":[.5]}`, false, false},
	{`{"grad":[01]}`, false, false},
	{`{"grad":[1.]}`, false, false},
	{`{"grad":[+1]}`, false, false},
	{`{"grad":[1e999]}`, false, false},
	{`{"grad":[-1e999]}`, false, false},
	{`{"grad":[NaN]}`, false, false},
	{`{"grad":[Infinity]}`, false, false},
	{`{"grad":["1"]}`, false, false},
	{`{"grad":[1,]}`, false, false},
	{`{"grad":[,1]}`, false, false},
	{`{"grad":[1 2]}`, false, false},
	{`{"grad":[[1]]}`, false, false},
	{`{"grad":[1,2}`, false, false},
	{`{"grad":[,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,]}`, false, false},
	{`{"grad":1}`, false, false},
	{`{"version":1.0}`, false, false},
	{`{"version":1e2}`, false, false},
	{`{"version":9223372036854775808}`, false, false},
	{`{"version":"1"}`, false, false},
	{`{"numSamples":true}`, false, false},
	{`{"labelCounts":[1.5]}`, false, false},
	{`{"done":1}`, false, false},
	{`{"done":truex}`, false, false},
	{`{"done":"true"}`, false, false},
	{`{"version":1,}`, false, false},
	{`{,"version":1}`, false, false},
	{`{"version":1 "done":true}`, false, false},
	{`{"version" 1}`, false, false},
	{`{"version":1}x`, false, false},
	{`{"version":1}{}`, false, false},
	{`{"version":1`, false, false},
	{`{"version`, false, false},
	{"\xef\xbb\xbf{}", false, false},
}

func TestJSONParsers(t *testing.T) {
	for _, tc := range parserDocs {
		checkin, checkout := checkParsers(t, []byte(tc.doc))
		if checkin != tc.checkin || checkout != tc.checkout {
			t.Errorf("%q: accepted as (checkin %v, checkout %v), want (%v, %v)",
				tc.doc, checkin, checkout, tc.checkin, tc.checkout)
		}
	}
}

// TestParseCheckinJSONReusesScratch: the gradient lands in the array the
// frame came in with, and a too-small or absent one is replaced by an
// exactly sized one.
func TestParseCheckinJSONReusesScratch(t *testing.T) {
	doc := []byte(`{"grad":[1,2,3],"labelCounts":[1]}`)
	scratch := make([]float64, 1, 8)
	fr := Frame{Values: scratch}
	if !ParseCheckinJSON(doc, &fr) || &fr.Values[0] != &scratch[0] {
		t.Fatalf("a large enough scratch was not reused: %+v", fr)
	}
	for _, small := range [][]float64{nil, make([]float64, 0, 2)} {
		fr = Frame{Values: small}
		if !ParseCheckinJSON(doc, &fr) || len(fr.Values) != 3 || cap(fr.Values) != 3 {
			t.Fatalf("scratch of cap %d: got len %d cap %d", cap(small), len(fr.Values), cap(fr.Values))
		}
	}
}

// TestDecodeIntoReusesScratch is the binary twin.
func TestDecodeIntoReusesScratch(t *testing.T) {
	frame := AppendCheckin(nil, []float64{1, 2, 3}, 4, 5, 6, []int{7}, false)
	scratch := make([]float64, 1, 8)
	fr := Frame{Values: scratch, DeviceID: "stale", Sparse: true}
	if err := DecodeInto(&fr, frame); err != nil {
		t.Fatal(err)
	}
	if &fr.Values[0] != &scratch[0] || !sameFloatBits(fr.Values, []float64{1, 2, 3}) {
		t.Fatalf("a large enough scratch was not reused: %+v", fr)
	}
	if fr.DeviceID != "" || fr.Sparse || fr.Version != 4 || fr.NumSamples != 5 || fr.LabelCounts[0] != 7 {
		t.Fatalf("DecodeInto left stale fields behind: %+v", fr)
	}
	fr = Frame{Values: make([]float64, 0, 2)}
	if err := DecodeInto(&fr, frame); err != nil || len(fr.Values) != 3 {
		t.Fatalf("too-small scratch: %+v, %v", fr, err)
	}
}

// TestDecodeIntoKeepsItsArrays: a pooled frame keeps its Values and
// LabelCounts arrays through every decode — a checkin, a journal record,
// and an end-of-stream marker that carries neither — so a warm frame
// decodes a checkin without allocating.
func TestDecodeIntoKeepsItsArrays(t *testing.T) {
	checkin := AppendCheckin(nil, []float64{1, 2, 3}, 4, 5, 6, []int{7, 8}, false)
	journal, err := AppendJournal(nil, &Frame{Iteration: 9, Values: []float64{-1, -2}, LabelCounts: []int{3}})
	if err != nil {
		t.Fatal(err)
	}
	var fr Frame
	if err := DecodeInto(&fr, checkin); err != nil {
		t.Fatal(err)
	}
	values, counts := &fr.Values[0], &fr.LabelCounts[0]
	for _, b := range [][]byte{AppendJournalEOS(nil, 10), journal, checkin} {
		if err := DecodeInto(&fr, b); err != nil {
			t.Fatal(err)
		}
		if cap(fr.Values) == 0 || cap(fr.LabelCounts) == 0 ||
			&fr.Values[:1][0] != values || &fr.LabelCounts[:1][0] != counts {
			t.Fatalf("kind %d (EOS %v): the frame's arrays were replaced", fr.Kind, fr.EOS)
		}
	}
	if !sameFloatBits(fr.Values, []float64{1, 2, 3}) || len(fr.LabelCounts) != 2 || fr.LabelCounts[1] != 8 {
		t.Fatalf("a reused frame decoded %v, %v", fr.Values, fr.LabelCounts)
	}
	if n := testing.AllocsPerRun(20, func() {
		if err := DecodeInto(&fr, checkin); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("a warm checkin decode allocates %v times, want 0", n)
	}
}

// TestJSONHotPathAllocations pins what the codec is for: encoding into
// a warm buffer allocates nothing, parsing a checkin into a warm scratch
// allocates only LabelCounts, and parsing a checkout allocates exactly
// its params slice.
func TestJSONHotPathAllocations(t *testing.T) {
	grad := make([]float64, 500)
	for i := range grad {
		grad[i] = math.Sin(float64(i)) * math.Pow(10, float64(i%30-15))
	}
	counts := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	buf := make([]byte, 0, 32<<10)
	checkout, _ := AppendCheckoutJSON(nil, grad, 12, false)
	checkin, _ := AppendCheckinJSON(nil, grad, 12, 20, 3, counts)
	fr := Frame{Values: make([]float64, 0, len(grad))}

	for _, tc := range []struct {
		name string
		max  float64
		f    func()
	}{
		{"AppendCheckoutJSON", 0, func() { buf, _ = AppendCheckoutJSON(buf[:0], grad, 12, false) }},
		{"AppendCheckinJSON", 0, func() { buf, _ = AppendCheckinJSON(buf[:0], grad, 12, 20, 3, counts) }},
		{"ParseCheckinJSON", 1, func() {
			if !ParseCheckinJSON(checkin, &fr) {
				t.Fatal("declined")
			}
		}},
		{"ParseCheckoutJSON", 1, func() {
			if params, _, _, ok := ParseCheckoutJSON(checkout); !ok || cap(params) != len(grad) {
				t.Fatalf("ok %v, cap %d", ok, cap(params))
			}
		}},
	} {
		if got := testing.AllocsPerRun(50, tc.f); got != tc.max {
			t.Errorf("%s: %v allocations per call, want %v", tc.name, got, tc.max)
		}
	}
}

// FuzzJSONHotPath reads its input twice. As a document: whatever a
// parser accepts, json.Unmarshal accepts with a bit-equal result. As
// packed little-endian float64s: the encoders agree with encoding/json
// byte for byte, on refusing NaN and ±Inf too, and the parsers read the
// encoders' output back exactly.
func FuzzJSONHotPath(f *testing.F) {
	for _, tc := range parserDocs {
		f.Add([]byte(tc.doc))
	}
	packed := func(vals ...float64) []byte {
		var b []byte
		for _, v := range vals {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
		}
		return b
	}
	f.Add(packed(edgeFloats...))
	f.Add(packed(1, math.NaN()))
	f.Add(packed(math.Inf(-1)))
	f.Fuzz(func(t *testing.T, data []byte) {
		checkParsers(t, data)

		vals := make([]float64, len(data)/8)
		counts := make([]int, len(vals))
		for i := range vals {
			bits := binary.LittleEndian.Uint64(data[8*i:])
			vals[i], counts[i] = math.Float64frombits(bits), int(bits)
		}
		a, b, c := len(data), 0, 0
		if len(counts) > 1 {
			b, c = counts[0], counts[1]
		}
		checkEncoders(t, vals, counts, a, b, c, len(data)%2 == 1)
	})
}
