package wirecodec

import (
	"encoding/binary"
	"errors"
	"math"
	"math/bits"
	"math/rand"
	"runtime"
	"testing"
)

// xorCorpus is what an XOR delta has to carry bit for bit: both zeros,
// NaNs that differ only in payload, both infinities, subnormals, and the
// largest and smallest normals of either sign.
var xorCorpus = []float64{
	0, math.Copysign(0, -1), math.NaN(), math.Float64frombits(0x7ff8000000000001),
	math.Float64frombits(0xfff0000000beef00), math.Inf(1), math.Inf(-1),
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, math.Float64frombits(0x000fffffffffffff),
	0x1p-1022, -0x1p-1022, math.MaxFloat64, -math.MaxFloat64, 1,
}

// nudge returns base with every coordinate's bit pattern XORed with a
// mask of exactly l significant bytes (l = 0 leaves it alone).
func nudge(base []float64, l int) []float64 {
	cur := make([]float64, len(base))
	for i, v := range base {
		var mask uint64
		if l > 0 {
			mask = 1<<(8*l-1) | 1
		}
		cur[i] = math.Float64frombits(math.Float64bits(v) ^ mask)
	}
	return cur
}

// xorRoundTrip encodes cur against base for a client that opted in,
// requires an XOR delta, and applies it: the result must be cur bit for
// bit, and base must not have been written.
func xorRoundTrip(t *testing.T, base, cur []float64) {
	t.Helper()
	held := append([]float64(nil), base...)
	fr, err := Decode(AppendDelta(nil, base, cur, 9, true, 4, true))
	if err != nil {
		t.Fatal(err)
	}
	if fr.Kind != KindDelta || !fr.XOR || fr.Sparse || fr.Since != 4 || fr.Version != 9 || !fr.Done || fr.Dims != len(cur) {
		t.Fatalf("want an XOR delta, got kind %d xor %v sparse %v since %d version %d", fr.Kind, fr.XOR, fr.Sparse, fr.Since, fr.Version)
	}
	got, err := ApplyDelta(base, fr)
	if err != nil {
		t.Fatal(err)
	}
	if !sameBits(got, cur) {
		t.Fatal("applied XOR delta differs from the encoded vector")
	}
	if !sameBits(base, held) {
		t.Fatal("ApplyDelta wrote the base")
	}
	// Applied, the frame is the dense delta it equals: applying it again
	// hands back the same vector rather than XORing the base in twice.
	if again, err := ApplyDelta(base, fr); err != nil || &again[0] != &got[0] || !sameBits(again, cur) {
		t.Fatalf("second ApplyDelta: %v", err)
	}
}

// TestXORDeltaRoundTrip: every ordered pair of the odd corpus — ±0
// transitions, NaN payloads, ±Inf, subnormals, extreme normals — and
// random pairs of every significant length survive an XOR delta bit for
// bit, at even and odd lengths (the odd one ends on a padding nibble).
// Low-order nudges around them keep XOR the smallest form.
func TestXORDeltaRoundTrip(t *testing.T) {
	var base, cur []float64
	for _, a := range xorCorpus {
		for _, b := range xorCorpus {
			base, cur = append(base, a), append(cur, b)
		}
	}
	filler := randVec(rand.New(rand.NewSource(6)), 4*len(base))
	base, cur = append(base, filler...), append(cur, nudge(filler, 1)...)
	xorRoundTrip(t, base, cur)
	xorRoundTrip(t, base[:len(base)-1], cur[:len(cur)-1])

	r := rand.New(rand.NewSource(7))
	for round := 0; round < 50; round++ {
		n := 1 + r.Intn(300)
		base := randVec(r, n)
		cur := make([]float64, n)
		for i := range cur {
			// Lengths 0–8 evenly; small ones keep the frame an XOR delta.
			l := r.Intn(9)
			if r.Intn(4) > 0 {
				l = r.Intn(3)
			}
			cur[i] = nudge(base[i:i+1], l)[0]
			if l > 0 {
				cur[i] = math.Float64frombits(math.Float64bits(cur[i]) ^ r.Uint64()&(1<<(8*l-1)-1))
			}
		}
		if xorOptimal(base, cur) {
			xorRoundTrip(t, base, cur)
		}
	}
}

// xorOptimal reports whether the XOR form is strictly the smallest for
// this pair, as the encoder is documented to decide.
func xorOptimal(base, cur []float64) bool {
	changed, xor := 0, (len(cur)+1)/2
	for i := range cur {
		if x := math.Float64bits(cur[i]) ^ math.Float64bits(base[i]); x != 0 {
			changed++
			xor += (bits.Len64(x) + 7) >> 3
		}
	}
	return xor < 12*changed && xor < 8*len(cur)
}

// TestDeltaPicksSmallestForm: at 0, 1, n/24 and n changed coordinates,
// each moved by an XOR word of l significant bytes, the encoder writes
// the smallest of the sparse delta (12 bytes per change), the XOR delta
// (⌈n/2⌉ control bytes plus l per change; only for a client that opted
// in) and the full frame (8 bytes per coordinate) — and a client that
// did not opt in is never sent the XOR form.
func TestDeltaPicksSmallestForm(t *testing.T) {
	const n = 480
	base := randVec(rand.New(rand.NewSource(8)), n)
	for _, tc := range []struct {
		changed, l int
		xorOK      bool
		want       string
		payload    int
	}{
		{0, 8, true, "empty", 0},
		{0, 8, false, "empty", 0},
		{1, 1, true, "sparse", 12},       // XOR: 240 + 1
		{n / 24, 1, true, "sparse", 240}, // XOR: 240 + 20
		{n / 24, 8, true, "sparse", 240}, // XOR: 240 + 160
		{n, 1, true, "xor", 240 + n},     // sparse 5,760, full 3,840
		{n, 6, true, "xor", 240 + 6*n},   // 3,120: crowd_durable's usual case
		{n, 6, false, "full", 8 * n},
		{n, 7, true, "xor", 240 + 7*n}, // 3,600, just under full's 3,840
		{n, 8, true, "full", 8 * n},    // XOR: 240 + 3,840
	} {
		cur := append(nudge(base[:tc.changed], tc.l), base[tc.changed:]...)
		b := AppendDelta(nil, base, cur, 2, false, 1, tc.xorOK)
		fr, err := Decode(b)
		if err != nil {
			t.Fatal(err)
		}
		got := "full"
		switch {
		case fr.Kind == KindDelta && fr.XOR:
			got = "xor"
		case fr.Kind == KindDelta && fr.Sparse && len(fr.Indices) == 0:
			got = "empty"
		case fr.Kind == KindDelta && fr.Sparse:
			got = "sparse"
		case fr.Kind == KindDelta:
			got = "dense"
		}
		if got != tc.want || len(b) != HeaderLen+tc.payload+crcLen {
			t.Errorf("%d changed by %d-byte words, opt-in %v: %s frame of %d bytes, want %s of %d",
				tc.changed, tc.l, tc.xorOK, got, len(b), tc.want, HeaderLen+tc.payload+crcLen)
		}
	}
}

// xorFrame builds an XOR delta frame around a hand-written payload.
func xorFrame(dims, count uint32, flags uint16, payload ...byte) []byte {
	b := appendHeader(nil, KindDelta, flags, 3, 2, dims, count)
	return finishFrame(append(b, payload...), 0)
}

// TestXORDeltaRejects: an XOR payload has one encoding, and what a frame
// claims is checked against what it carries before anything is sized.
func TestXORDeltaRejects(t *testing.T) {
	// Three words: 7, 0x0901 and 5.
	fr, err := Decode(xorFrame(3, 3, FlagXOR, 0x21, 0x01, 7, 1, 9, 5))
	if err != nil || !sameBits(fr.Values, []float64{math.Float64frombits(7), math.Float64frombits(0x0901), math.Float64frombits(5)}) {
		t.Fatalf("the reference frame: %v, %v", fr, err)
	}
	cases := map[string][]byte{
		"sparse and xor":     xorFrame(3, 3, FlagXOR|FlagSparse, 0x21, 0x01, 7, 1, 9, 5),
		"count != dims":      xorFrame(3, 2, FlagXOR, 0x21, 0x01, 7, 1, 9, 5),
		"one byte short":     xorFrame(3, 3, FlagXOR, 0x21, 0x01, 7, 1, 9),
		"trailing byte":      xorFrame(3, 3, FlagXOR, 0x21, 0x01, 7, 1, 9, 5, 0),
		"padding nibble set": xorFrame(3, 3, FlagXOR, 0x21, 0x11, 7, 1, 9, 5),
		"length not minimal": xorFrame(3, 3, FlagXOR, 0x22, 0x01, 7, 0, 1, 9, 5),
		"missing control":    xorFrame(3, 3, FlagXOR, 0x21),
		"under half a byte":  xorFrame(1<<22, 1<<22, FlagXOR, 0x11, 1, 1),
		"over 8M coordinates": func() []byte {
			n := MaxPayload/8 + 1
			return xorFrame(uint32(n), uint32(n), FlagXOR, make([]byte, (n+1)/2)...)
		}(),
	}
	for l := byte(9); l <= 15; l++ {
		word := make([]byte, l)
		word[l-1] = 1
		cases["length "+string('0'+l/10)+string('0'+l%10)] = xorFrame(1, 1, FlagXOR, append([]byte{l}, word...)...)
	}
	for name, b := range cases {
		if _, err := Decode(b); !errors.Is(err, ErrFrame) {
			t.Errorf("%s: Decode err = %v, want ErrFrame", name, err)
		}
	}

	// A forged dims is refused by the payload's size, not after a vector
	// of that size was allocated.
	forged := cases["under half a byte"]
	var scratch Frame
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < 10; i++ {
		_ = DecodeInto(&scratch, forged)
	}
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 10<<10 {
		t.Errorf("refusing a forged 4M-coordinate XOR delta allocated %d bytes", grew)
	}
}

// TestXORDeltaDecodeIntoReusesScratch: the XOR words land in the caller's
// recycled Values like every other payload.
func TestXORDeltaDecodeIntoReusesScratch(t *testing.T) {
	base := randVec(rand.New(rand.NewSource(9)), 64)
	b := AppendDelta(nil, base, nudge(base, 2), 5, false, 4, true)
	fr := Frame{Values: make([]float64, 0, 64)}
	backing := &fr.Values[:1][0]
	if err := DecodeInto(&fr, b); err != nil || !fr.XOR {
		t.Fatalf("DecodeInto: %v, xor %v", err, fr.XOR)
	}
	if &fr.Values[0] != backing {
		t.Fatal("the XOR words did not reuse the caller's Values")
	}
	binary.LittleEndian.PutUint32(b[28:], 63)
	if err := DecodeInto(&fr, finishFrame(b[:len(b)-crcLen], 0)); !errors.Is(err, ErrFrame) {
		t.Fatalf("count 63 for 64 dims: %v", err)
	}
}
