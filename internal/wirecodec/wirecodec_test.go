package wirecodec

import (
	"errors"
	"math"
	"math/rand"
	"reflect"
	"testing"
)

func randVec(r *rand.Rand, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = r.NormFloat64()
	}
	return out
}

func TestFullRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for _, n := range []int{0, 1, 7, 500, 4096} {
		params := randVec(r, n)
		b := AppendFull(nil, params, 42, true)
		if len(b) != HeaderLen+8*n+crcLen {
			t.Fatalf("n=%d: frame is %d bytes, want %d", n, len(b), HeaderLen+8*n+crcLen)
		}
		fr, err := Decode(b)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if fr.Kind != KindFull || fr.Version != 42 || !fr.Done || fr.Since != -1 || fr.Dims != n {
			t.Fatalf("n=%d: bad header %+v", n, fr)
		}
		for i := range params {
			if math.Float64bits(fr.Values[i]) != math.Float64bits(params[i]) {
				t.Fatalf("n=%d: value %d: %v != %v", n, i, fr.Values[i], params[i])
			}
		}
	}
}

func TestSparseDeltaRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	base := randVec(r, 500)
	cur := append([]float64(nil), base...)
	var indices []uint32
	var values []float64
	for _, i := range []int{0, 17, 123, 499} {
		cur[i] = r.NormFloat64()
		indices = append(indices, uint32(i))
		values = append(values, cur[i])
	}
	b := AppendCheckout(nil, cur, 9, false, 5, indices, values, false)
	fr, err := Decode(b)
	if err != nil {
		t.Fatal(err)
	}
	if fr.Kind != KindDelta || !fr.Sparse || fr.Version != 9 || fr.Since != 5 || fr.Done {
		t.Fatalf("bad header %+v", fr)
	}
	held := append([]float64(nil), base...)
	got, err := ApplyDelta(base, fr)
	if err != nil {
		t.Fatal(err)
	}
	for i := range cur {
		if math.Float64bits(got[i]) != math.Float64bits(cur[i]) {
			t.Fatalf("applied value %d: %v != %v", i, got[i], cur[i])
		}
		// base is some caller's immutable snapshot.
		if math.Float64bits(base[i]) != math.Float64bits(held[i]) {
			t.Fatalf("ApplyDelta wrote base[%d]", i)
		}
	}
}

func TestEmptySparseDelta(t *testing.T) {
	base := []float64{1, 2, 3}
	b := AppendCheckout(nil, base, 7, true, 7, nil, nil, false)
	fr, err := Decode(b)
	if err != nil {
		t.Fatal(err)
	}
	if !fr.Sparse || len(fr.Indices) != 0 || fr.Since != 7 || !fr.Done {
		t.Fatalf("bad frame %+v", fr)
	}
	got, err := ApplyDelta(base, fr)
	if err != nil {
		t.Fatal(err)
	}
	// Nothing changed, so nothing is built: the result is base itself.
	if &got[0] != &base[0] {
		t.Fatal("ApplyDelta copied the model to apply an empty delta")
	}
}

// TestDenseDeltaChosen pins the size rule: when ≥ 2/3 of the
// coordinates changed, 12-byte sparse pairs lose to an 8-byte dense
// re-send and the encoder must switch forms (keeping the since echo).
func TestDenseDeltaChosen(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	cur := randVec(r, 30)
	indices := make([]uint32, 25)
	values := make([]float64, 25)
	for i := range indices {
		indices[i] = uint32(i)
		values[i] = cur[i]
	}
	b := AppendCheckout(nil, cur, 3, false, 1, indices, values, false)
	fr, err := Decode(b)
	if err != nil {
		t.Fatal(err)
	}
	if fr.Kind != KindDelta || fr.Sparse {
		t.Fatalf("want dense delta, got %+v", fr)
	}
	if fr.Since != 1 {
		t.Fatalf("dense delta lost the since echo: %+v", fr)
	}
	got, err := ApplyDelta(nil, fr) // dense deltas need no base
	if err != nil {
		t.Fatal(err)
	}
	for i := range cur {
		if got[i] != cur[i] {
			t.Fatalf("value %d: %v != %v", i, got[i], cur[i])
		}
	}
}

func TestCheckinRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	grad := randVec(r, 120)
	labels := []int{3, 0, 9}
	b := AppendCheckin(nil, grad, 11, 5, 2, labels, false)
	fr, err := Decode(b)
	if err != nil {
		t.Fatal(err)
	}
	if fr.Kind != KindCheckin || fr.Version != 11 || fr.NumSamples != 5 || fr.ErrCount != 2 {
		t.Fatalf("bad frame %+v", fr)
	}
	if len(fr.LabelCounts) != 3 || fr.LabelCounts[0] != 3 || fr.LabelCounts[2] != 9 {
		t.Fatalf("bad label counts %v", fr.LabelCounts)
	}
	for i := range grad {
		if math.Float64bits(fr.Values[i]) != math.Float64bits(grad[i]) {
			t.Fatalf("grad value %d mismatch", i)
		}
	}
}

// TestTruncationDetected chops a valid frame at every possible length;
// no prefix may decode successfully (the CRC trailer covers it all).
func TestTruncationDetected(t *testing.T) {
	b := AppendFull(nil, []float64{1.5, -2.25, 3}, 8, false)
	for n := 0; n < len(b); n++ {
		if _, err := Decode(b[:n]); err == nil {
			t.Fatalf("truncation to %d/%d bytes decoded successfully", n, len(b))
		}
	}
}

// TestCorruptionDetected flips one bit in every byte of a valid frame;
// every corruption must fail (almost always at the CRC check).
func TestCorruptionDetected(t *testing.T) {
	orig := AppendCheckin(nil, []float64{1, 2, 3, 4}, 2, 1, 0, []int{1, 0}, false)
	for i := range orig {
		b := append([]byte(nil), orig...)
		b[i] ^= 0x40
		if _, err := Decode(b); err == nil {
			t.Fatalf("bit flip at byte %d decoded successfully", i)
		}
	}
}

func TestDecodeRejects(t *testing.T) {
	full := AppendFull(nil, []float64{1}, 0, false)
	delta := AppendCheckout(nil, []float64{1, 2}, 3, false, 2, []uint32{1}, []float64{5}, false)
	checkin := AppendCheckin(nil, []float64{1, 2}, 0, 1, 0, []int{1}, false)
	reencode := func(valid []byte, mutate func(b []byte)) []byte {
		b := append([]byte(nil), valid...)
		mutate(b)
		// Re-stamp the CRC so the mutation reaches the semantic checks.
		return finishFrame(b[:len(b)-crcLen], 0)
	}
	cases := map[string][]byte{
		"empty":       nil,
		"bad magic":   reencode(full, func(b []byte) { b[0] = 'X' }),
		"bad version": reencode(full, func(b []byte) { b[4] = 99 }),
		"bad kind":    reencode(full, func(b []byte) { b[5] = 42 }),
		"full with since": reencode(full, func(b []byte) {
			b[16] = 3 // since 3 on a full frame
		}),
		"count mismatch": reencode(full, func(b []byte) { b[28] = 7 }),
		// Bit 0 once marked a flate payload; every kind now refuses it,
		// and each refuses the bits only other kinds define.
		"full, bit 0":       reencode(full, func(b []byte) { b[6] |= 1 }),
		"full, sparse":      reencode(full, func(b []byte) { b[6] |= FlagSparse }),
		"delta, bit 0":      reencode(delta, func(b []byte) { b[6] |= 1 }),
		"delta, eos":        reencode(delta, func(b []byte) { b[6] |= FlagEOS }),
		"checkin, bit 0":    reencode(checkin, func(b []byte) { b[6] |= 1 }),
		"checkin, done":     reencode(checkin, func(b []byte) { b[6] |= FlagDone }),
		"checkin, high bit": reencode(checkin, func(b []byte) { b[7] |= 0x80 }),
	}
	for name, b := range cases {
		if _, err := Decode(b); !errors.Is(err, ErrFrame) {
			t.Errorf("%s: Decode err = %v, want ErrFrame", name, err)
		}
	}
}

// TestBinaryEncodersAllocateNothing: every device-message encoder writes
// straight into dst, so encoding into a buffer that already has room
// allocates nothing, and the frame is exactly header + payload + CRC.
func TestBinaryEncodersAllocateNothing(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	params := randVec(r, 500)
	few := []uint32{3, 99, 400}
	fewVals := []float64{params[3], params[99], params[400]}
	many := make([]uint32, 400)
	manyVals := make([]float64, len(many))
	for i := range many {
		many[i], manyVals[i] = uint32(i), params[i]
	}
	labels := []int{4, 0, 6, 1, 9, 0, 0, 2, 3, 5}
	for name, enc := range map[string]func([]byte) []byte{
		"full":         func(b []byte) []byte { return AppendCheckout(b, params, 7, false, -1, nil, nil, false) },
		"sparse delta": func(b []byte) []byte { return AppendCheckout(b, params, 7, false, 5, few, fewVals, false) },
		"dense delta":  func(b []byte) []byte { return AppendCheckout(b, params, 7, false, 5, many, manyVals, false) },
		"checkin":      func(b []byte) []byte { return AppendCheckin(b, params, 7, 20, 3, labels, false) },
	} {
		buf := enc(nil)
		if _, err := Decode(buf); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if allocs := testing.AllocsPerRun(100, func() { buf = enc(buf[:0]) }); allocs != 0 {
			t.Errorf("%s: encoding into a warm buffer allocates %.0f times, want 0", name, allocs)
		}
	}
}

func TestSparseIndexOutOfRange(t *testing.T) {
	b := AppendCheckout(nil, []float64{1, 2, 3}, 4, false, 2, []uint32{5}, []float64{9}, false)
	if _, err := Decode(b); err == nil {
		t.Fatal("out-of-range sparse index decoded successfully")
	}
}

func TestAppendExtendsDst(t *testing.T) {
	prefix := []byte("prefix")
	b := AppendFull(prefix, []float64{1, 2}, 1, false)
	if string(b[:6]) != "prefix" {
		t.Fatal("AppendFull clobbered dst")
	}
	if _, err := Decode(b[6:]); err != nil {
		t.Fatal(err)
	}
}

func journalFrame() *Frame {
	return &Frame{
		Iteration: 41, DeviceID: "device-é-7", AtUnixMillis: 1_700_000_000_123,
		GradNorm1: 3.5, Version: 39, Values: []float64{1.5, -2.25, 0, math.Pi},
		NumSamples: 20, ErrCount: 3, LabelCounts: []int{7, 0, 13},
	}
}

// TestJournalRoundTrip: a journal frame carries every field of a journal
// record bit for bit, its length is the one the header alone predicts,
// and appending into a buffer with room allocates nothing — the store
// appends every acknowledged checkin this way.
func TestJournalRoundTrip(t *testing.T) {
	in := journalFrame()
	prefix := []byte("prefix")
	b, err := AppendJournal(append([]byte(nil), prefix...), in)
	if err != nil {
		t.Fatal(err)
	}
	b = b[len(prefix):]
	iter, n, err := JournalFrameLen(b[:HeaderLen])
	if err != nil || iter != in.Iteration || n != len(b) {
		t.Fatalf("JournalFrameLen = %d, %d, %v; want iteration %d and %d bytes", iter, n, err, in.Iteration, len(b))
	}
	got, err := Decode(b)
	if err != nil {
		t.Fatal(err)
	}
	want := *in
	want.Kind, want.Since, want.Dims = KindJournal, -1, len(in.Values)
	if !reflect.DeepEqual(got, &want) {
		t.Fatalf("decoded %+v, want %+v", got, &want)
	}
	buf := make([]byte, 0, len(b))
	if allocs := testing.AllocsPerRun(100, func() { buf, _ = AppendJournal(buf[:0], in) }); allocs != 0 {
		t.Errorf("AppendJournal into a sized buffer allocates %.0f times, want 0", allocs)
	}

	// An audit-only record (no gradient, no counts, no device) is the
	// smallest journal frame.
	empty, err := AppendJournal(nil, &Frame{Iteration: 1})
	if err != nil {
		t.Fatal(err)
	}
	if fr, err := Decode(empty); err != nil || fr.Iteration != 1 || len(fr.Values) != 0 || fr.DeviceID != "" {
		t.Fatalf("empty journal frame decoded to %+v, %v", fr, err)
	}
}

// TestJournalEOS: the end-of-stream marker is a header and a CRC, nothing
// else, and carries the sender's iteration.
func TestJournalEOS(t *testing.T) {
	b := AppendJournalEOS(nil, 1234)
	if len(b) != HeaderLen+crcLen {
		t.Fatalf("EOS marker is %d bytes, want %d", len(b), HeaderLen+crcLen)
	}
	if iter, n, err := JournalFrameLen(b); err != nil || iter != 1234 || n != len(b) {
		t.Fatalf("JournalFrameLen(EOS) = %d, %d, %v", iter, n, err)
	}
	fr, err := Decode(b)
	if err != nil || !fr.EOS || fr.Iteration != 1234 || fr.Kind != KindJournal {
		t.Fatalf("EOS decoded to %+v, %v", fr, err)
	}
}

// TestJournalRejects: every journal header the length rule cannot size
// is refused by the header reader and the decoder alike, and the encoder
// refuses to write a record they would refuse to read.
func TestJournalRejects(t *testing.T) {
	valid, err := AppendJournal(nil, journalFrame())
	if err != nil {
		t.Fatal(err)
	}
	restamp := func(mutate func(b []byte)) []byte {
		b := append([]byte(nil), valid...)
		mutate(b)
		return finishFrame(b[:len(b)-crcLen], 0)
	}
	for name, b := range map[string][]byte{
		"bit 0 (was flate)":  restamp(func(b []byte) { b[6] |= 1 }),
		"done flag":          restamp(func(b []byte) { b[6] |= FlagDone }),
		"EOS with payload":   restamp(func(b []byte) { b[6] = FlagEOS }),
		"negative iteration": restamp(func(b []byte) { b[15] = 0x80 }),
		"negative id length": restamp(func(b []byte) { b[23] = 0x80 }),
		"huge dims":          restamp(func(b []byte) { b[27] = 0x7f }),
		"huge count":         restamp(func(b []byte) { b[31] = 0x7f }),
		"id length off by 1": restamp(func(b []byte) { b[16]++ }),
	} {
		_, _, hdrErr := JournalFrameLen(b)
		_, decErr := Decode(b)
		if name == "id length off by 1" {
			hdrErr = decErr // only the payload length betrays this one
		}
		if !errors.Is(hdrErr, ErrFrame) || !errors.Is(decErr, ErrFrame) {
			t.Errorf("%s: JournalFrameLen err = %v, Decode err = %v; want ErrFrame from both", name, hdrErr, decErr)
		}
	}
	if _, _, err := JournalFrameLen(AppendFull(nil, []float64{1}, 0, false)); !errors.Is(err, ErrFrame) {
		t.Errorf("JournalFrameLen accepted a full frame's header: %v", err)
	}
	if _, err := AppendJournal(nil, &Frame{Iteration: -1}); !errors.Is(err, ErrFrame) {
		t.Errorf("AppendJournal(negative iteration) = %v, want ErrFrame", err)
	}
	if _, err := AppendJournal(nil, &Frame{Iteration: 1, Values: make([]float64, MaxPayload/8)}); !errors.Is(err, ErrFrame) {
		t.Errorf("AppendJournal(oversized) = %v, want ErrFrame", err)
	}
}
