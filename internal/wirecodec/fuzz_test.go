package wirecodec

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"testing"

	"github.com/crowdml/crowdml/internal/core"
)

// FuzzDecodeFrame throws arbitrary bytes at Decode. The invariants: no
// panic, no unvalidated success (a decoded frame must satisfy the
// documented field constraints), every valid encoder output decodes
// back (seeded below, mutated by the fuzzer), and a message has one
// encoding: a decoded full, checkin or journal frame re-encodes to the
// very bytes it came from.
func FuzzDecodeFrame(f *testing.F) {
	params := []float64{1.5, -2.25, 0, math.Pi, 1e-300}
	f.Add(AppendFull(nil, params, 7, true))
	f.Add(AppendDelta(nil, params, []float64{1.5, 8, 0, -8, 1e-300}, 9, false, 4, false))
	f.Add(AppendDelta(nil, params, randVec(rand.New(rand.NewSource(1)), 5), 9, false, 4, false))
	f.Add(AppendDelta(nil, nil, params, 9, true, 9, false))
	// XOR deltas of even and odd length (the odd one ends on a padding
	// nibble), and the dense delta servers before them sent, which is
	// refused.
	for _, n := range []int{5, 4} {
		f.Add(AppendDelta(nil, params[:n], nudge(params[:n], 2), 9, false, 4, true))
	}
	f.Add(denseDelta(params, 9, 4))
	f.Add(AppendCheckin(nil, params, 3, 2, 1, []int{1, 0, 1}, false))
	journal, err := AppendJournal(nil, journalFrame())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(journal)
	f.Add(AppendJournalEOS(nil, 12))
	f.Add([]byte(Magic))
	f.Add(make([]byte, HeaderLen+crcLen))
	// What old WithWireFlate clients sent: bit 0 set under a valid CRC.
	for _, fr := range [][]byte{AppendFull(nil, params, 7, false), AppendCheckin(nil, params, 3, 2, 1, []int{1, 0, 1}, false)} {
		fr[6] |= 1
		f.Add(finishFrame(fr[:len(fr)-crcLen], 0))
	}

	f.Fuzz(func(t *testing.T, b []byte) {
		fr, err := Decode(b)
		if err != nil {
			return
		}
		if fr.Version < 0 || fr.Dims < 0 {
			t.Fatalf("negative version/dims decoded: %+v", fr)
		}
		switch fr.Kind {
		case KindFull:
			if len(fr.Values) != fr.Dims || fr.Since != -1 {
				t.Fatalf("inconsistent full frame: %+v", fr)
			}
			if !bytes.Equal(AppendFull(nil, fr.Values, fr.Version, fr.Done), b) {
				t.Fatalf("re-encoding a decoded full frame changed its bytes")
			}
		case KindDelta:
			if fr.Since < 0 || fr.Since > fr.Version {
				t.Fatalf("inconsistent delta since: %+v", fr)
			}
			if fr.Sparse == fr.XOR {
				t.Fatalf("delta neither or both sparse and XOR: %+v", fr)
			}
			if fr.Sparse {
				if len(fr.Indices) != len(fr.Values) || len(fr.Indices) > fr.Dims {
					t.Fatalf("inconsistent sparse delta: %+v", fr)
				}
				for _, idx := range fr.Indices {
					if int(idx) >= fr.Dims {
						t.Fatalf("sparse index %d out of range: %+v", idx, fr)
					}
				}
				base := make([]float64, fr.Dims)
				if _, err := ApplyDelta(base, fr); err != nil {
					t.Fatalf("ApplyDelta rejected a decoded frame: %v", err)
				}
			} else if len(fr.Values) != fr.Dims {
				t.Fatalf("inconsistent XOR delta: %+v", fr)
			} else {
				// Against a zero base the words are the vector; encoded
				// against it again, they are the same bytes when XOR is
				// still the smallest form.
				words := append([]float64(nil), fr.Values...)
				if got, err := ApplyDelta(make([]float64, fr.Dims), fr); err != nil || !sameBits(got, words) {
					t.Fatalf("ApplyDelta on a decoded XOR delta: %v", err)
				}
				if again := AppendDelta(nil, make([]float64, fr.Dims), words, fr.Version, fr.Done, fr.Since, true); again[6]&FlagXOR != 0 && !bytes.Equal(again, b) {
					t.Fatalf("re-encoding a decoded XOR delta changed its bytes")
				}
			}
		case KindCheckin:
			if len(fr.Values) != fr.Dims {
				t.Fatalf("inconsistent checkin gradient: %+v", fr)
			}
			if !bytes.Equal(AppendCheckin(nil, fr.Values, fr.Version, fr.NumSamples, fr.ErrCount, fr.LabelCounts, false), b) {
				t.Fatalf("re-encoding a decoded checkin frame changed its bytes")
			}
		case KindJournal:
			if len(fr.Values) != fr.Dims || fr.Iteration < 0 || fr.Since != -1 {
				t.Fatalf("inconsistent journal frame: %+v", fr)
			}
			if fr.EOS && (fr.Dims != 0 || len(fr.LabelCounts) != 0 || fr.DeviceID != "") {
				t.Fatalf("journal EOS marker with a body: %+v", fr)
			}
			// The header alone must size the frame the decoder accepted,
			// and the encoder must reproduce it byte for byte.
			if iter, n, err := JournalFrameLen(b); err != nil || n != len(b) || iter != fr.Iteration {
				t.Fatalf("JournalFrameLen = %d, %d, %v for a decoded %d-byte frame at iteration %d",
					iter, n, err, len(b), fr.Iteration)
			}
			again := AppendJournalEOS(nil, fr.Iteration)
			if !fr.EOS {
				if again, err = AppendJournal(nil, fr); err != nil {
					t.Fatalf("AppendJournal rejected a decoded frame: %v", err)
				}
			}
			if !bytes.Equal(again, b) {
				t.Fatalf("re-encoding a decoded journal frame changed its bytes")
			}
		default:
			t.Fatalf("unknown kind decoded: %+v", fr)
		}
	})
}

// checkpointFromBytes reads fuzz input as a saved state: a few control
// bytes, then 8-byte words that become floats (any bit pattern, so ±0,
// NaN payloads and infinities all occur) and counters of either sign.
func checkpointFromBytes(b []byte) (st *core.ServerState, savedAtUnixMillis int64) {
	next := func() uint64 {
		var w [8]byte
		n := copy(w[:], b)
		b = b[n:]
		return binary.LittleEndian.Uint64(w[:])
	}
	floats := func(n uint64) []float64 {
		var out []float64
		for ; n > 0 && len(b) > 0; n-- {
			out = append(out, math.Float64frombits(next()))
		}
		return out
	}
	ints := func(n uint64) []int {
		var out []int
		for ; n > 0 && len(b) > 0; n-- {
			out = append(out, int(int64(next())))
		}
		return out
	}
	ctl := next()
	savedAtUnixMillis = int64(next())
	st = &core.ServerState{
		ModelName:    string(b[:min(int(ctl>>8&7), len(b))]),
		UpdaterName:  string(b[:min(int(ctl>>11&7), len(b))]),
		Iteration:    int(next() >> 1),
		Stopped:      ctl&1 != 0,
		Classes:      int(int64(next())),
		Dim:          int(int64(next())),
		TotalSamples: int(int64(next())),
		TotalErrors:  int(int64(next())),
	}
	st.Params = floats(ctl >> 16 & 15)
	st.UpdaterState = floats(ctl >> 20 & 15)
	st.TotalLabelCounts = ints(ctl >> 24 & 7)
	for i := uint64(0); i < ctl>>28&7 && len(b) > 0; i++ {
		st.DeviceRows = append(st.DeviceRows, core.DeviceRow{
			// Strictly increasing by construction: the index leads the id.
			ID: string(rune('a'+i)) + string(b[:min(int(next()&7), len(b))]),
			DeviceStats: core.DeviceStats{
				Samples: int(int64(next())), Errors: int(int64(next())),
				Checkins: int(int64(next())), StalenessSum: int(int64(next())),
				LabelCounts: ints(ctl >> 24 & 7),
			},
		})
	}
	return st, savedAtUnixMillis
}

// FuzzDecodeCheckpoint reads its input twice. As a frame: DecodeCheckpoint
// never panics, and whatever it accepts the encoder accepts and reproduces
// (decode → encode → decode is the identity). As a saved state: encode →
// decode is the identity bit for bit, and the frame cut short anywhere or
// with any one bit flipped is refused.
func FuzzDecodeCheckpoint(f *testing.F) {
	seed, err := AppendCheckpoint(nil, testCheckpoint(), testSavedAt)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	empty, _ := AppendCheckpoint(nil, &core.ServerState{}, 0)
	f.Add(empty)
	f.Add(seed[:len(seed)/2])
	f.Add([]byte(`{"savedAtUnixMillis":1,"state":{}}`))

	f.Fuzz(func(t *testing.T, b []byte) {
		if st, savedAt, err := DecodeCheckpoint(b); err == nil {
			again, err := AppendCheckpoint(nil, st, savedAt)
			if err != nil {
				t.Fatalf("AppendCheckpoint rejected a decoded checkpoint: %v", err)
			}
			back, backSavedAt, err := DecodeCheckpoint(again)
			if err != nil {
				t.Fatalf("re-encoded checkpoint does not decode: %v", err)
			}
			if backSavedAt != savedAt {
				t.Fatalf("re-encoded checkpoint saved at %d, was %d", backSavedAt, savedAt)
			}
			assertCheckpointsEqual(t, back, st)
		} else if !errors.Is(err, ErrFrame) {
			t.Fatalf("DecodeCheckpoint failed outside ErrFrame: %v", err)
		}

		in, inSavedAt := checkpointFromBytes(b)
		frame, err := AppendCheckpoint(nil, in, inSavedAt)
		if err != nil {
			t.Fatalf("AppendCheckpoint(%+v): %v", in, err)
		}
		out, outSavedAt, err := DecodeCheckpoint(frame)
		if err != nil {
			t.Fatalf("DecodeCheckpoint of the encoder's own frame: %v", err)
		}
		if outSavedAt != inSavedAt {
			t.Fatalf("saved at %d decodes as %d", inSavedAt, outSavedAt)
		}
		assertCheckpointsEqual(t, out, in)
		pos := len(b) * 7919 // any position, decided by the input
		if _, _, err := DecodeCheckpoint(frame[:pos%len(frame)]); !errors.Is(err, ErrFrame) {
			t.Fatalf("frame cut to %d of %d bytes: %v", pos%len(frame), len(frame), err)
		}
		frame[pos%len(frame)] ^= 1 << (pos % 8)
		if _, _, err := DecodeCheckpoint(frame); !errors.Is(err, ErrFrame) {
			t.Fatalf("bit %d of byte %d flipped: %v", pos%8, pos%len(frame), err)
		}
	})
}

// floatsFromBytes reads n 8-byte words of b as float64 bit patterns.
func floatsFromBytes(b []byte, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
	}
	return out
}

// FuzzXORDelta: whatever the bit patterns of a base and a current vector,
// the frame AppendDelta writes decodes, applied to base reproduces the
// current vector bit for bit without writing base, and the applied
// result encodes against base to the very same bytes. A client that did
// not opt in is never sent an XOR delta. The seeds are near pairs, as a
// model moves, so the fuzzer starts where XOR deltas are chosen.
func FuzzXORDelta(f *testing.F) {
	words := func(v []float64) []byte { return appendFloats(nil, v) }
	base := []float64{1.5, -2.25, 0, math.Pi, 1e-300, math.Inf(1), math.NaN()}
	f.Add(words(base), words(nudge(base, 2)), true)
	f.Add(words(base), words(nudge(base, 6)), true)
	f.Add(words(base[:6]), words(nudge(base[:6], 1)), false)
	f.Add(words(xorCorpus), words(xorCorpus[1:]), true)

	f.Fuzz(func(t *testing.T, baseBits, curBits []byte, xorOK bool) {
		n := min(len(baseBits), len(curBits)) / 8
		base, cur := floatsFromBytes(baseBits, n), floatsFromBytes(curBits, n)
		held := append([]float64(nil), base...)
		b := AppendDelta(nil, base, cur, 9, false, 4, xorOK)
		var fr Frame
		if err := DecodeInto(&fr, b); err != nil {
			t.Fatalf("the encoder's own frame does not decode: %v", err)
		}
		if fr.XOR && !xorOK {
			t.Fatal("XOR delta written for a client that did not opt in")
		}
		got := fr.Values
		if fr.Kind == KindDelta {
			var err error
			if got, err = ApplyDelta(base, &fr); err != nil {
				t.Fatalf("ApplyDelta: %v", err)
			}
		}
		if !sameBits(got, cur) {
			t.Fatal("the applied frame differs from the current vector")
		}
		if !sameBits(base, held) {
			t.Fatal("decoding or applying wrote the base")
		}
		if again := AppendDelta(nil, base, got, 9, false, 4, xorOK); !bytes.Equal(again, b) {
			t.Fatal("re-encoding the applied vector changed the frame")
		}
	})
}
