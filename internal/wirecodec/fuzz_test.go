package wirecodec

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"testing"
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
	f.Add(AppendCheckout(nil, params, 9, false, 4, []uint32{1, 3}, []float64{8, -8}, false))
	f.Add(AppendCheckout(nil, params, 9, false, 4, []uint32{0, 1, 2, 3, 4}, params, false))
	f.Add(AppendCheckout(nil, params, 9, true, 9, nil, nil, false))
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
				t.Fatalf("inconsistent dense delta: %+v", fr)
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

// checkpointFromBytes reads fuzz input as a checkpoint: a few control
// bytes, then 8-byte words that become floats (any bit pattern, so ±0,
// NaN payloads and infinities all occur) and counters of either sign.
func checkpointFromBytes(b []byte) (*Checkpoint, []CheckpointDevice) {
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
	cp := &Checkpoint{
		SavedAtUnixMillis: int64(next()),
		ModelName:         string(b[:min(int(ctl>>8&7), len(b))]),
		UpdaterName:       string(b[:min(int(ctl>>11&7), len(b))]),
		Iteration:         int(next() >> 1),
		Stopped:           ctl&1 != 0,
		Classes:           int(int64(next())),
		Dim:               int(int64(next())),
		TotalSamples:      int(int64(next())),
		TotalErrors:       int(int64(next())),
	}
	cp.Params = floats(ctl >> 16 & 15)
	cp.UpdaterState = floats(ctl >> 20 & 15)
	cp.TotalLabelCounts = ints(ctl >> 24 & 7)
	var devices []CheckpointDevice
	for i := uint64(0); i < ctl>>28&7 && len(b) > 0; i++ {
		devices = append(devices, CheckpointDevice{
			// Strictly increasing by construction: the index leads the id.
			ID:      string(rune('a'+i)) + string(b[:min(int(next()&7), len(b))]),
			Samples: int(int64(next())), Errors: int(int64(next())),
			Checkins: int(int64(next())), StalenessSum: int(int64(next())),
			LabelCounts: ints(ctl >> 24 & 7),
		})
	}
	return cp, devices
}

// FuzzDecodeCheckpoint reads its input twice. As a frame: DecodeCheckpoint
// never panics, and whatever it accepts the encoder accepts and reproduces
// (decode → encode → decode is the identity). As the content of a
// checkpoint: encode → decode is the identity bit for bit, and the frame
// cut short anywhere or with any one bit flipped is refused.
func FuzzDecodeCheckpoint(f *testing.F) {
	cp, devices := testCheckpoint()
	seed, err := encodeCheckpoint(nil, cp, devices)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	empty, _ := encodeCheckpoint(nil, &Checkpoint{}, nil)
	f.Add(empty)
	f.Add(seed[:len(seed)/2])
	f.Add([]byte(`{"savedAtUnixMillis":1,"state":{}}`))

	f.Fuzz(func(t *testing.T, b []byte) {
		if cp, devices, err := DecodeCheckpoint(b); err == nil {
			again, err := encodeCheckpoint(nil, cp, devices)
			if err != nil {
				t.Fatalf("AppendCheckpoint rejected a decoded checkpoint: %v", err)
			}
			back, backDevices, err := DecodeCheckpoint(again)
			if err != nil {
				t.Fatalf("re-encoded checkpoint does not decode: %v", err)
			}
			assertCheckpointsEqual(t, back, backDevices, cp, devices)
		} else if !errors.Is(err, ErrFrame) {
			t.Fatalf("DecodeCheckpoint failed outside ErrFrame: %v", err)
		}

		in, inDevices := checkpointFromBytes(b)
		frame, err := encodeCheckpoint(nil, in, inDevices)
		if err != nil {
			t.Fatalf("AppendCheckpoint(%+v, %+v): %v", in, inDevices, err)
		}
		out, outDevices, err := DecodeCheckpoint(frame)
		if err != nil {
			t.Fatalf("DecodeCheckpoint of the encoder's own frame: %v", err)
		}
		assertCheckpointsEqual(t, out, outDevices, in, inDevices)
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
