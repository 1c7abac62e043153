// Package wirecodec implements the compact binary wire format the
// device hot path negotiates as an alternative to JSON (see
// docs/WIRE.md). Every message is one self-delimiting frame:
//
//	offset  size  field
//	0       4     magic "CMW1"
//	4       1     codec version (1)
//	5       1     kind (full=1, delta=2, checkin=3, journal=4, checkpoint=5)
//	6       2     flags (uint16 LE: done, sparse, eos, xor; bit 0 refused)
//	8       8     version (int64 LE): the model iteration the frame
//	              describes; for checkin frames, the echoed checkout
//	              Version the gradient was computed against; for
//	              journal frames, the iteration the checkin was applied
//	              at (the sender's iteration counter on an EOS marker)
//	16      8     since (int64 LE): the delta base iteration; -1 when
//	              the frame is not a delta; for journal frames, the
//	              device ID's byte length
//	24      4     dims (uint32 LE): the full vector length
//	28      4     count (uint32 LE): payload element count — dims for
//	              full frames and XOR deltas, pair count for
//	              sparse deltas, label-class count for checkins/journals
//	32      —     payload
//	last 4        CRC32-IEEE (uint32 LE) over everything before it
//
// Payloads are little-endian float64s: a full frame carries dims
// values; a sparse delta carries count (uint32 index, float64 value)
// pairs holding the NEW absolute values at the changed coordinates
// (absolute, not differences, so applying a delta reproduces the
// server's vector bit for bit); an XOR delta carries ⌈dims/2⌉ control
// bytes, each holding two coordinates' 4-bit lengths (the even one's in
// the low nibble, a zero nibble after an odd last one), then for each
// coordinate that many low-order bytes of Float64bits(new) ^
// Float64bits(base), the shortest that hold it; a delta that is neither
// sparse nor XOR (the dense re-send older servers wrote) is refused; a
// checkin frame carries the dims gradient values, then NumSamples and
// ErrCount as int64s, then count int64 label counts.
//
// A journal frame is one write-ahead record — the store's at-rest format
// and the replication feed's unit. Its payload is five 8-byte scalars
// (AtUnixMillis, GradNorm1, the echoed checkout Version, NumSamples,
// ErrCount), the dims gradient values, count int64 label counts, then
// the device ID's bytes. No journal payload is compressed (Laplace-noised
// gradients do not compress), so every length that makes up one sits
// in the fixed header: JournalFrameLen computes the total from the
// header alone and a reader can hop over a frame — or pick out its
// iteration — without touching the payload. With FlagEOS the frame is
// header-only: the marker that ends a complete journal feed.
//
// A checkpoint frame (KindCheckpoint, checkpoint.go) shares the header
// and the trailer but carries varint counters, so it is read whole by
// DecodeCheckpoint rather than sized from its header.
//
// The package is dependency-free (stdlib only) and allocation-aware:
// encoders append to caller-supplied buffers, so a pooled []byte makes
// encoding zero-allocation on the hot path.
package wirecodec

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"math/bits"
	"slices"
)

// Frame kinds.
const (
	// KindFull is a complete parameter vector at one iteration.
	KindFull = 1
	// KindDelta is a change set against the base iteration in since:
	// sparse (index, value) pairs, or every value XORed with the base.
	KindDelta = 2
	// KindCheckin is a device's sanitized gradient contribution.
	KindCheckin = 3
	// KindJournal is one write-ahead journal record, or with FlagEOS the
	// header-only end-of-stream marker of a journal feed.
	KindJournal = 4
)

// Frame flags. Bit 0 once marked a flate-compressed payload; it is
// refused like every bit a frame's kind does not define.
const (
	// FlagDone mirrors CheckoutResponse.Done: the task has stopped.
	FlagDone = 1 << 1
	// FlagSparse marks a delta payload of (index, value) pairs.
	FlagSparse = 1 << 2
	// FlagEOS marks the header-only journal frame that ends a feed.
	FlagEOS = 1 << 3
	// FlagXOR marks a delta of XOR words, sent only to a client that asks.
	FlagXOR = 1 << 4
)

const (
	// Magic opens every frame.
	Magic = "CMW1"
	// HeaderLen is the fixed header's size.
	HeaderLen = 32

	codecVer = 1
	crcLen   = 4
	// journalScalars is the fixed block that leads a journal payload.
	journalScalars = 5 * 8

	// MaxPayload bounds the decoded payload size (the HTTP layer limits
	// request bodies identically), so a forged count field cannot make
	// Decode allocate unbounded memory.
	MaxPayload = 64 << 20
)

// ErrFrame is wrapped by every Decode failure, so transports can map
// any malformed frame to one protocol error (HTTP 400).
var ErrFrame = errors.New("wirecodec: malformed frame")

// Frame is one decoded message. Slices never alias the input buffer, so
// callers may pool and reuse the raw bytes immediately after Decode.
type Frame struct {
	// Kind is KindFull, KindDelta, KindCheckin or KindJournal.
	Kind byte
	// Done mirrors FlagDone.
	Done bool
	// Sparse and XOR mirror FlagSparse and FlagXOR (KindDelta only).
	Sparse, XOR bool
	// Version is the frame's model iteration (for checkins and journal
	// records: the echoed checkout Version).
	Version int
	// Since is the delta base iteration; -1 for non-delta frames.
	Since int
	// Dims is the full vector length.
	Dims int
	// Values holds the payload float64s: the full vector (KindFull), the
	// new values at the changed coordinates (sparse KindDelta), the XOR
	// words as bit patterns (XOR KindDelta, until ApplyDelta turns them
	// into the full vector), or the gradient (KindCheckin, KindJournal).
	Values []float64
	// Indices are the changed coordinates of a sparse delta, each < Dims.
	Indices []uint32
	// NumSamples, ErrCount and LabelCounts carry the checkin counters
	// (KindCheckin and KindJournal).
	NumSamples  int
	ErrCount    int
	LabelCounts []int
	// The rest is KindJournal only. Iteration is where in the SGD
	// sequence the record was applied — or, when EOS is set, the sender's
	// iteration counter, and every other field is zero.
	Iteration    int
	EOS          bool
	DeviceID     string
	AtUnixMillis int64
	GradNorm1    float64
}

func appendHeader(dst []byte, kind byte, flags uint16, version, since int64, dims, count uint32) []byte {
	dst = append(dst, Magic...)
	dst = append(dst, codecVer, kind)
	dst = binary.LittleEndian.AppendUint16(dst, flags)
	dst = binary.LittleEndian.AppendUint64(dst, uint64(version))
	dst = binary.LittleEndian.AppendUint64(dst, uint64(since))
	dst = binary.LittleEndian.AppendUint32(dst, dims)
	dst = binary.LittleEndian.AppendUint32(dst, count)
	return dst
}

// finishFrame appends the CRC trailer over the frame built at dst[start:].
func finishFrame(dst []byte, start int) []byte {
	return binary.LittleEndian.AppendUint32(dst, crc32.ChecksumIEEE(dst[start:]))
}

func appendFloats(dst []byte, vals []float64) []byte {
	for _, v := range vals {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
	}
	return dst
}

func doneFlag(done bool) uint16 {
	if done {
		return FlagDone
	}
	return 0
}

// AppendFull appends a full-vector frame to dst and returns the
// extended buffer.
func AppendFull(dst []byte, params []float64, version int, done bool) []byte {
	dst = slices.Grow(dst, HeaderLen+8*len(params)+crcLen)
	start, n := len(dst), uint32(len(params))
	dst = appendHeader(dst, KindFull, doneFlag(done), int64(version), -1, n, n)
	return finishFrame(appendFloats(dst, params), start)
}

// AppendCheckout appends the full frame of params, whatever else it is passed.
//
// Deprecated: use AppendFull or AppendDelta.
func AppendCheckout(dst []byte, params []float64, version int, done bool, since int, indices []uint32, values []float64, compress bool) []byte {
	return AppendFull(dst, params, version, done)
}

// AppendDelta appends the checkout frame of params at version for a
// client holding base at since, as core.ParamDelta has them (since < 0:
// no base; base nil: the client is current): the smallest of the sparse
// delta, the XOR delta if the client opted in (xor) and the full frame,
// full on a tie, sparse over XOR. A dst with room means no allocation.
func AppendDelta(dst []byte, base, params []float64, version int, done bool, since int, xor bool) []byte {
	if since < 0 {
		return AppendFull(dst, params, version, done)
	}
	start, n, changed := len(dst), len(params), 0
	if xor && base != nil { // written as the changes are counted, undone if not the smallest
		c := (n + 1) / 2
		dst = appendHeader(slices.Grow(dst, HeaderLen+c+8*n+crcLen+8), KindDelta, doneFlag(done)|FlagXOR, int64(version), int64(since), uint32(n), uint32(n))
		h := len(dst)
		w, p := dst[:h+c+8*n+8], h+c // PutUint64 writes a whole word: 8 bytes of slack
		for i := 0; i < n; i += 2 {
			x0, x1 := math.Float64bits(params[i])^math.Float64bits(base[i]), uint64(0)
			if i+1 < n {
				x1 = math.Float64bits(params[i+1]) ^ math.Float64bits(base[i+1])
			}
			l0, l1 := (bits.Len64(x0)+7)>>3, (bits.Len64(x1)+7)>>3
			w[h+i/2] = byte(l0 | l1<<4)
			binary.LittleEndian.PutUint64(w[p:], x0)
			binary.LittleEndian.PutUint64(w[p+l0:], x1)
			p, changed = p+l0+l1, changed+min(l0, 1)+min(l1, 1)
		}
		if p-h < 12*changed && p-h < 8*n {
			return finishFrame(w[:p], start)
		}
		dst = dst[:start]
	} else {
		for i, v := range base {
			if math.Float64bits(params[i]) != math.Float64bits(v) {
				changed++
			}
		}
	}
	if 12*changed >= 8*n {
		return AppendFull(dst, params, version, done)
	}
	dst = appendHeader(slices.Grow(dst, HeaderLen+12*changed+crcLen), KindDelta, doneFlag(done)|FlagSparse, int64(version), int64(since), uint32(n), uint32(changed))
	for i, v := range base {
		if math.Float64bits(params[i]) != math.Float64bits(v) {
			dst = binary.LittleEndian.AppendUint32(dst, uint32(i))
			dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(params[i]))
		}
	}
	return finishFrame(dst, start)
}

// AppendCheckin appends a device checkin frame: the sanitized gradient,
// the echoed checkout version, and the paper's counters. The trailing
// compress argument is ignored (frames are never compressed).
func AppendCheckin(dst []byte, grad []float64, version, numSamples, errCount int, labelCounts []int, compress bool) []byte {
	dst = slices.Grow(dst, HeaderLen+8*len(grad)+16+8*len(labelCounts)+crcLen)
	start := len(dst)
	dst = appendHeader(dst, KindCheckin, 0, int64(version), -1,
		uint32(len(grad)), uint32(len(labelCounts)))
	dst = appendFloats(dst, grad)
	dst = binary.LittleEndian.AppendUint64(dst, uint64(int64(numSamples)))
	dst = binary.LittleEndian.AppendUint64(dst, uint64(int64(errCount)))
	for _, c := range labelCounts {
		dst = binary.LittleEndian.AppendUint64(dst, uint64(int64(c)))
	}
	return finishFrame(dst, start)
}

// AppendJournal appends one journal record built from fr's journal
// fields (Iteration, DeviceID, AtUnixMillis, GradNorm1, Version, Values
// as the gradient, NumSamples, ErrCount, LabelCounts) straight into dst.
// A record Decode would refuse (negative iteration, payload over
// MaxPayload) is an error here: an acknowledged checkin must never be
// written in a form recovery cannot read back.
func AppendJournal(dst []byte, fr *Frame) ([]byte, error) {
	n, err := journalPayloadLen(0, int64(fr.Iteration), int64(len(fr.DeviceID)),
		uint64(len(fr.Values)), uint64(len(fr.LabelCounts)))
	if err != nil {
		return dst, err
	}
	// The frame's length is known: a buffer without room (a feed
	// writer's, when the pool had none to give it) grows once, not by
	// doubling, and in one allocation even under the race detector, where
	// slices.Grow takes two.
	if size := HeaderLen + n + crcLen; cap(dst)-len(dst) < size {
		dst = append(make([]byte, 0, len(dst)+size), dst...)
	}
	start := len(dst)
	dst = appendHeader(dst, KindJournal, 0, int64(fr.Iteration), int64(len(fr.DeviceID)),
		uint32(len(fr.Values)), uint32(len(fr.LabelCounts)))
	dst = binary.LittleEndian.AppendUint64(dst, uint64(fr.AtUnixMillis))
	dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(fr.GradNorm1))
	dst = binary.LittleEndian.AppendUint64(dst, uint64(int64(fr.Version)))
	dst = binary.LittleEndian.AppendUint64(dst, uint64(int64(fr.NumSamples)))
	dst = binary.LittleEndian.AppendUint64(dst, uint64(int64(fr.ErrCount)))
	dst = appendFloats(dst, fr.Values)
	for _, c := range fr.LabelCounts {
		dst = binary.LittleEndian.AppendUint64(dst, uint64(int64(c)))
	}
	dst = append(dst, fr.DeviceID...)
	return finishFrame(dst, start), nil
}

// AppendJournalEOS appends the header-only marker that ends a complete
// journal feed, carrying the sender's iteration counter.
func AppendJournalEOS(dst []byte, iteration int) []byte {
	start := len(dst)
	dst = appendHeader(dst, KindJournal, FlagEOS, int64(iteration), 0, 0, 0)
	return finishFrame(dst, start)
}

// journalPayloadLen is the one place a journal frame's header fields
// turn into a payload size; the encoder, Decode and JournalFrameLen all
// go through it, so none can accept a header another would size
// differently.
func journalPayloadLen(flags uint16, iteration, idLen int64, dims, count uint64) (int, error) {
	if iteration < 0 {
		return 0, fmt.Errorf("%w: negative journal iteration", ErrFrame)
	}
	if flags == FlagEOS {
		if idLen != 0 || dims != 0 || count != 0 {
			return 0, fmt.Errorf("%w: journal EOS marker carries sizes", ErrFrame)
		}
		return 0, nil
	}
	if flags != 0 {
		return 0, fmt.Errorf("%w: journal frame with flags %#x", ErrFrame, flags)
	}
	// Each term is bounded before the sum, so nothing here can overflow.
	if idLen < 0 || idLen > MaxPayload || dims > MaxPayload/8 || count > MaxPayload/8 {
		return 0, fmt.Errorf("%w: implausible journal frame size", ErrFrame)
	}
	n := journalScalars + 8*int(dims) + 8*int(count) + int(idLen)
	if n > MaxPayload {
		return 0, fmt.Errorf("%w: journal payload of %d bytes exceeds %d", ErrFrame, n, MaxPayload)
	}
	return n, nil
}

// JournalFrameLen reads a journal frame's fixed header (at least
// HeaderLen bytes) and returns the record's iteration and the frame's
// total length — header, payload and CRC trailer — without looking at
// the payload: what lets a segment reader skip covered records, find a
// segment's first and last iteration, and size its read before it
// allocates. The header's own integrity is only established when the
// whole frame is Decoded; a caller that skips on this result trusts the
// header exactly as far as the next frame's magic check.
func JournalFrameLen(hdr []byte) (iteration, frameLen int, err error) {
	if len(hdr) < HeaderLen {
		return 0, 0, fmt.Errorf("%w: %d bytes is shorter than a header", ErrFrame, len(hdr))
	}
	if string(hdr[:4]) != Magic || hdr[4] != codecVer || hdr[5] != KindJournal {
		return 0, 0, fmt.Errorf("%w: not a journal frame header", ErrFrame)
	}
	iter := int64(binary.LittleEndian.Uint64(hdr[8:]))
	payload, err := journalPayloadLen(binary.LittleEndian.Uint16(hdr[6:]), iter,
		int64(binary.LittleEndian.Uint64(hdr[16:])),
		uint64(binary.LittleEndian.Uint32(hdr[24:])), uint64(binary.LittleEndian.Uint32(hdr[28:])))
	if err != nil {
		return 0, 0, err
	}
	return int(iter), HeaderLen + payload + crcLen, nil
}

// ReadJournal reads one journal frame off a stream — the fixed header
// first, which sizes the rest before anything is allocated for it —
// staging it in buf, which it returns (grown if need be) for the next
// call, and decoding it into fr as DecodeInto does. io.EOF means the
// stream ended between frames, io.ErrUnexpectedEOF inside one; a frame
// that does not verify wraps ErrFrame. After any error fr is unspecified.
func ReadJournal(r io.Reader, buf []byte, fr *Frame) ([]byte, error) {
	if cap(buf) < HeaderLen {
		buf = make([]byte, HeaderLen, 4096)
	}
	if _, err := io.ReadFull(r, buf[:HeaderLen]); err != nil {
		return buf, err
	}
	_, n, err := JournalFrameLen(buf[:HeaderLen])
	if err != nil {
		return buf, err
	}
	if cap(buf) < n {
		buf = append(make([]byte, 0, n), buf[:HeaderLen]...)
	}
	if _, err := io.ReadFull(r, buf[HeaderLen:n]); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return buf, err
	}
	return buf, DecodeInto(fr, buf[:n])
}

// Decode parses and validates one frame. Every failure wraps ErrFrame:
// a short buffer, a CRC mismatch (truncation or corruption), an unknown
// magic/version/kind, a flag the kind does not define, a count field
// inconsistent with the payload, or a sparse index out of range. The
// returned Frame owns its slices; b may be reused immediately.
func Decode(b []byte) (*Frame, error) {
	fr := new(Frame)
	if err := DecodeInto(fr, b); err != nil {
		return nil, err
	}
	return fr, nil
}

// DecodeInto is Decode into a caller-supplied Frame, for callers that
// pool one: fr is overwritten whole, except that Values and LabelCounts
// keep the backing arrays they came in with — emptied when the frame
// carries none, reused when large enough — so the caller must be done
// with their previous contents. After an error fr is unspecified.
func DecodeInto(fr *Frame, b []byte) error {
	flags, err := checkEnvelope(b)
	if err != nil {
		return err
	}
	scratch, counts := fr.Values[:0], fr.LabelCounts[:0]
	*fr = Frame{
		Values:      scratch,
		LabelCounts: counts,
		Kind:        b[5],
		Done:        flags&FlagDone != 0,
		Sparse:      flags&FlagSparse != 0,
		XOR:         flags&FlagXOR != 0,
		Version:     int(int64(binary.LittleEndian.Uint64(b[8:]))),
		Since:       int(int64(binary.LittleEndian.Uint64(b[16:]))),
		Dims:        int(binary.LittleEndian.Uint32(b[24:])),
	}
	count := int(binary.LittleEndian.Uint32(b[28:]))
	if fr.Version < 0 || fr.Since < -1 {
		return fmt.Errorf("%w: negative version/since", ErrFrame)
	}

	// Work out the expected payload size per kind BEFORE touching the
	// payload, so a forged header cannot trigger an oversized allocation.
	// defined is the flag bits the kind may carry: any other — bit 0,
	// which once marked a flate payload, among them — is refused.
	var expect int
	var defined uint16
	switch fr.Kind {
	case KindFull:
		defined = FlagDone
		if count != fr.Dims {
			return fmt.Errorf("%w: full frame count %d != dims %d", ErrFrame, count, fr.Dims)
		}
		if fr.Since != -1 {
			return fmt.Errorf("%w: full frame carries a since", ErrFrame)
		}
		expect = 8 * count
	case KindDelta:
		defined = FlagDone | FlagSparse | FlagXOR
		if fr.Since < 0 {
			return fmt.Errorf("%w: delta frame without a since", ErrFrame)
		}
		if fr.Since > fr.Version {
			return fmt.Errorf("%w: delta since %d ahead of version %d", ErrFrame, fr.Since, fr.Version)
		}
		switch {
		case fr.Sparse == fr.XOR:
			return fmt.Errorf("%w: delta must be sparse or XOR (sparse %v, xor %v)", ErrFrame, fr.Sparse, fr.XOR)
		case fr.Sparse:
			if count > fr.Dims {
				return fmt.Errorf("%w: sparse delta with %d pairs for %d dims", ErrFrame, count, fr.Dims)
			}
			expect = 12 * count
		case count != fr.Dims:
			return fmt.Errorf("%w: delta count %d != dims %d", ErrFrame, count, fr.Dims)
		default:
			// At least half a byte per coordinate, at most a full frame's
			// worth of coordinates.
			if expect = len(b) - HeaderLen - crcLen; expect < (count+1)/2 || count > MaxPayload/8 {
				return fmt.Errorf("%w: XOR delta of %d bytes for %d dims", ErrFrame, expect, count)
			}
		}
	case KindCheckin:
		expect = 8*fr.Dims + 16 + 8*count
	case KindJournal:
		defined = FlagEOS
		var err error
		if expect, err = journalPayloadLen(flags, int64(fr.Version), int64(fr.Since),
			uint64(fr.Dims), uint64(count)); err != nil {
			return err
		}
	case KindCheckpoint:
		return fmt.Errorf("%w: a checkpoint frame is read by DecodeCheckpoint", ErrFrame)
	default:
		return fmt.Errorf("%w: unknown kind %d", ErrFrame, fr.Kind)
	}
	if flags&^defined != 0 {
		return fmt.Errorf("%w: kind %d frame with flags %#x", ErrFrame, fr.Kind, flags)
	}
	if fr.Dims < 0 || count < 0 || expect < 0 || expect > MaxPayload {
		return fmt.Errorf("%w: implausible payload size", ErrFrame)
	}

	payload := b[HeaderLen : len(b)-crcLen]
	if len(payload) != expect {
		return fmt.Errorf("%w: payload %d bytes, want %d", ErrFrame, len(payload), expect)
	}

	switch fr.Kind {
	case KindFull:
		fr.Values = decodeFloats(scratch, payload, count)
	case KindDelta:
		if fr.XOR {
			if fr.Values = sized(scratch, count); !decodeXOR(fr.Values, b[:len(b)-crcLen]) {
				return fmt.Errorf("%w: malformed XOR delta payload", ErrFrame)
			}
			break
		}
		fr.Indices = make([]uint32, count)
		fr.Values = sized(scratch, count)
		for i := 0; i < count; i++ {
			idx := binary.LittleEndian.Uint32(payload[12*i:])
			if int(idx) >= fr.Dims {
				return fmt.Errorf("%w: sparse index %d out of range [0,%d)", ErrFrame, idx, fr.Dims)
			}
			fr.Indices[i] = idx
			fr.Values[i] = math.Float64frombits(binary.LittleEndian.Uint64(payload[12*i+4:]))
		}
	case KindCheckin:
		fr.Values = decodeFloats(scratch, payload, fr.Dims)
		off := 8 * fr.Dims
		fr.NumSamples = int(int64(binary.LittleEndian.Uint64(payload[off:])))
		fr.ErrCount = int(int64(binary.LittleEndian.Uint64(payload[off+8:])))
		fr.LabelCounts = decodeInts(counts, payload[off+16:], count)
	case KindJournal:
		// The header's version and since slots held the iteration and the
		// device-ID length; the Frame reports them under their own names.
		idLen := fr.Since
		fr.Iteration, fr.Version, fr.Since = fr.Version, 0, -1
		if fr.EOS = flags&FlagEOS != 0; fr.EOS {
			break
		}
		fr.AtUnixMillis = int64(binary.LittleEndian.Uint64(payload))
		fr.GradNorm1 = math.Float64frombits(binary.LittleEndian.Uint64(payload[8:]))
		fr.Version = int(int64(binary.LittleEndian.Uint64(payload[16:])))
		fr.NumSamples = int(int64(binary.LittleEndian.Uint64(payload[24:])))
		fr.ErrCount = int(int64(binary.LittleEndian.Uint64(payload[32:])))
		fr.Values = decodeFloats(scratch, payload[journalScalars:], fr.Dims)
		off := journalScalars + 8*fr.Dims
		fr.LabelCounts = decodeInts(counts, payload[off:], count)
		fr.DeviceID = string(payload[off+8*count : off+8*count+idLen])
	}
	return nil
}

// checkEnvelope verifies what every kind shares — the length of a frame,
// the CRC trailer, the magic and the codec version — and returns the flags.
func checkEnvelope(b []byte) (flags uint16, err error) {
	if len(b) < HeaderLen+crcLen {
		return 0, fmt.Errorf("%w: %d bytes is shorter than a frame", ErrFrame, len(b))
	}
	if got, want := binary.LittleEndian.Uint32(b[len(b)-crcLen:]), crc32.ChecksumIEEE(b[:len(b)-crcLen]); got != want {
		return 0, fmt.Errorf("%w: CRC mismatch (frame truncated or corrupted)", ErrFrame)
	}
	if string(b[:4]) != Magic {
		return 0, fmt.Errorf("%w: bad magic", ErrFrame)
	}
	if b[4] != codecVer {
		return 0, fmt.Errorf("%w: unsupported codec version %d", ErrFrame, b[4])
	}
	return binary.LittleEndian.Uint16(b[6:]), nil
}

// sized returns scratch resliced to n values when its backing array is
// large enough, a new (never nil) slice otherwise.
func sized[T any](scratch []T, n int) []T {
	if scratch == nil || cap(scratch) < n {
		return make([]T, n)
	}
	return scratch[:n]
}

func decodeFloats(scratch []float64, payload []byte, n int) []float64 {
	out := sized(scratch, n)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(payload[8*i:]))
	}
	return out
}

// decodeInts is decodeFloats for the label counts.
func decodeInts(scratch []int, payload []byte, n int) []int {
	out := sized(scratch, n)
	for i := range out {
		out[i] = int(int64(binary.LittleEndian.Uint64(payload[8*i:])))
	}
	return out
}

// decodeXOR reads the XOR delta payload that ends frame into words, each
// from the 8 bytes ending with its last (the header keeps that read in
// the frame). A length past 8 or longer than its word needs, a padding
// nibble, or bytes after the last word make it false: one encoding.
func decodeXOR(words []float64, frame []byte) bool {
	c := (len(words) + 1) / 2
	ctl, end := frame[HeaderLen:HeaderLen+c], HeaderLen+c
	for i := 0; i < len(words); i += 2 {
		l0, l1 := int(ctl[i>>1]&15), int(ctl[i>>1]>>4)
		if l0 > 8 || l1 > 8 || end+l0+l1 > len(frame) || (i+1 == len(words) && l1 != 0) {
			return false
		}
		x0 := binary.LittleEndian.Uint64(frame[end+l0-8:]) >> (64 - 8*l0)
		x1 := binary.LittleEndian.Uint64(frame[end+l0+l1-8:]) >> (64 - 8*l1)
		if end += l0 + l1; bits.Len64(x0) <= 8*l0-8 || bits.Len64(x1) <= 8*l1-8 {
			return false
		}
		if words[i] = math.Float64frombits(x0); i+1 < len(words) {
			words[i+1] = math.Float64frombits(x1)
		}
	}
	return end == len(frame)
}

// ApplyDelta reconstructs the full vector a delta frame describes, at a
// cost proportional to what changed: an XOR delta's words with base XORed
// in, in place, after which the frame is neither sparse nor XOR and a
// second call hands back the same Values; base itself for an empty sparse
// delta; one new vector, base with the changed coordinates overwritten,
// for any other.
// Each is bit-identical to the server's snapshot at fr.Version, and base
// is never written: a caller may hold it as an immutable snapshot and
// treat the result as the next one.
func ApplyDelta(base []float64, fr *Frame) ([]float64, error) {
	if fr.Kind != KindDelta {
		return nil, fmt.Errorf("%w: ApplyDelta on kind %d", ErrFrame, fr.Kind)
	}
	if !fr.Sparse && !fr.XOR {
		return fr.Values, nil
	}
	if len(base) != fr.Dims {
		return nil, fmt.Errorf("%w: delta base has %d dims, frame %d", ErrFrame, len(base), fr.Dims)
	}
	if fr.XOR {
		for i, b := range base {
			fr.Values[i] = math.Float64frombits(math.Float64bits(fr.Values[i]) ^ math.Float64bits(b))
		}
		fr.XOR = false
		return fr.Values, nil
	}
	if len(fr.Indices) == 0 {
		return base, nil
	}
	out := make([]float64, len(base))
	copy(out, base)
	for i, idx := range fr.Indices {
		out[idx] = fr.Values[i]
	}
	return out, nil
}
