package wirecodec

import (
	"encoding/binary"
	"fmt"

	"github.com/crowdml/crowdml/internal/core"
)

// KindCheckpoint is one snapshot of a task's learning state: the store's
// checkpoint at rest and the replication bootstrap artifact. It is not a
// Frame (Decode refuses it, DecodeCheckpoint reads it), and the header
// does not size its payload: the whole input is the frame, at most
// MaxPayload bytes. Header: FlagDone = stopped, version = iteration,
// since = -1, dims = len(params), count = number of devices. Payload:
//
//	8           savedAtUnixMillis (int64 LE)
//	8·dims      params (float64 LE: raw bits, so NaN payloads and -0 survive)
//	uvarint n   + 8·n updater state float64s
//	uvarint n   + n bytes model name, then the same for the updater name
//	varint ×4   classes, dim, totalSamples, totalErrors
//	uvarint n   + n varint total label counts
//	count ×     uvarint n + n bytes id; varint samples, errors, checkins,
//	            stalenessSum; uvarint n + n varint label counts
//
// Devices are strictly increasing by id, so equal states are equal bytes;
// counters are zigzag varints because sanitized counts may be negative.
const KindCheckpoint = 5

// minDeviceLen is the shortest device row: an empty id, four counters and
// an empty list, one byte each.
const minDeviceLen = 6

// appendInts appends vals as varints, led by their count when counted.
func appendInts(dst []byte, counted bool, vals ...int) []byte {
	if counted {
		dst = binary.AppendUvarint(dst, uint64(len(vals)))
	}
	for _, v := range vals {
		dst = binary.AppendVarint(dst, int64(v))
	}
	return dst
}

func appendString(dst []byte, s string) []byte {
	return append(binary.AppendUvarint(dst, uint64(len(s))), s...)
}

// AppendCheckpoint appends st, saved at savedAtUnixMillis, as one
// checkpoint frame straight into dst: a state whose device table is rows
// (core.Server.ExportStateInto's form) encodes into a reused buffer
// without allocating. A state DecodeCheckpoint could not give back —
// negative iteration, a device table SortedDevices refuses, a frame over
// MaxPayload — is an error wrapping ErrFrame and leaves dst as it came: a
// store must never replace a readable checkpoint with one recovery cannot
// read back.
func AppendCheckpoint(dst []byte, st *core.ServerState, savedAtUnixMillis int64) ([]byte, error) {
	if st.Iteration < 0 {
		return dst, fmt.Errorf("%w: negative checkpoint iteration", ErrFrame)
	}
	rows, err := st.SortedDevices()
	if err != nil {
		return dst, fmt.Errorf("%w: %w", ErrFrame, err)
	}
	start := len(dst)
	dst = appendHeader(dst, KindCheckpoint, doneFlag(st.Stopped), int64(st.Iteration), -1, uint32(len(st.Params)), uint32(len(rows)))
	dst = binary.LittleEndian.AppendUint64(dst, uint64(savedAtUnixMillis))
	dst = appendFloats(dst, st.Params)
	dst = binary.AppendUvarint(dst, uint64(len(st.UpdaterState)))
	dst = appendFloats(dst, st.UpdaterState)
	dst = appendString(appendString(dst, st.ModelName), st.UpdaterName)
	dst = appendInts(dst, false, st.Classes, st.Dim, st.TotalSamples, st.TotalErrors)
	dst = appendInts(dst, true, st.TotalLabelCounts...)
	for i := range rows {
		d := &rows[i]
		dst = appendString(dst, d.ID)
		dst = appendInts(dst, false, d.Samples, d.Errors, d.Checkins, d.StalenessSum)
		dst = appendInts(dst, true, d.LabelCounts...)
	}
	if size := len(dst) - start + crcLen; size > MaxPayload {
		return dst[:start], fmt.Errorf("%w: checkpoint frame of %d bytes exceeds %d", ErrFrame, size, MaxPayload)
	}
	return finishFrame(dst, start), nil
}

// payloadReader walks a checkpoint payload. The first malformed field
// latches err and every later read returns zero values, so the decoder
// checks once at the end instead of once per field.
type payloadReader struct {
	b   []byte
	err error
}

func (r *payloadReader) fail() {
	if r.err == nil {
		r.err = fmt.Errorf("%w: checkpoint payload cut short or out of range", ErrFrame)
	}
	r.b = nil
}

func (r *payloadReader) varint() int {
	v, n := binary.Varint(r.b)
	if n <= 0 || int64(int(v)) != v {
		r.fail()
		return 0
	}
	r.b = r.b[n:]
	return int(v)
}

// length reads a uvarint count of elements at least elemSize bytes each,
// refusing one the bytes present cannot hold — so a forged count never
// sizes an allocation.
func (r *payloadReader) length(elemSize int) int {
	v, n := binary.Uvarint(r.b)
	if n <= 0 || v > uint64(len(r.b)-n)/uint64(elemSize) {
		r.fail()
		return 0
	}
	r.b = r.b[n:]
	return int(v)
}

func (r *payloadReader) take(n int) []byte {
	if n > len(r.b) {
		r.fail()
		return nil
	}
	out := r.b[:n]
	r.b = r.b[n:]
	return out
}

// floats decodes n float64s; nil for none.
func (r *payloadReader) floats(n int) []float64 {
	if raw := r.take(8 * n); len(raw) > 0 {
		return decodeFloats(nil, raw, n)
	}
	return nil
}

func (r *payloadReader) str() string { return string(r.take(r.length(1))) }

// ints decodes a counted varint list out of slab while it has room, so a
// device table costs one allocation; nil for an empty list. The result is
// capped at its own length: an append on one list reallocates instead of
// running into its neighbour's counts.
func (r *payloadReader) ints(slab *[]int) []int {
	n := r.length(1)
	if n == 0 {
		return nil
	}
	if cap(*slab)-len(*slab) < n {
		*slab = make([]int, 0, n)
	}
	lo := len(*slab)
	for i := 0; i < n; i++ {
		*slab = append(*slab, r.varint())
	}
	return (*slab)[lo:len(*slab):len(*slab)]
}

// DecodeCheckpoint parses and validates one checkpoint frame into the
// state it holds, its device table as rows (DeviceRows) in frame order,
// and the time it was saved. Every failure wraps ErrFrame. The state owns
// its memory — b may be reused at once — and empty vectors, lists and
// tables decode as nil.
func DecodeCheckpoint(b []byte) (st *core.ServerState, savedAtUnixMillis int64, err error) {
	flags, err := checkEnvelope(b)
	if err != nil {
		return nil, 0, err
	}
	iteration, since := int64(binary.LittleEndian.Uint64(b[8:])), int64(binary.LittleEndian.Uint64(b[16:]))
	dims, devices := int(binary.LittleEndian.Uint32(b[24:])), int(binary.LittleEndian.Uint32(b[28:]))
	r := payloadReader{b: b[HeaderLen : len(b)-crcLen]}
	// The header's counts are held against the bytes present before
	// anything is sized by them.
	if b[5] != KindCheckpoint || len(b) > MaxPayload || flags&^FlagDone != 0 ||
		iteration < 0 || int64(int(iteration)) != iteration || since != -1 ||
		len(r.b) < 8 || dims > (len(r.b)-8)/8 || devices > len(r.b)/minDeviceLen {
		return nil, 0, fmt.Errorf("%w: not a checkpoint header (kind %d, flags %#x, iteration %d, %d bytes)",
			ErrFrame, b[5], flags, iteration, len(b))
	}
	st = &core.ServerState{Iteration: int(iteration), Stopped: flags&FlagDone != 0}
	savedAtUnixMillis = int64(binary.LittleEndian.Uint64(r.take(8)))
	st.Params = r.floats(dims)
	st.UpdaterState = r.floats(r.length(8))
	st.ModelName, st.UpdaterName = r.str(), r.str()
	st.Classes, st.Dim, st.TotalSamples, st.TotalErrors = r.varint(), r.varint(), r.varint(), r.varint()
	var slab []int
	st.TotalLabelCounts = r.ints(&slab)
	if devices > 0 && r.err == nil {
		st.DeviceRows = make([]core.DeviceRow, devices)
		// One slab for the table when every device carries one count per
		// class (all do, outside tests); a count is at least a byte, which
		// bounds the guess by the bytes left.
		slab = make([]int, 0, min(devices*len(st.TotalLabelCounts), len(r.b)))
	}
	for i := range st.DeviceRows {
		d := &st.DeviceRows[i]
		d.ID = r.str()
		d.Samples, d.Errors, d.Checkins, d.StalenessSum = r.varint(), r.varint(), r.varint(), r.varint()
		d.LabelCounts = r.ints(&slab)
		if r.err == nil && i > 0 && d.ID <= st.DeviceRows[i-1].ID {
			r.err = fmt.Errorf("%w: checkpoint devices not strictly increasing at %q", ErrFrame, d.ID)
		}
	}
	if r.err == nil && len(r.b) != 0 {
		r.err = fmt.Errorf("%w: %d bytes after the checkpoint's device table", ErrFrame, len(r.b))
	}
	if r.err != nil {
		return nil, 0, r.err
	}
	return st, savedAtUnixMillis, nil
}
