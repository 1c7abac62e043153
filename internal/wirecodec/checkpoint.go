package wirecodec

import (
	"encoding/binary"
	"fmt"
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

// Checkpoint is the content of a KindCheckpoint frame ahead of its device
// table.
type Checkpoint struct {
	SavedAtUnixMillis         int64
	ModelName, UpdaterName    string
	Classes, Dim, Iteration   int
	Stopped                   bool
	TotalSamples, TotalErrors int
	Params, UpdaterState      []float64
	TotalLabelCounts          []int
}

// CheckpointDevice is one row of a checkpoint's device table.
type CheckpointDevice struct {
	ID                                      string
	Samples, Errors, Checkins, StalenessSum int
	LabelCounts                             []int
}

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

// AppendCheckpoint appends cp and its n device rows — row(i) is the i-th
// in increasing ID order — as one checkpoint frame, straight into dst:
// encoding into a reused buffer allocates nothing, and the rows need not
// exist anywhere at once. A checkpoint DecodeCheckpoint would refuse —
// negative iteration, rows not strictly increasing by ID, a frame over
// MaxPayload — is an error here and leaves dst as it came: a store must
// never replace a readable checkpoint with one recovery cannot read back.
func AppendCheckpoint(dst []byte, cp *Checkpoint, n int, row func(i int) CheckpointDevice) ([]byte, error) {
	if cp.Iteration < 0 {
		return dst, fmt.Errorf("%w: negative checkpoint iteration", ErrFrame)
	}
	start := len(dst)
	var flags uint16
	if cp.Stopped {
		flags = FlagDone
	}
	dst = appendHeader(dst, KindCheckpoint, flags, int64(cp.Iteration), -1, uint32(len(cp.Params)), uint32(n))
	dst = binary.LittleEndian.AppendUint64(dst, uint64(cp.SavedAtUnixMillis))
	dst = appendFloats(dst, cp.Params)
	dst = binary.AppendUvarint(dst, uint64(len(cp.UpdaterState)))
	dst = appendFloats(dst, cp.UpdaterState)
	dst = appendString(appendString(dst, cp.ModelName), cp.UpdaterName)
	dst = appendInts(dst, false, cp.Classes, cp.Dim, cp.TotalSamples, cp.TotalErrors)
	dst = appendInts(dst, true, cp.TotalLabelCounts...)
	for i, last := 0, ""; i < n; i++ {
		d := row(i)
		if i > 0 && d.ID <= last {
			return dst[:start], fmt.Errorf("%w: checkpoint devices not strictly increasing at %q", ErrFrame, d.ID)
		}
		dst = appendString(dst, d.ID)
		dst = appendInts(dst, false, d.Samples, d.Errors, d.Checkins, d.StalenessSum)
		dst = appendInts(dst, true, d.LabelCounts...)
		last = d.ID
	}
	if size := len(dst) - start + crcLen; size > MaxPayload {
		return dst[:start], fmt.Errorf("%w: checkpoint frame of %d bytes exceeds %d", ErrFrame, size, MaxPayload)
	}
	return finishFrame(dst, start, false), nil
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

// DecodeCheckpoint parses and validates one checkpoint frame into its
// head and its device table. Every failure wraps ErrFrame. The results own
// their memory — b may be reused at once — and empty vectors and lists
// decode as nil.
func DecodeCheckpoint(b []byte) (*Checkpoint, []CheckpointDevice, error) {
	flags, err := checkEnvelope(b)
	if err != nil {
		return nil, nil, err
	}
	iteration, since := int64(binary.LittleEndian.Uint64(b[8:])), int64(binary.LittleEndian.Uint64(b[16:]))
	dims, devices := int(binary.LittleEndian.Uint32(b[24:])), int(binary.LittleEndian.Uint32(b[28:]))
	r := payloadReader{b: b[HeaderLen : len(b)-crcLen]}
	// The header's counts are held against the bytes present before
	// anything is sized by them.
	if b[5] != KindCheckpoint || len(b) > MaxPayload || flags&^FlagDone != 0 ||
		iteration < 0 || int64(int(iteration)) != iteration || since != -1 ||
		len(r.b) < 8 || dims > (len(r.b)-8)/8 || devices > len(r.b)/minDeviceLen {
		return nil, nil, fmt.Errorf("%w: not a checkpoint header (kind %d, flags %#x, iteration %d, %d bytes)",
			ErrFrame, b[5], flags, iteration, len(b))
	}
	cp := &Checkpoint{Iteration: int(iteration), Stopped: flags&FlagDone != 0}
	cp.SavedAtUnixMillis = int64(binary.LittleEndian.Uint64(r.take(8)))
	cp.Params = r.floats(dims)
	cp.UpdaterState = r.floats(r.length(8))
	cp.ModelName, cp.UpdaterName = r.str(), r.str()
	cp.Classes, cp.Dim, cp.TotalSamples, cp.TotalErrors = r.varint(), r.varint(), r.varint(), r.varint()
	var slab []int
	cp.TotalLabelCounts = r.ints(&slab)
	var rows []CheckpointDevice
	if devices > 0 && r.err == nil {
		rows = make([]CheckpointDevice, devices)
		// One slab for the table when every device carries one count per
		// class (all do, outside tests); a count is at least a byte, which
		// bounds the guess by the bytes left.
		slab = make([]int, 0, min(devices*len(cp.TotalLabelCounts), len(r.b)))
	}
	for i := range rows {
		d := &rows[i]
		d.ID = r.str()
		d.Samples, d.Errors, d.Checkins, d.StalenessSum = r.varint(), r.varint(), r.varint(), r.varint()
		d.LabelCounts = r.ints(&slab)
		if r.err == nil && i > 0 && d.ID <= rows[i-1].ID {
			r.err = fmt.Errorf("%w: checkpoint devices not strictly increasing at %q", ErrFrame, d.ID)
		}
	}
	if r.err == nil && len(r.b) != 0 {
		r.err = fmt.Errorf("%w: %d bytes after the checkpoint's device table", ErrFrame, len(r.b))
	}
	if r.err != nil {
		return nil, nil, r.err
	}
	return cp, rows, nil
}
