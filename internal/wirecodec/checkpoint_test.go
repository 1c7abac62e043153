package wirecodec

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"reflect"
	"testing"
)

// testCheckpoint sits on the codec's edges: -0, NaN with a payload, ±Inf,
// negative (sanitized) counts, a multi-byte id, an empty id, a device
// without label counts.
func testCheckpoint() (*Checkpoint, []CheckpointDevice) {
	cp := &Checkpoint{
		SavedAtUnixMillis: 1_790_000_000_123,
		ModelName:         "multiclass-logistic-regression",
		UpdaterName:       "adagrad(eta=0.5)",
		Classes:           3, Dim: 2,
		Iteration:    41,
		Stopped:      true,
		TotalSamples: 1 << 40, TotalErrors: -7,
		Params: []float64{0.5, math.Copysign(0, -1), math.Float64frombits(0x7ff8_0000_dead_beef),
			math.Inf(1), math.Inf(-1), 1e-300},
		UpdaterState:     []float64{0.25, 0, 1, 4, 9, 16},
		TotalLabelCounts: []int{2, -2, 1},
	}
	return cp, []CheckpointDevice{
		{ID: "", Samples: 1, LabelCounts: []int{0, 0, 1}},
		{ID: "dev-a", Samples: 3, Errors: 1, Checkins: 1, LabelCounts: []int{1, -1, 1}},
		{ID: "dev-b", Samples: -2, Checkins: 70000, StalenessSum: 9},
		{ID: "设备-c", Samples: 2, LabelCounts: []int{math.MaxInt64, math.MinInt64, 0}},
	}
}

// encodeCheckpoint is AppendCheckpoint over a device table held in a slice.
func encodeCheckpoint(dst []byte, cp *Checkpoint, devices []CheckpointDevice) ([]byte, error) {
	return AppendCheckpoint(dst, cp, len(devices), func(i int) CheckpointDevice { return devices[i] })
}

// sameBits compares two vectors by bit pattern and nil-ness: DeepEqual
// calls NaN unequal to itself.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) || (a == nil) != (b == nil) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// assertCheckpointsEqual compares two decoded (or to-be-encoded)
// checkpoints, head and device table.
func assertCheckpointsEqual(t *testing.T, got *Checkpoint, gotDevices []CheckpointDevice, want *Checkpoint, wantDevices []CheckpointDevice) {
	t.Helper()
	g, w := *got, *want
	if !sameBits(g.Params, w.Params) || !sameBits(g.UpdaterState, w.UpdaterState) {
		t.Fatalf("checkpoint vectors differ:\n got %v %v\nwant %v %v", g.Params, g.UpdaterState, w.Params, w.UpdaterState)
	}
	g.Params, g.UpdaterState, w.Params, w.UpdaterState = nil, nil, nil, nil
	if !reflect.DeepEqual(g, w) || !reflect.DeepEqual(gotDevices, wantDevices) {
		t.Fatalf("checkpoint differs:\n got %+v %+v\nwant %+v %+v", g, gotDevices, w, wantDevices)
	}
}

// TestCheckpointRoundTrip: every field comes back bit for bit, the frame
// is appended after what dst already held, and encoding into a buffer
// with room allocates nothing — a store saves every checkpoint this way.
func TestCheckpointRoundTrip(t *testing.T) {
	in, inDevices := testCheckpoint()
	prefix := []byte("prefix")
	b, err := encodeCheckpoint(append([]byte(nil), prefix...), in, inDevices)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(b, prefix) {
		t.Fatal("AppendCheckpoint overwrote dst's contents")
	}
	frame := b[len(prefix):]
	out, outDevices, err := DecodeCheckpoint(frame)
	if err != nil {
		t.Fatal(err)
	}
	assertCheckpointsEqual(t, out, outDevices, in, inDevices)
	if _, err := Decode(frame); !errors.Is(err, ErrFrame) {
		t.Errorf("Decode read a checkpoint frame as a Frame: %v", err)
	}
	for _, d := range outDevices {
		if cap(d.LabelCounts) != len(d.LabelCounts) {
			t.Errorf("device %q: label counts cap %d over len %d runs into its neighbour", d.ID, cap(d.LabelCounts), len(d.LabelCounts))
		}
	}

	empty, err := encodeCheckpoint(nil, &Checkpoint{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if out, devices, err := DecodeCheckpoint(empty); err != nil || devices != nil || !reflect.DeepEqual(out, &Checkpoint{}) {
		t.Errorf("the zero checkpoint decodes as %+v %+v, %v", out, devices, err)
	}

	buf := make([]byte, 0, len(frame))
	if n := testing.AllocsPerRun(20, func() {
		if _, err := encodeCheckpoint(buf[:0], in, inDevices); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("AppendCheckpoint into a sized buffer allocates %v times", n)
	}
}

// TestCheckpointRefused: the encoder refuses what the decoder would
// (leaving dst alone), and the decoder refuses every damaged frame.
func TestCheckpointRefused(t *testing.T) {
	dst := []byte("kept")
	for name, edit := range map[string]func(cp *Checkpoint, devices []CheckpointDevice) []CheckpointDevice{
		"negative iteration": func(cp *Checkpoint, d []CheckpointDevice) []CheckpointDevice { cp.Iteration = -1; return d },
		"unsorted devices":   func(cp *Checkpoint, d []CheckpointDevice) []CheckpointDevice { d[1], d[2] = d[2], d[1]; return d },
		"duplicate device":   func(cp *Checkpoint, d []CheckpointDevice) []CheckpointDevice { d[2].ID = d[1].ID; return d },
		"over MaxPayload": func(cp *Checkpoint, d []CheckpointDevice) []CheckpointDevice {
			cp.Params = make([]float64, MaxPayload/8)
			return d
		},
	} {
		cp, devices := testCheckpoint()
		devices = edit(cp, devices)
		if out, err := encodeCheckpoint(dst, cp, devices); !errors.Is(err, ErrFrame) || string(out) != "kept" {
			t.Errorf("%s: AppendCheckpoint = %d bytes, %v; want dst back and ErrFrame", name, len(out), err)
		}
	}
	cp, devices := testCheckpoint()
	frame, err := encodeCheckpoint(nil, cp, devices)
	if err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut < len(frame); cut++ {
		if _, _, err := DecodeCheckpoint(frame[:cut]); !errors.Is(err, ErrFrame) {
			t.Fatalf("frame cut to %d of %d bytes: %v", cut, len(frame), err)
		}
	}
	for i := range frame {
		flipped := bytes.Clone(frame)
		flipped[i] ^= 0x10
		if _, _, err := DecodeCheckpoint(flipped); !errors.Is(err, ErrFrame) {
			t.Fatalf("bit flipped in byte %d: %v", i, err)
		}
	}

	// Damage under a valid CRC: only the decoder's own checks stand
	// between these and a panic or a forged allocation.
	reseal := func(b []byte) []byte {
		return finishFrame(b[:len(b)-crcLen], 0, false)
	}
	for name, edit := range map[string]func(b []byte) []byte{
		"journal kind":       func(b []byte) []byte { b[5] = KindJournal; return b },
		"unknown flag":       func(b []byte) []byte { b[6] |= FlagSparse; return b },
		"a since":            func(b []byte) []byte { binary.LittleEndian.PutUint64(b[16:], 3); return b },
		"dims past the end":  func(b []byte) []byte { binary.LittleEndian.PutUint32(b[24:], 1<<31); return b },
		"count past the end": func(b []byte) []byte { binary.LittleEndian.PutUint32(b[28:], 1<<31); return b },
		"one device more":    func(b []byte) []byte { binary.LittleEndian.PutUint32(b[28:], 5); return b },
		"one device fewer":   func(b []byte) []byte { binary.LittleEndian.PutUint32(b[28:], 3); return b },
		"trailing byte":      func(b []byte) []byte { return append(b[:len(b)-crcLen], 0, 0, 0, 0, 0) },
		"header only":        func(b []byte) []byte { return b[:HeaderLen+crcLen] },
	} {
		if _, _, err := DecodeCheckpoint(reseal(edit(bytes.Clone(frame)))); !errors.Is(err, ErrFrame) {
			t.Errorf("%s: %v, want ErrFrame", name, err)
		}
	}
	// Two ids swapped in place: the table no longer increases.
	swapped := bytes.Clone(frame)
	a, b := bytes.Index(swapped, []byte("dev-a")), bytes.Index(swapped, []byte("dev-b"))
	swapped[a+4], swapped[b+4] = 'b', 'a'
	if _, _, err := DecodeCheckpoint(reseal(swapped)); !errors.Is(err, ErrFrame) {
		t.Errorf("device ids out of order: %v, want ErrFrame", err)
	}
}
