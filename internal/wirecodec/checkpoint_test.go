package wirecodec

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"reflect"
	"testing"

	"github.com/crowdml/crowdml/internal/core"
)

// testSavedAt is when testCheckpoint's state was saved.
const testSavedAt = 1_790_000_000_123

// testCheckpoint sits on the codec's edges: -0, NaN with a payload, ±Inf,
// negative (sanitized) counts, a multi-byte id, an empty id, a device
// without label counts.
func testCheckpoint() *core.ServerState {
	return &core.ServerState{
		ModelName:   "multiclass-logistic-regression",
		UpdaterName: "adagrad(eta=0.5)",
		Classes:     3, Dim: 2,
		Iteration:    41,
		Stopped:      true,
		TotalSamples: 1 << 40, TotalErrors: -7,
		Params: []float64{0.5, math.Copysign(0, -1), math.Float64frombits(0x7ff8_0000_dead_beef),
			math.Inf(1), math.Inf(-1), 1e-300},
		UpdaterState:     []float64{0.25, 0, 1, 4, 9, 16},
		TotalLabelCounts: []int{2, -2, 1},
		DeviceRows: []core.DeviceRow{
			{ID: "", DeviceStats: core.DeviceStats{Samples: 1, LabelCounts: []int{0, 0, 1}}},
			{ID: "dev-a", DeviceStats: core.DeviceStats{Samples: 3, Errors: 1, Checkins: 1, LabelCounts: []int{1, -1, 1}}},
			{ID: "dev-b", DeviceStats: core.DeviceStats{Samples: -2, Checkins: 70000, StalenessSum: 9}},
			{ID: "设备-c", DeviceStats: core.DeviceStats{Samples: 2, LabelCounts: []int{math.MaxInt64, math.MinInt64, 0}}},
		},
	}
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

// assertCheckpointsEqual compares two decoded (or to-be-encoded) states,
// head and device table.
func assertCheckpointsEqual(t *testing.T, got, want *core.ServerState) {
	t.Helper()
	g, w := *got, *want
	if !sameBits(g.Params, w.Params) || !sameBits(g.UpdaterState, w.UpdaterState) {
		t.Fatalf("checkpoint vectors differ:\n got %v %v\nwant %v %v", g.Params, g.UpdaterState, w.Params, w.UpdaterState)
	}
	g.Params, g.UpdaterState, w.Params, w.UpdaterState = nil, nil, nil, nil
	if !reflect.DeepEqual(g, w) {
		t.Fatalf("checkpoint differs:\n got %+v\nwant %+v", g, w)
	}
}

// TestCheckpointRoundTrip: every field comes back bit for bit, the frame
// is appended after what dst already held, a state keyed by ID encodes to
// the same bytes as its rows, and encoding into a buffer with room
// allocates nothing — a store saves every checkpoint this way.
func TestCheckpointRoundTrip(t *testing.T) {
	in := testCheckpoint()
	prefix := []byte("prefix")
	b, err := AppendCheckpoint(append([]byte(nil), prefix...), in, testSavedAt)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(b, prefix) {
		t.Fatal("AppendCheckpoint overwrote dst's contents")
	}
	frame := b[len(prefix):]
	out, savedAt, err := DecodeCheckpoint(frame)
	if err != nil {
		t.Fatal(err)
	}
	if savedAt != testSavedAt {
		t.Errorf("saved at %d, want %d", savedAt, testSavedAt)
	}
	assertCheckpointsEqual(t, out, in)
	if _, err := Decode(frame); !errors.Is(err, ErrFrame) {
		t.Errorf("Decode read a checkpoint frame as a Frame: %v", err)
	}
	for _, d := range out.DeviceRows {
		if cap(d.LabelCounts) != len(d.LabelCounts) {
			t.Errorf("device %q: label counts cap %d over len %d runs into its neighbour", d.ID, cap(d.LabelCounts), len(d.LabelCounts))
		}
	}

	keyed := testCheckpoint()
	keyed.Devices = map[string]core.DeviceStats{}
	for _, r := range keyed.DeviceRows {
		keyed.Devices[r.ID] = r.DeviceStats
	}
	keyed.DeviceRows = nil
	if again, err := AppendCheckpoint(nil, keyed, testSavedAt); err != nil || !bytes.Equal(again, frame) {
		t.Errorf("the state keyed by ID encodes as %d other bytes, %v", len(again), err)
	}

	empty, err := AppendCheckpoint(nil, &core.ServerState{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if out, savedAt, err := DecodeCheckpoint(empty); err != nil || savedAt != 0 || !reflect.DeepEqual(out, &core.ServerState{}) {
		t.Errorf("the zero checkpoint decodes as %+v saved at %d, %v", out, savedAt, err)
	}

	buf := make([]byte, 0, len(frame))
	if n := testing.AllocsPerRun(20, func() {
		if _, err := AppendCheckpoint(buf[:0], in, testSavedAt); err != nil {
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
	for name, edit := range map[string]func(st *core.ServerState){
		"negative iteration": func(st *core.ServerState) { st.Iteration = -1 },
		"unsorted devices":   func(st *core.ServerState) { d := st.DeviceRows; d[1], d[2] = d[2], d[1] },
		"duplicate device":   func(st *core.ServerState) { st.DeviceRows[2].ID = st.DeviceRows[1].ID },
		"both forms":         func(st *core.ServerState) { st.Devices = map[string]core.DeviceStats{"dev-z": {}} },
		"over MaxPayload":    func(st *core.ServerState) { st.Params = make([]float64, MaxPayload/8) },
	} {
		st := testCheckpoint()
		edit(st)
		if out, err := AppendCheckpoint(dst, st, testSavedAt); !errors.Is(err, ErrFrame) || string(out) != "kept" {
			t.Errorf("%s: AppendCheckpoint = %d bytes, %v; want dst back and ErrFrame", name, len(out), err)
		}
	}
	frame, err := AppendCheckpoint(nil, testCheckpoint(), testSavedAt)
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
		return finishFrame(b[:len(b)-crcLen], 0)
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
