package core

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"github.com/crowdml/crowdml/internal/linalg"
	"github.com/crowdml/crowdml/internal/model"
	"github.com/crowdml/crowdml/internal/optimizer"
)

func populatedServer(t *testing.T) (*Server, string) {
	t.Helper()
	s := newTestServer(t, ServerConfig{})
	token := register(t, s, "d1")
	req := &CheckinRequest{
		Grad:        []float64{1, 0, 0, 0, 0, 0},
		NumSamples:  4,
		ErrCount:    2,
		LabelCounts: []int{2, 1, 1},
	}
	if err := s.Checkin(ctx, "d1", token, req); err != nil {
		t.Fatal(err)
	}
	return s, token
}

func TestExportImportRoundTrip(t *testing.T) {
	src, _ := populatedServer(t)
	st := src.ExportState()

	dst := newTestServer(t, ServerConfig{})
	if err := dst.ImportState(st); err != nil {
		t.Fatalf("ImportState: %v", err)
	}
	if dst.Iteration() != src.Iteration() {
		t.Errorf("iteration %d, want %d", dst.Iteration(), src.Iteration())
	}
	if !linalg.Equal(dst.Params().Data(), src.Params().Data(), 0) {
		t.Error("params differ after restore")
	}
	gotEst, ok := dst.ErrEstimate()
	wantEst, _ := src.ErrEstimate()
	if !ok || gotEst != wantEst {
		t.Errorf("error estimate %v, want %v", gotEst, wantEst)
	}
	stats, ok := dst.ExportState().Devices["d1"]
	if !ok || stats.Samples != 4 || stats.Errors != 2 {
		t.Errorf("restored device stats = %+v ok=%v", stats, ok)
	}
}

func TestImportStateRequiresReauth(t *testing.T) {
	src, _ := populatedServer(t)
	dst := newTestServer(t, ServerConfig{})
	if err := dst.ImportState(src.ExportState()); err != nil {
		t.Fatal(err)
	}
	// Tokens are not persisted: the device must re-register.
	if _, err := dst.Checkout(ctx, "d1", "old-token"); err == nil {
		t.Error("restored server must not accept unprovisioned credentials")
	}
	// In particular an EMPTY presented token must not match the restored
	// entry's empty stored token (a constant-time compare of two empty
	// strings reports equal — the classic restore auth bypass).
	if _, err := dst.Checkout(ctx, "d1", ""); err == nil {
		t.Error("unprovisioned device must reject an empty token")
	}
	tok := register(t, dst, "d1")
	if _, err := dst.Checkout(ctx, "d1", tok); err != nil {
		t.Errorf("re-registered device rejected: %v", err)
	}
}

func TestExportStateIsSnapshot(t *testing.T) {
	src, token := populatedServer(t)
	st := src.ExportState()
	before := append([]float64(nil), st.Params...)
	// Mutate the server after the export.
	if err := src.Checkin(ctx, "d1", token, validCheckin(1)); err != nil {
		t.Fatal(err)
	}
	if !linalg.Equal(st.Params, before, 0) {
		t.Error("exported state aliased live server data")
	}
}

func TestImportStateValidation(t *testing.T) {
	s := newTestServer(t, ServerConfig{})
	if err := s.ImportState(nil); err == nil {
		t.Error("nil state should be rejected")
	}
	other, err := NewServer(ServerConfig{
		Model:   model.NewLogisticRegression(5, 7),
		Updater: s.cfg.Updater,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.ImportState(other.ExportState()); err == nil {
		t.Error("mismatched shape should be rejected")
	}
	st := s.ExportState()
	st.Params = st.Params[:1]
	if err := s.ImportState(st); err == nil {
		t.Error("truncated params should be rejected")
	}
	st2 := s.ExportState()
	st2.TotalLabelCounts = []int{1}
	if err := s.ImportState(st2); err == nil {
		t.Error("bad label-count arity should be rejected")
	}
	st3 := s.ExportState()
	st3.Devices = map[string]DeviceStats{"x": {LabelCounts: []int{1}}}
	if err := s.ImportState(st3); err == nil {
		t.Error("bad device label-count arity should be rejected")
	}
}

func TestImportStatePreservesStopped(t *testing.T) {
	src, _ := populatedServer(t)
	src.Stop()
	dst := newTestServer(t, ServerConfig{})
	if err := dst.ImportState(src.ExportState()); err != nil {
		t.Fatal(err)
	}
	if !dst.Stopped() {
		t.Error("stopped flag lost on restore")
	}
}

// TestUpdaterStateRoundTripAndReset: checkpoints carry the updater's
// identity next to its state vector; a same-updater restore hands the
// state back, a reconfigured task resets it rather than reinterpreting
// one updater's accumulators as another's velocity.
func TestUpdaterStateRoundTripAndReset(t *testing.T) {
	ctx := context.Background()
	src := newTestServer(t, ServerConfig{Updater: &optimizer.AdaGrad{Eta: 0.5}})
	token, err := src.RegisterDevice(ctx, "d1")
	if err != nil {
		t.Fatal(err)
	}
	req := &CheckinRequest{Grad: []float64{1, 0.5, -0.25, 0, 1, -1}, NumSamples: 2, LabelCounts: []int{1, 1, 0}}
	if err := src.Checkin(ctx, "d1", token, req); err != nil {
		t.Fatal(err)
	}
	st := src.ExportState()
	if st.UpdaterName != (&optimizer.AdaGrad{Eta: 0.5}).Name() {
		t.Errorf("UpdaterName = %q, want the AdaGrad name", st.UpdaterName)
	}
	if len(st.UpdaterState) != 6 {
		t.Fatalf("UpdaterState has %d coordinates, want 6", len(st.UpdaterState))
	}

	// Same updater: the state comes back.
	same := &optimizer.AdaGrad{Eta: 0.5}
	dst := newTestServer(t, ServerConfig{Updater: same})
	if err := dst.ImportState(st); err != nil {
		t.Fatal(err)
	}
	if got := same.ExportState(); len(got) != 6 || got[0] != st.UpdaterState[0] {
		t.Errorf("same-updater restore got state %v, want %v", got, st.UpdaterState)
	}

	// Reconfigured task (different stateful updater): reset, not
	// reinterpretation.
	other := &optimizer.Momentum{Schedule: optimizer.Constant{C: 0.1}, Beta: 0.9}
	dst2 := newTestServer(t, ServerConfig{Updater: other})
	if err := dst2.ImportState(st); err != nil {
		t.Fatal(err)
	}
	if got := other.ExportState(); got != nil {
		t.Errorf("cross-updater restore imported state %v, want a reset (nil)", got)
	}
}

// crowdServer returns a server with n enrolled devices of the given
// class count, each with distinct label counts.
func crowdServer(tb testing.TB, n, classes int) *Server {
	tb.Helper()
	s, err := NewServer(ServerConfig{
		Model:   model.NewLogisticRegression(classes, 4),
		Updater: &optimizer.SGD{Schedule: optimizer.Constant{C: 0.1}},
	})
	if err != nil {
		tb.Fatal(err)
	}
	for i := 0; i < n; i++ {
		counts := make([]int, classes)
		for k := range counts {
			counts[k] = i*classes + k
		}
		s.devices.importStats(fmt.Sprintf("device-%04d", i), DeviceStats{Samples: i, LabelCounts: counts})
	}
	return s
}

// TestExportStateSlabEntriesAreIndependent: every device's LabelCounts
// is carved from one slab, so each must be capped at its own length (an
// append reallocates instead of overwriting the neighbour) and the
// export must cost a handful of allocations, not two per device.
func TestExportStateSlabEntriesAreIndependent(t *testing.T) {
	const devices, classes = 64, 3
	s := crowdServer(t, devices, classes)
	st := s.ExportState()
	if len(st.Devices) != devices {
		t.Fatalf("exported %d devices, want %d", len(st.Devices), devices)
	}
	for id, e := range st.Devices {
		if cap(e.LabelCounts) != classes {
			t.Fatalf("%s: LabelCounts cap %d, want %d", id, cap(e.LabelCounts), classes)
		}
		_ = append(e.LabelCounts, -1)
		e.LabelCounts[0]++ // the export is the caller's: live counters must not move
	}
	for i := 0; i < devices; i++ {
		id := fmt.Sprintf("device-%04d", i)
		e := st.Devices[id]
		live := s.ExportState().Devices[id]
		for k := 0; k < classes; k++ {
			want := i*classes + k
			if live.LabelCounts[k] != want {
				t.Fatalf("%s: live count[%d] = %d, want %d", id, k, live.LabelCounts[k], want)
			}
			if k == 0 {
				want++
			}
			if e.LabelCounts[k] != want {
				t.Fatalf("%s: exported count[%d] = %d, want %d", id, k, e.LabelCounts[k], want)
			}
		}
	}
	if n := testing.AllocsPerRun(10, func() { s.ExportState() }); n > devices/2 {
		t.Errorf("ExportState of %d devices allocates %v times: not one slab and one map", devices, n)
	}
}

// BenchmarkExportState prices one checkpoint's state export at the
// crowd size of the end-to-end benchmark's durable workloads: into fresh
// memory (ExportState, what a stats or test caller pays) and into the
// warm buffer the hub's checkpointer keeps.
func BenchmarkExportState(b *testing.B) {
	s := crowdServer(b, 2000, 10)
	for name, buf := range map[string]*StateBuffer{"fresh": nil, "warm": new(StateBuffer)} {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				s.ExportStateInto(buf)
			}
		})
	}
}

// TestExportStateIntoEqualsExportState: an export into a reused buffer is
// the export into fresh memory, whatever the buffer held before — across
// enrolment, checkins and plain re-export, when the crowd the buffer last
// saw was larger or smaller, with and without updater state — and every
// entry's label counts stay capped at their own length.
func TestExportStateIntoEqualsExportState(t *testing.T) {
	var buf StateBuffer
	check := func(what string, s *Server) {
		t.Helper()
		want := s.ExportState()
		got := s.ExportStateInto(&buf)
		if !reflect.DeepEqual(got, want) {
			got.Devices, want.Devices = nil, nil // the crowd would drown the rest
			t.Fatalf("%s: buffered export diverges (devices elided):\n got %+v\nwant %+v", what, got, want)
		}
		for id, e := range got.Devices {
			if cap(e.LabelCounts) != len(e.LabelCounts) {
				t.Fatalf("%s: %s: LabelCounts cap %d over len %d", what, id, cap(e.LabelCounts), len(e.LabelCounts))
			}
		}
	}

	small := newTestServer(t, ServerConfig{Updater: &optimizer.AdaGrad{Eta: 0.5}})
	check("no devices, updater never ran", small)
	token := register(t, small, "d1")
	check("one enrolled device", small)
	req := &CheckinRequest{Grad: []float64{1, 0, -2, 0, 0, 0.5}, NumSamples: 4, ErrCount: 2, LabelCounts: []int{2, 1, 1}}
	if err := small.Checkin(ctx, "d1", token, req); err != nil {
		t.Fatal(err)
	}
	check("after a checkin (updater state present)", small)
	check("re-export, nothing changed", small)

	big := crowdServer(t, 300, 5) // more devices, more classes, stateless updater
	check("a larger crowd than the buffer has seen", big)
	register(t, big, "late-joiner")
	check("grown by one", big)
	check("shrunk back to one device", small)
	check("and grown again", big)

	// A nil-buffer export is the caller's to keep: later exports, buffered
	// or not, leave it alone.
	kept := small.ExportState()
	before := fmt.Sprintf("%+v", kept)
	small.ExportStateInto(&buf)
	big.ExportStateInto(&buf)
	if after := fmt.Sprintf("%+v", kept); after != before {
		t.Errorf("an unbuffered export changed under later exports:\n was %s\n now %s", before, after)
	}
}
