package invariants

import (
	"context"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/crowdml/crowdml/internal/core"
	"github.com/crowdml/crowdml/internal/model"
	"github.com/crowdml/crowdml/internal/optimizer"
	"github.com/crowdml/crowdml/internal/store"
)

var ctx = context.Background()

// consistent returns a state whose counters compose.
func consistent() *core.ServerState {
	return &core.ServerState{
		ModelName: "logreg", Classes: 2, Dim: 2, Params: []float64{0.5, -0.25, 0, 1},
		Iteration: 3, TotalSamples: 7, TotalErrors: 2, TotalLabelCounts: []int{4, 3},
		Devices: map[string]core.DeviceStats{
			"a": {Samples: 4, Errors: 1, LabelCounts: []int{3, 1}, Checkins: 2, StalenessSum: 1},
			"b": {Samples: 3, Errors: 1, LabelCounts: []int{1, 2}, Checkins: 1},
		},
	}
}

// TestCounters: each composition rule, broken alone, is reported; a
// consistent state and a live server's export pass.
func TestCounters(t *testing.T) {
	if err := Counters(consistent()); err != nil {
		t.Fatalf("a consistent state: %v", err)
	}
	for name, tc := range map[string]struct {
		breakIt func(st *core.ServerState)
		names   string
	}{
		"iteration":        {func(st *core.ServerState) { st.Iteration++ }, "iteration"},
		"samples":          {func(st *core.ServerState) { st.TotalSamples-- }, "TotalSamples"},
		"errors":           {func(st *core.ServerState) { st.TotalErrors++ }, "TotalErrors"},
		"label counts":     {func(st *core.ServerState) { st.TotalLabelCounts[1]++ }, "TotalLabelCounts[1]"},
		"a device's label": {func(st *core.ServerState) { st.Devices["b"].LabelCounts[0]++ }, "TotalLabelCounts[0]"},
		"label classes":    {func(st *core.ServerState) { st.TotalLabelCounts = st.TotalLabelCounts[:1] }, "label counts"},
	} {
		st := consistent()
		tc.breakIt(st)
		if err := Counters(st); err == nil || !strings.Contains(err.Error(), tc.names) {
			t.Errorf("%s broken: Counters = %v, want an error naming %s", name, err, tc.names)
		}
	}

	srv, err := core.NewServer(core.ServerConfig{
		Model:   model.NewLogisticRegression(2, 2),
		Updater: &optimizer.SGD{Schedule: optimizer.Constant{C: 0.5}},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, id := range []string{"a", "b", "a"} {
		token, err := srv.RegisterDevice(ctx, id)
		if err != nil {
			t.Fatal(err)
		}
		req := &core.CheckinRequest{Grad: []float64{1, 0, 0, 1}, NumSamples: i + 1, ErrCount: i % 2, LabelCounts: []int{i, 1}}
		if err := srv.Checkin(ctx, id, token, req); err != nil {
			t.Fatal(err)
		}
	}
	if err := Counters(srv.ExportState()); err != nil {
		t.Errorf("a live server's export: %v", err)
	}
}

// TestSame: equal states are the same whatever their slices' nil-ness;
// any field that differs, a float by its bits alone, is named.
func TestSame(t *testing.T) {
	if err := Same(consistent(), consistent()); err != nil {
		t.Fatalf("equal states: %v", err)
	}
	empty, nilled := consistent(), consistent()
	empty.UpdaterState, nilled.UpdaterState = []float64{}, nil
	if err := Same(empty, nilled); err != nil {
		t.Errorf("an empty and a nil slice: %v", err)
	}
	nan, nan2 := consistent(), consistent()
	nan.Params[0], nan2.Params[0] = math.NaN(), math.NaN()
	if err := Same(nan, nan2); err != nil {
		t.Errorf("the same NaN bits: %v", err)
	}
	for name, tc := range map[string]struct {
		change func(st *core.ServerState)
		names  string
	}{
		"negative zero":  {func(st *core.ServerState) { st.Params[2] = math.Copysign(0, -1) }, "state.Params[2]"},
		"a param":        {func(st *core.ServerState) { st.Params[1] = math.Nextafter(-0.25, 0) }, "state.Params[1]"},
		"iteration":      {func(st *core.ServerState) { st.Iteration++ }, "state.Iteration"},
		"stopped":        {func(st *core.ServerState) { st.Stopped = true }, "state.Stopped"},
		"updater":        {func(st *core.ServerState) { st.UpdaterName = "adagrad" }, "state.UpdaterName"},
		"updater state":  {func(st *core.ServerState) { st.UpdaterState = []float64{1} }, "state.UpdaterState"},
		"a device":       {func(st *core.ServerState) { delete(st.Devices, "b") }, `state.Devices["b"]`},
		"another device": {func(st *core.ServerState) { st.Devices["c"] = core.DeviceStats{} }, `state.Devices["c"]`},
		"device counter": {func(st *core.ServerState) { st.Devices["a"].LabelCounts[1]++ }, `state.Devices["a"].LabelCounts[1]`},
		"device staleness": {func(st *core.ServerState) {
			d := st.Devices["a"]
			d.StalenessSum++
			st.Devices["a"] = d
		}, `state.Devices["a"].StalenessSum`},
	} {
		got := consistent()
		tc.change(got)
		if err := Same(got, consistent()); err == nil || !strings.Contains(err.Error(), tc.names) {
			t.Errorf("%s differs: Same = %v, want an error naming %s", name, err, tc.names)
		}
	}
}

func appendIters(t *testing.T, st store.Store, iters ...int) {
	t.Helper()
	j, err := st.OpenJournal(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, i := range iters {
		if err := j.Append(ctx, store.JournalEntry{DeviceID: "d", Iteration: i, NumSamples: 1, Grad: []float64{1}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestJournal: a cursor must yield exactly after+1 … through, in order;
// a missing, extra, repeated or skipped iteration is reported, and a torn
// live tail is a clean end.
func TestJournal(t *testing.T) {
	st := store.NewMemStore()
	appendIters(t, st, 1, 2, 3, 4, 5)
	for _, tc := range []struct {
		after, through int
		ok             bool
	}{
		{0, 5, true}, {2, 5, true}, {5, 5, true},
		{0, 6, false}, // one acknowledged entry missing
		{0, 4, false}, // an entry past the end
		{3, 2, false},
	} {
		if err := Journal(ctx, st, tc.after, tc.through); (err == nil) != tc.ok {
			t.Errorf("Journal(%d, %d) = %v, want ok %v", tc.after, tc.through, err, tc.ok)
		}
	}
	for name, iters := range map[string][]int{"gap": {1, 2, 4}, "repeat": {1, 2, 2, 3}} {
		st := store.NewMemStore()
		appendIters(t, st, iters...)
		if err := Journal(ctx, st, 0, 3); err == nil {
			t.Errorf("a journal with a %s passed", name)
		}
	}

	dir := t.TempDir()
	disk, err := store.NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	appendIters(t, disk, 1, 2, 3)
	live := filepath.Join(dir, "journal-0000000001.wal")
	info, err := os.Stat(live)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(live, info.Size()-5); err != nil {
		t.Fatal(err)
	}
	if err := Journal(ctx, disk, 0, 2); err != nil {
		t.Errorf("a torn live tail: %v", err)
	}
}
