package transport

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"github.com/crowdml/crowdml/internal/core"
	"github.com/crowdml/crowdml/internal/hub"
	"github.com/crowdml/crowdml/internal/model"
	"github.com/crowdml/crowdml/internal/optimizer"
	"github.com/crowdml/crowdml/internal/shard"
)

// TestEndpointGoldens pins the bodies of the three endpoints that render
// "what is hosted here and how is it doing" — /v1/tasks, /v1/tasks/{id}/stats
// and /v1/healthz — byte for byte against testdata/*.golden.json. The
// files were recorded at the commit before the hub's single task table
// and hub.Progress existed and are never regenerated: whatever produces
// these bodies must keep producing exactly them.
//
// The hub hosts a plain leader ("solo"), a 2-shard logical task after a
// few checkins, one Merge and one unmerged checkin ("act"), a 2-shard
// tier whose shard 0 is a follower member ("rep"), one standalone
// follower per replica state ("f-*"), and a closed task ("gone").
func TestEndpointGoldens(t *testing.T) {
	ctx := context.Background()
	h := hub.New()
	cfg := func(int) core.ServerConfig {
		return core.ServerConfig{
			Model:   model.NewLogisticRegression(2, 2),
			Updater: &optimizer.SGD{Schedule: optimizer.Constant{C: 0.1}},
		}
	}
	checkin := func(tr core.Transport, register func(context.Context, string) (string, error), device string, reqs ...core.CheckinRequest) {
		t.Helper()
		tok, err := register(ctx, device)
		if err != nil {
			t.Fatal(err)
		}
		for i := range reqs {
			if err := tr.Checkin(ctx, device, tok, &reqs[i]); err != nil {
				t.Fatal(err)
			}
		}
	}
	right := core.CheckinRequest{Grad: []float64{1, 0, 0, 0}, NumSamples: 2, LabelCounts: []int{2, 0}}
	wrong := core.CheckinRequest{Grad: []float64{0, 1, 0, -1}, NumSamples: 1, ErrCount: 1, LabelCounts: []int{0, 1}}

	solo, err := h.CreateTask(ctx, "solo", cfg(0), hub.WithInfo(hub.TaskInfo{
		Name: "Solo task", Algorithm: "logistic regression", Labels: []string{"still", "moving"},
	}))
	if err != nil {
		t.Fatal(err)
	}
	checkin(solo.Server(), solo.Server().RegisterDevice, "d1", right, wrong, right)

	act, err := shard.New(ctx, h, "act", cfg, shard.WithShards(2), shard.WithMergeInterval(time.Hour),
		shard.WithInfo(hub.TaskInfo{Name: "Activity", Algorithm: "sharded logreg"}))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(act.Stop)
	// device-002 hashes to shard 0, device-001 to shard 1 (golden map).
	checkin(act, act.Register, "device-002", right)
	checkin(act, act.Register, "device-001", wrong, right)
	act.Merge()
	checkin(act, act.Register, "device-003", right) // unmerged: shows as merge lag

	const leaderURL = "http://leader.example:8080"
	rep, err := shard.New(ctx, h, "rep", cfg, shard.WithShards(2), shard.WithMergeInterval(time.Hour),
		shard.WithMemberTaskOptions(func(k int, _ string) []hub.TaskOption {
			if k == 0 {
				return []hub.TaskOption{hub.AsReplicaOf(leaderURL)}
			}
			return nil
		}))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rep.Stop)
	rep.Members()[0].SetReplicaStatus(hub.ReplicaStatus{State: hub.ReplicaRetrying})

	for id, st := range map[string]*hub.ReplicaStatus{
		"f-unbound":       nil,
		"f-bootstrapping": {State: hub.ReplicaBootstrapping},
		"f-tailing":       {State: hub.ReplicaTailing, LeaderIteration: 7},
		"f-retrying":      {State: hub.ReplicaRetrying, LeaderIteration: 3, LastError: "dial tcp: connection refused"},
		"f-stopped":       {State: hub.ReplicaStopped, LeaderIteration: 9},
	} {
		f, err := h.CreateTask(ctx, id, cfg(0), hub.AsReplicaOf(leaderURL))
		if err != nil {
			t.Fatal(err)
		}
		if st != nil {
			f.SetReplicaStatus(*st)
		}
	}

	if _, err := h.CreateTask(ctx, "gone", cfg(0)); err != nil {
		t.Fatal(err)
	}
	if err := h.CloseTask(ctx, "gone"); err != nil {
		t.Fatal(err)
	}

	ts := httptest.NewServer(NewHandler(h))
	defer ts.Close()
	golden := func(name, path string, wantStatus int) {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		got, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != wantStatus {
			t.Errorf("GET %s = %d, want %d", path, resp.StatusCode, wantStatus)
		}
		file := filepath.Join("testdata", name+".golden.json")
		want, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("GET %s differs from %s\n got: %s\nwant: %s", path, file, got, want)
		}
	}
	golden("tasks", PathTasks, http.StatusOK)
	golden("stats_solo", taskPath("solo", "stats"), http.StatusOK)
	golden("stats_act", taskPath("act", "stats"), http.StatusOK)
	golden("stats_act_member", taskPath("act.shard-1", "stats"), http.StatusOK)
	golden("stats_rep", taskPath("rep", "stats"), http.StatusOK)
	golden("stats_follower", taskPath("f-tailing", "stats"), http.StatusOK)
	golden("stats_closed", taskPath("gone", "stats"), http.StatusConflict)
	golden("stats_never", taskPath("never", "stats"), http.StatusNotFound)
	golden("journal_sharded", taskPath("act", "journal"), http.StatusNotFound)
	golden("checkpoint_sharded", taskPath("act", "checkpoint"), http.StatusNotFound)
	golden("healthz_unavailable", PathHealthz, http.StatusServiceUnavailable)

	// With the three not-ready followers closed every remaining row is
	// ready: the 200 body.
	for _, id := range []string{"f-unbound", "f-bootstrapping", "f-stopped"} {
		if err := h.CloseTask(ctx, id); err != nil {
			t.Fatal(err)
		}
	}
	golden("healthz_ok", PathHealthz, http.StatusOK)
}
