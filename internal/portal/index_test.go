package portal

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/crowdml/crowdml/internal/core"
	"github.com/crowdml/crowdml/internal/hub"
	"github.com/crowdml/crowdml/internal/model"
	"github.com/crowdml/crowdml/internal/optimizer"
	"github.com/crowdml/crowdml/internal/shard"
)

func newTestHub(t *testing.T) *hub.Hub {
	t.Helper()
	h := hub.New()
	ctx := context.Background()
	for _, id := range []string{"activity", "thermostat"} {
		_, err := h.CreateTask(ctx, id, core.ServerConfig{
			Model:   model.NewLogisticRegression(2, 2),
			Updater: &optimizer.SGD{Schedule: optimizer.Constant{C: 0.1}},
		}, hub.WithInfo(hub.TaskInfo{
			Name:      "Task " + id,
			Objective: "objective of " + id,
			Labels:    []string{"a", "b"},
			Algorithm: "logreg on " + id,
		}))
		if err != nil {
			t.Fatal(err)
		}
	}
	return h
}

func get(t *testing.T, ts *httptest.Server, path string) (int, string) {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

func TestIndexListsAllTasks(t *testing.T) {
	h := newTestHub(t)
	ts := httptest.NewServer(NewIndex(h))
	defer ts.Close()
	code, page := get(t, ts, "/")
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	for _, want := range []string{
		"Task activity", "Task thermostat",
		`href="tasks/activity"`, `href="tasks/thermostat"`,
		"recruiting",
	} {
		if !strings.Contains(page, want) {
			t.Errorf("index missing %q", want)
		}
	}
}

func TestIndexEmptyHub(t *testing.T) {
	ts := httptest.NewServer(NewIndex(hub.New()))
	defer ts.Close()
	code, page := get(t, ts, "/")
	if code != http.StatusOK || !strings.Contains(page, "No tasks") {
		t.Errorf("empty hub index: status %d, page %q", code, page)
	}
}

func TestIndexTaskDetailPage(t *testing.T) {
	h := newTestHub(t)
	ts := httptest.NewServer(NewIndex(h))
	defer ts.Close()
	code, page := get(t, ts, "/tasks/activity")
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	for _, want := range []string{"Task activity", "objective of activity", "logreg on activity"} {
		if !strings.Contains(page, want) {
			t.Errorf("detail page missing %q", want)
		}
	}
	if code, _ := get(t, ts, "/tasks/ghost"); code != http.StatusNotFound {
		t.Errorf("unknown task status = %d, want 404", code)
	}
}

func TestIndexDetailDropsClosedTasks(t *testing.T) {
	h := newTestHub(t)
	ts := httptest.NewServer(NewIndex(h))
	defer ts.Close()
	if code, _ := get(t, ts, "/tasks/activity"); code != http.StatusOK {
		t.Fatal("warm-up fetch failed")
	}
	if err := h.CloseTask(context.Background(), "activity"); err != nil {
		t.Fatal(err)
	}
	if code, _ := get(t, ts, "/tasks/activity"); code != http.StatusNotFound {
		t.Errorf("closed task detail status = %d, want 404", code)
	}
	// The listing no longer shows it either.
	_, page := get(t, ts, "/")
	if strings.Contains(page, "Task activity") {
		t.Error("closed task still listed")
	}
}

// TestIndexShowsShardedTaskAsOneTask: a sharded logical task is one task
// on the portal — listed once under its logical ID with the merged
// iteration, its detail page served under that ID, and its
// "{task}.shard-{k}" members not listed.
func TestIndexShowsShardedTaskAsOneTask(t *testing.T) {
	ctx := context.Background()
	h := newTestHub(t)
	if err := h.CloseTask(ctx, "activity"); err != nil {
		t.Fatal(err)
	}
	g, err := shard.New(ctx, h, "activity", func(int) core.ServerConfig {
		return core.ServerConfig{
			Model:   model.NewLogisticRegression(2, 2),
			Updater: &optimizer.SGD{Schedule: optimizer.Constant{C: 0.1}},
		}
	}, shard.WithShards(2), shard.WithMergeInterval(time.Hour),
		shard.WithInfo(hub.TaskInfo{Name: "Sharded activity", Labels: []string{"a", "b"}}))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(g.Stop)
	// device-002 hashes to shard 0, device-001 to shard 1 (golden map).
	for dev, n := range map[string]int{"device-002": 1, "device-001": 2} {
		tok, err := g.Register(ctx, dev)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			req := &core.CheckinRequest{Grad: []float64{1, 0, 0, 0}, NumSamples: 1, LabelCounts: []int{1, 0}}
			if err := g.Checkin(ctx, dev, tok, req); err != nil {
				t.Fatal(err)
			}
		}
	}
	g.Merge()

	ts := httptest.NewServer(NewIndex(h))
	defer ts.Close()
	_, index := get(t, ts, "/")
	if n := strings.Count(index, `href="tasks/activity"`); n != 1 {
		t.Errorf("index links the logical task %d times, want once", n)
	}
	if strings.Contains(index, "activity.shard-") {
		t.Error("index lists shard members")
	}
	if !strings.Contains(index, "<td>3</td>") {
		t.Error("index row does not show the merged iteration 3")
	}
	code, page := get(t, ts, "/tasks/activity")
	if code != http.StatusOK {
		t.Fatalf("GET tasks/activity = %d, want 200", code)
	}
	for _, want := range []string{"Sharded activity", "Server iteration: 3", "Current error estimate: 0.000"} {
		if !strings.Contains(page, want) {
			t.Errorf("logical task page missing %q", want)
		}
	}
}
