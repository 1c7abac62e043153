package transport_test

import (
	"context"
	"errors"
	"io"
	"math"
	"net/http/httptest"
	"reflect"
	"runtime"
	"testing"
	"time"

	"github.com/crowdml/crowdml/internal/core"
	"github.com/crowdml/crowdml/internal/hub"
	"github.com/crowdml/crowdml/internal/model"
	"github.com/crowdml/crowdml/internal/optimizer"
	"github.com/crowdml/crowdml/internal/replica"
	"github.com/crowdml/crowdml/internal/store"
	"github.com/crowdml/crowdml/internal/transport"
)

// TestPooledGradNotRetained: the handler decodes every checkin's
// gradient into a pooled scratch and recycles it the moment Checkin
// returns, which is only sound if nothing downstream kept the slice.
// After a run of checkins on both wires every scratch in the pool is
// scribbled over, and the three places a gradient goes must not have
// noticed: the journal entries (MemStore keeps its own copies), the
// server's parameters (equal to a reference server that was handed the
// same requests directly) and a follower fed from that journal.
func TestPooledGradNotRetained(t *testing.T) {
	// One P: a sync.Pool keeps what was Put last in a per-P slot no other
	// P can take from, and the scribbler below has to get at it.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	ctx := context.Background()
	const classes, dim = 3, 4
	config := func() core.ServerConfig {
		return core.ServerConfig{
			Model:   model.NewLogisticRegression(classes, dim),
			Updater: &optimizer.SGD{Schedule: optimizer.InvSqrt{C: 0.5}},
		}
	}
	journal := store.NewMemStore()
	leaderHub := hub.New()
	defer leaderHub.Close(ctx) //nolint:errcheck // test teardown
	task, err := leaderHub.CreateTask(ctx, "alpha", config(), hub.WithStore(journal))
	if err != nil {
		t.Fatal(err)
	}
	leader := task.Server()
	ts := httptest.NewServer(transport.NewHandler(leaderHub))
	defer ts.Close()
	reference, err := core.NewServer(config())
	if err != nil {
		t.Fatal(err)
	}
	token, _ := leader.RegisterDevice(ctx, "d1")
	refToken, _ := reference.RegisterDevice(ctx, "d1")

	feed := transport.NewHTTPClient(ts.URL, nil).WithTask("alpha").WithRetry(transport.RetryPolicy{})
	followerHub := hub.New()
	defer followerHub.Close(ctx) //nolint:errcheck // test teardown
	followerTask, err := followerHub.CreateTask(ctx, "alpha", config(), hub.AsReplicaOf(ts.URL))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := replica.New(replica.Config{Task: followerTask, Feed: feed, PollInterval: 2 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}

	var sent [][]float64
	jsonCl := transport.NewHTTPClient(ts.URL, nil).WithTask("alpha")
	clients := []*transport.HTTPClient{jsonCl, jsonCl.WithWire(transport.WireBinary)}
	warm := 0
	for round := 0; warm == 0; round++ {
		if round == 20 { // under -race, Put drops one in four
			t.Fatal("no checkin scratch ever came back out of the pool")
		}
		for i := 0; i < 8; i++ {
			grad := make([]float64, classes*dim)
			for j := range grad {
				grad[j] = math.Sin(float64(len(sent)*len(grad) + j + 1))
			}
			sent = append(sent, grad)
			req := core.CheckinRequest{Grad: grad, NumSamples: 2, ErrCount: 1, LabelCounts: []int{1, 1, 0}, Version: len(sent) - 1}
			direct := req
			if err := reference.Checkin(ctx, "d1", refToken, &direct); err != nil {
				t.Fatal(err)
			}
			if err := clients[i%2].Checkin(ctx, "d1", token, &req); err != nil {
				t.Fatalf("checkin %d: %v", len(sent), err)
			}
		}
		warm = transport.ScribbleCheckinScratches(math.Inf(1))
	}

	cur, err := journal.OpenCursor(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Close()
	for i, want := range sent {
		e, err := cur.Next()
		if err != nil {
			t.Fatalf("journal entry %d: %v", i+1, err)
		}
		if e.Iteration != i+1 || !reflect.DeepEqual(e.Grad, want) {
			t.Fatalf("journal entry %d = iteration %d, grad %v; sent %v", i+1, e.Iteration, e.Grad, want)
		}
	}
	if _, err := cur.Next(); !errors.Is(err, io.EOF) {
		t.Fatalf("journal holds more than the %d checkins sent: %v", len(sent), err)
	}
	if got, want := leader.ExportState(), reference.ExportState(); !reflect.DeepEqual(got.Params, want.Params) {
		t.Fatalf("leader parameters %v, reference %v", got.Params, want.Params)
	}

	rep.Start(ctx)
	defer rep.Stop()
	for deadline := time.Now().Add(15 * time.Second); followerTask.Server().Iteration() != leader.Iteration(); {
		if time.Now().After(deadline) {
			t.Fatalf("follower stuck at %d, leader at %d", followerTask.Server().Iteration(), leader.Iteration())
		}
		time.Sleep(2 * time.Millisecond)
	}
	if !reflect.DeepEqual(followerTask.Server().ExportState(), leader.ExportState()) {
		t.Fatal("follower state differs from the leader's")
	}
}
