// End-to-end WAL-shipping replication test: a leader hub journals a live
// crowd's checkins while checkpointing and pruning aggressively, a
// follower replica tails the leader's journal feed over real HTTP, and
// the follower must (a) serve checkouts to leader-registered devices,
// (b) reject writes with a leader hint, and (c) end bit-exact with the
// leader's exported state — iteration, parameters, totals, per-device
// counters — including after a mid-tail crash that strands it behind
// leader retention, forcing a checkpoint re-bootstrap.
package crowdml_test

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	crowdml "github.com/crowdml/crowdml"
	"github.com/crowdml/crowdml/internal/invariants"
)

const (
	repClasses = 3
	repDim     = 4
)

func repServerConfig() crowdml.ServerConfig {
	return crowdml.ServerConfig{
		Model:   crowdml.NewLogisticRegression(repClasses, repDim),
		Updater: crowdml.NewSGD(crowdml.InvSqrt{C: 5}, 0),
	}
}

// repDrive pushes n checkout/checkin rounds through the leader's HTTP
// surface as the given device.
func repDrive(t *testing.T, client *crowdml.HTTPClient, deviceID, token string, n int) {
	t.Helper()
	ctx := context.Background()
	grad := make([]float64, repClasses*repDim)
	for i := range grad {
		grad[i] = 0.01 * float64(i%7)
	}
	for i := 0; i < n; i++ {
		co, err := client.Checkout(ctx, deviceID, token)
		if err != nil {
			t.Fatalf("leader checkout %d: %v", i, err)
		}
		err = client.Checkin(ctx, deviceID, token, &crowdml.CheckinRequest{
			Grad:        grad,
			NumSamples:  2,
			ErrCount:    1,
			LabelCounts: []int{1, 1, 0},
			Version:     co.Version,
		})
		if err != nil {
			t.Fatalf("leader checkin %d: %v", i, err)
		}
	}
}

// waitReplicaCaughtUp polls until the follower task reports zero lag at
// the leader's current iteration.
func waitReplicaCaughtUp(t *testing.T, leader *crowdml.Server, follower *crowdml.Task) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		lag, ok := follower.ReplicationLag()
		if ok && lag == 0 && follower.Server().Iteration() == leader.Iteration() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	st, _ := follower.ReplicaStatus()
	t.Fatalf("follower stuck: leader at %d, follower at %d, status %+v",
		leader.Iteration(), follower.Server().Iteration(), st)
}

// waitCheckpointAt polls the leader store until its checkpoint covers the
// given iteration, driving one more checkin per poll, and returns how many
// it drove. The checkpointer runs asynchronously, so WHERE a save lands is
// not the test's to choose: a save that lands late leaves fewer than AfterN
// dirty checkins behind it, and with the workload finished no later save
// would ever come. Supplying the checkins makes the wait end by
// construction instead of by the first save landing on a lucky iteration.
func waitCheckpointAt(t *testing.T, st *crowdml.FileStore, iteration int, drive func()) (driven int) {
	t.Helper()
	for ; driven <= 500; driven++ {
		cp, err := st.Load(context.Background())
		if err == nil && cp.State.Iteration >= iteration {
			return driven
		}
		drive()
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("leader never checkpointed through iteration %d in %d further checkins", iteration, driven)
	return driven
}

func TestFollowerReplicationEndToEnd(t *testing.T) {
	ctx := context.Background()

	// Leader: checkpoint every 5 checkins, prune covered segments — so a
	// sustained workload cycles checkpoint+prune continuously and a
	// disconnected follower is guaranteed to fall behind retention.
	leaderStore := crowdml.NewMemStore()
	leaderHub := crowdml.NewHub()
	leaderTask, err := leaderHub.CreateTask(ctx, "activity", repServerConfig(),
		crowdml.WithStore(leaderStore),
		crowdml.WithCheckpointPolicy(crowdml.CheckpointPolicy{AfterN: 5}),
		crowdml.WithRetention(crowdml.PruneCovered))
	if err != nil {
		t.Fatal(err)
	}
	defer leaderHub.Close(ctx)
	leader := leaderTask.Server()
	leaderSrv := httptest.NewServer(crowdml.NewHTTPHandler(leaderHub, "", nil))
	defer leaderSrv.Close()
	leaderClient := crowdml.NewHTTPClient(leaderSrv.URL, nil).WithTask("activity")

	token, err := leader.RegisterDevice(ctx, "phone-1")
	if err != nil {
		t.Fatal(err)
	}

	// Follower: a replica task on its own hub, vouching unknown device
	// credentials against the leader, driven by a Replicator.
	feed := leaderClient.WithRetry(crowdml.RetryPolicy{
		MaxAttempts: 4, BaseDelay: 2 * time.Millisecond, MaxDelay: 20 * time.Millisecond,
	})
	followerCfg := repServerConfig()
	followerCfg.AuthFallback = feed.AuthProbe
	followerHub := crowdml.NewHub()
	followerTask, err := followerHub.CreateTask(ctx, "activity", followerCfg,
		crowdml.AsReplicaOf(leaderSrv.URL))
	if err != nil {
		t.Fatal(err)
	}
	followerSrv := httptest.NewServer(crowdml.NewHTTPHandler(followerHub, "", nil))
	defer followerSrv.Close()
	followerClient := crowdml.NewHTTPClient(followerSrv.URL, nil).WithTask("activity")

	newReplicator := func() *crowdml.Replicator {
		r, err := crowdml.NewReplicator(crowdml.ReplicaConfig{
			Task:         followerTask,
			Feed:         feed,
			PollInterval: 2 * time.Millisecond,
			Logf:         t.Logf,
		})
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	rep := newReplicator()
	rep.Start(ctx)

	// Phase 1: live tail through two full checkpoint+prune cycles.
	driveOne := func() { repDrive(t, leaderClient, "phone-1", token, 1) }
	repDrive(t, leaderClient, "phone-1", token, 12)
	extra := waitCheckpointAt(t, leaderStore, 10, driveOne) // ≥2 AfterN=5 cycles completed
	waitReplicaCaughtUp(t, leader, followerTask)
	if err := invariants.Same(followerTask.Server().ExportState(), leader.ExportState()); err != nil {
		t.Fatalf("follower state diverged from leader after live tail: %v", err)
	}

	// The follower serves the read path: a leader-registered device checks
	// out HERE, authenticated by the leader-vouch fallback, and sees the
	// replicated parameters.
	co, err := followerClient.Checkout(ctx, "phone-1", token)
	if err != nil {
		t.Fatalf("checkout from follower: %v", err)
	}
	if co.Version != leader.Iteration() {
		t.Errorf("follower checkout version %d, leader at %d", co.Version, leader.Iteration())
	}
	if _, err := followerClient.Stats(ctx); err != nil {
		t.Fatalf("stats from follower: %v", err)
	}
	// Wrong credentials must still fail even with the fallback in place.
	if _, err := followerClient.Checkout(ctx, "phone-1", "forged"); !errors.Is(err, crowdml.ErrAuth) {
		t.Errorf("forged checkout err = %v, want ErrAuth", err)
	}

	// Writes are rejected with the leader hint.
	resp, err := http.Post(followerSrv.URL+"/v1/tasks/activity/checkin", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Errorf("follower checkin status = %d, want 409", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Crowdml-Leader"); got != leaderSrv.URL {
		t.Errorf("leader hint = %q, want %q", got, leaderSrv.URL)
	}

	// The follower reports healthy while tailing.
	health, err := crowdml.NewHTTPClient(followerSrv.URL, nil).Healthz(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if health.Status != "ok" || len(health.Tasks) != 1 || health.Tasks[0].Role != "follower" {
		t.Errorf("follower health = %+v", health)
	}

	// Phase 2: crash the follower mid-stream, push the leader through more
	// checkpoint+prune cycles so retention passes the follower's position,
	// then restart. The fresh replicator must detect the gap and
	// re-bootstrap from the leader's checkpoint.
	rep.Stop()
	atCrash := followerTask.Server().Iteration()
	repDrive(t, leaderClient, "phone-1", token, 15)
	extra += waitCheckpointAt(t, leaderStore, atCrash+10, driveOne)

	rep2 := newReplicator()
	rep2.Start(ctx)
	defer rep2.Stop()
	waitReplicaCaughtUp(t, leader, followerTask)

	// A device that joins after the re-bootstrap reaches the tailing
	// follower through the journal alone: replay must create its row.
	lateToken, err := leader.RegisterDevice(ctx, "phone-2")
	if err != nil {
		t.Fatal(err)
	}
	repDrive(t, leaderClient, "phone-2", lateToken, 1)
	waitReplicaCaughtUp(t, leader, followerTask)

	ls, fs := leader.ExportState(), followerTask.Server().ExportState()
	if err := invariants.Same(fs, ls); err != nil {
		t.Fatalf("follower state diverged after re-bootstrap: %v", err)
	}
	if want := 12 + 15 + extra + 1; ls.Iteration != want {
		t.Errorf("leader iteration = %d, want %d", ls.Iteration, want)
	}

	// And the follower still serves reads at the converged state.
	co, err = followerClient.Checkout(ctx, "phone-1", token)
	if err != nil {
		t.Fatalf("checkout after re-bootstrap: %v", err)
	}
	if co.Version != ls.Iteration {
		t.Errorf("post-recovery checkout version %d, want %d", co.Version, ls.Iteration)
	}
}
