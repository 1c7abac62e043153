// End-to-end telemetry exposition test: a leader hub with a metrics
// registry serves a live crowd while a follower replica (with its own
// registry) tails its journal feed, and both roles' /v1/metrics
// endpoints are scraped over real HTTP. Each exposition must lint clean
// under internal/tools/promlint — the structural checks CI relies on —
// and carry the per-layer series the operations docs promise. This is
// the test the CI "metrics exposition scrape" step runs by name.
package crowdml_test

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	crowdml "github.com/crowdml/crowdml"
	"github.com/crowdml/crowdml/internal/tools/promlint"
)

// scrapeMetrics GETs baseURL's /v1/metrics, asserts the Prometheus
// content type, lints the exposition, and returns the body.
func scrapeMetrics(t *testing.T, baseURL string) string {
	t.Helper()
	resp, err := http.Get(baseURL + "/v1/metrics")
	if err != nil {
		t.Fatalf("scrape %s/v1/metrics: %v", baseURL, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("scrape status = %d, want 200", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Errorf("scrape content type = %q, want Prometheus text 0.0.4", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read scrape body: %v", err)
	}
	probs, err := promlint.Lint(strings.NewReader(string(body)))
	if err != nil {
		t.Fatalf("promlint: %v", err)
	}
	if len(probs) != 0 {
		t.Fatalf("%s/v1/metrics failed promlint:\n%v\n--- exposition ---\n%s", baseURL, probs, body)
	}
	return string(body)
}

// wantSeries asserts each name appears as a sample (not just a comment)
// in the exposition.
func wantSeries(t *testing.T, role, body string, names ...string) {
	t.Helper()
	for _, name := range names {
		found := false
		for _, line := range strings.Split(body, "\n") {
			if strings.HasPrefix(line, name) && !strings.HasPrefix(line, "#") {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("%s exposition is missing series %s:\n%s", role, name, body)
		}
	}
}

func TestFollowerMetricsExposition(t *testing.T) {
	ctx := context.Background()

	// Leader: durable task with aggressive checkpoint+prune so the scrape
	// sees journal, checkpoint, rotation, and retention series move.
	leaderReg := crowdml.NewMetricsRegistry()
	leaderStore := crowdml.NewMemStore()
	leaderHub := crowdml.NewHub()
	leaderTask, err := leaderHub.CreateTask(ctx, "activity", repServerConfig(),
		crowdml.WithStore(leaderStore),
		crowdml.WithCheckpointPolicy(crowdml.CheckpointPolicy{AfterN: 5}),
		crowdml.WithRetention(crowdml.PruneCovered),
		crowdml.WithMetrics(leaderReg))
	if err != nil {
		t.Fatal(err)
	}
	defer leaderHub.Close(ctx)
	leader := leaderTask.Server()
	leaderSrv := httptest.NewServer(crowdml.NewHTTPHandler(leaderHub, "", leaderReg))
	defer leaderSrv.Close()
	leaderClient := crowdml.NewHTTPClient(leaderSrv.URL, nil).WithTask("activity")

	token, err := leader.RegisterDevice(ctx, "phone-1")
	if err != nil {
		t.Fatal(err)
	}

	// Follower: replica task with its OWN registry — a fleet scrape hits
	// each process separately, so each exposition must stand alone.
	followerReg := crowdml.NewMetricsRegistry()
	feed := leaderClient.WithRetry(crowdml.RetryPolicy{
		MaxAttempts: 4, BaseDelay: 2 * time.Millisecond, MaxDelay: 20 * time.Millisecond,
	})
	followerCfg := repServerConfig()
	followerCfg.AuthFallback = feed.AuthProbe
	followerHub := crowdml.NewHub()
	followerTask, err := followerHub.CreateTask(ctx, "activity", followerCfg,
		crowdml.AsReplicaOf(leaderSrv.URL),
		crowdml.WithMetrics(followerReg))
	if err != nil {
		t.Fatal(err)
	}
	followerSrv := httptest.NewServer(crowdml.NewHTTPHandler(followerHub, "", followerReg))
	defer followerSrv.Close()

	rep, err := crowdml.NewReplicator(crowdml.ReplicaConfig{
		Task:         followerTask,
		Feed:         feed,
		PollInterval: 2 * time.Millisecond,
		Logf:         t.Logf,
		Metrics:      followerReg,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep.Start(ctx)
	defer rep.Stop()

	// Drive enough rounds to cycle checkpoint+prune at least twice, then
	// let the follower catch up so its replay counters have moved.
	repDrive(t, leaderClient, "phone-1", token, 12)
	waitCheckpointAt(t, leaderStore, 10, func() { repDrive(t, leaderClient, "phone-1", token, 1) })
	waitReplicaCaughtUp(t, leader, followerTask)
	if _, err := crowdml.NewHTTPClient(followerSrv.URL, nil).WithTask("activity").
		Checkout(ctx, "phone-1", token); err != nil {
		t.Fatalf("checkout from follower: %v", err)
	}

	// Leader exposition: every instrumented layer reports.
	leaderBody := scrapeMetrics(t, leaderSrv.URL)
	wantSeries(t, "leader", leaderBody,
		// core hot paths
		"crowdml_checkouts_total",
		"crowdml_checkout_seconds_bucket",
		"crowdml_checkins_applied_total",
		"crowdml_checkin_seconds_bucket",
		"crowdml_checkin_batch_size_bucket",
		"crowdml_checkin_staleness_iterations_bucket",
		// one checkin's and one checkout's time, stage by stage: the
		// transport's, core's and the journal's (this leader is SyncNone)
		`crowdml_checkin_stage_seconds_bucket{task="activity",stage="decode"`,
		`crowdml_checkin_stage_seconds_bucket{task="activity",stage="queue_wait"`,
		`crowdml_checkin_stage_seconds_bucket{task="activity",stage="apply"`,
		`crowdml_checkin_stage_seconds_bucket{task="activity",stage="publish"`,
		`crowdml_checkin_stage_seconds_bucket{task="activity",stage="journal"`,
		`crowdml_checkin_stage_seconds_bucket{task="activity",stage="ack"`,
		`crowdml_checkout_stage_seconds_bucket{task="activity",stage="auth"`,
		`crowdml_checkout_stage_seconds_bucket{task="activity",stage="view"`,
		`crowdml_checkout_stage_seconds_bucket{task="activity",stage="encode"`,
		// what each checkout's body carried, by form
		`crowdml_checkout_body_bytes_bucket{task="activity",form="json"`,
		`crowdml_checkout_body_bytes_count{task="activity",form="xor"}`,
		// and what each applied checkin's body carried, by codec
		`crowdml_checkin_body_bytes_count{task="activity",form="json"}`,
		// the snapshot ring both read and write path go through
		`crowdml_snapshots_published_total{task="activity",source="recycled"}`,
		`crowdml_snapshots_published_total{task="activity",source="allocated"}`,
		`crowdml_checkout_delta_total{task="activity",outcome="current"}`,
		`crowdml_checkout_delta_total{task="activity",outcome="delta"}`,
		`crowdml_checkout_delta_total{task="activity",outcome="full_fallback"}`,
		// hub durability
		"crowdml_journal_appends_total",
		"crowdml_journal_rotations_total",
		"crowdml_journal_segments",
		"crowdml_retention_pruned_segments_total",
		"crowdml_checkpoint_saves_total",
		// transport
		"crowdml_http_requests_total",
		"crowdml_feed_entries_streamed_total",
	)

	// Follower exposition: replica-side series plus its own read path.
	followerBody := scrapeMetrics(t, followerSrv.URL)
	wantSeries(t, "follower", followerBody,
		"crowdml_replica_entries_replayed_total",
		"crowdml_replica_bootstraps_total",
		"crowdml_replica_lag_iterations",
		"crowdml_checkouts_total",
		"crowdml_snapshots_published_total", // Replay publishes through the same ring
		"crowdml_http_requests_total",
		`crowdml_checkout_stage_seconds_count{task="activity",stage="auth"}`,
		`crowdml_checkout_stage_seconds_count{task="activity",stage="view"}`,
		`crowdml_checkout_stage_seconds_count{task="activity",stage="encode"}`,
		`crowdml_checkout_body_bytes_bucket{task="activity",form="full"`,
		`crowdml_checkout_body_bytes_sum{task="activity",form="json"}`,
	)

	// The follower never journals locally: its registry must not have
	// invented leader-only durability series, nor stages it cannot run.
	for _, leaderOnly := range []string{"crowdml_journal_appends_total", `stage="journal"`, `stage="fsync"`} {
		if strings.Contains(followerBody, leaderOnly) {
			t.Errorf("follower exposition carries leader-only series %s:\n%s", leaderOnly, followerBody)
		}
	}
	// Nor does a SyncNone leader advertise an fsync it never runs.
	if strings.Contains(leaderBody, `stage="fsync"`) {
		t.Errorf("SyncNone leader exposition carries an fsync stage:\n%s", leaderBody)
	}

	// A second scrape after more traffic still lints clean and the
	// request counter now covers the scrape route itself.
	repDrive(t, leaderClient, "phone-1", token, 3)
	leaderBody = scrapeMetrics(t, leaderSrv.URL)
	if !strings.Contains(leaderBody, `route="GET /v1/metrics"`) {
		t.Errorf("leader exposition does not count its own scrape route:\n%s", leaderBody)
	}
}
