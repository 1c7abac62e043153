// End-to-end test of the sharded leader tier: a 4-shard logical task
// and a single-leader control serve the same crowd over real HTTP, and
// must agree on every count the protocol promises — total checkins
// applied, merged iteration, and the crowd statistics of Eq. (14) —
// while the merged iteration observed by a concurrent poller never
// moves backwards. This is the test the CI "sharded tier e2e" step runs
// by name.
package crowdml_test

import (
	"context"
	"fmt"
	"math"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	crowdml "github.com/crowdml/crowdml"
	"github.com/crowdml/crowdml/internal/invariants"
)

const (
	shardedClasses = 2
	shardedDim     = 8
	shardedCrowd   = 12 // devices
	shardedRounds  = 5  // checkins per device
)

func shardedConfig() crowdml.ServerConfig {
	return crowdml.ServerConfig{
		Model:   crowdml.NewLogisticRegression(shardedClasses, shardedDim),
		Updater: crowdml.NewSGD(crowdml.InvSqrt{C: 1}, 0),
	}
}

// driveShardedCrowd runs the full device protocol for the crowd against
// one server (sharded or not): register, then rounds of checkout →
// checkin with the checkout's version echoed back — concurrently, so
// the race detector sees the whole stack under load.
func driveShardedCrowd(t *testing.T, baseURL, taskID string) {
	t.Helper()
	ctx := context.Background()
	var wg sync.WaitGroup
	errs := make(chan error, shardedCrowd)
	for d := 0; d < shardedCrowd; d++ {
		wg.Add(1)
		go func(d int) {
			defer wg.Done()
			deviceID := fmt.Sprintf("device-%05d", d)
			cl := crowdml.NewHTTPClient(baseURL, nil).WithTask(taskID)
			token, err := cl.Register(ctx, deviceID, "join")
			if err != nil {
				errs <- fmt.Errorf("%s register: %w", deviceID, err)
				return
			}
			for r := 0; r < shardedRounds; r++ {
				co, err := cl.Checkout(ctx, deviceID, token)
				if err != nil {
					errs <- fmt.Errorf("%s checkout: %w", deviceID, err)
					return
				}
				grad := make([]float64, shardedClasses*shardedDim)
				grad[d%len(grad)] = 0.5
				req := &crowdml.CheckinRequest{
					Grad:        grad,
					NumSamples:  2 + d%3, // uneven counts, so the Eq. (14) ratios are inexact
					ErrCount:    (d + r) % 2,
					LabelCounts: []int{1 + d%3, 1},
					Version:     co.Version,
				}
				if err := cl.Checkin(ctx, deviceID, token, req); err != nil {
					errs <- fmt.Errorf("%s checkin: %w", deviceID, err)
					return
				}
			}
		}(d)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestShardedTierMatchesSingleLeader is the tier's equivalence proof:
// the same crowd against a 4-shard task and a single-leader control
// produces identical checkin totals and crowd statistics, and a poller
// watching the sharded stats during the run never observes the merged
// iteration decrease.
func TestShardedTierMatchesSingleLeader(t *testing.T) {
	ctx := context.Background()

	// Control: one plain leader task.
	ctlHub := crowdml.NewHub()
	if _, err := ctlHub.CreateTask(ctx, "act", shardedConfig()); err != nil {
		t.Fatal(err)
	}
	ctlSrv := httptest.NewServer(crowdml.NewHTTPHandler(ctlHub, "join", nil))
	defer ctlSrv.Close()

	// Subject: the same logical task sharded 4 ways, merging fast enough
	// for the poller to see intermediate views.
	shHub := crowdml.NewHub()
	g, err := crowdml.NewShardedTask(ctx, shHub, "act",
		func(int) crowdml.ServerConfig { return shardedConfig() },
		crowdml.WithShards(4), crowdml.WithShardMergeInterval(5*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer g.Stop()
	shSrv := httptest.NewServer(crowdml.NewHTTPHandler(shHub, "join", nil))
	defer shSrv.Close()

	// Concurrent poller: merged iteration must be monotone.
	pollDone := make(chan struct{})
	stopPoll := make(chan struct{})
	go func() {
		defer close(pollDone)
		cl := crowdml.NewHTTPClient(shSrv.URL, nil).WithTask("act")
		last := -1
		for {
			select {
			case <-stopPoll:
				return
			default:
			}
			st, err := cl.Stats(ctx)
			if err != nil {
				t.Errorf("poll stats: %v", err)
				return
			}
			if st.Iteration < last {
				t.Errorf("merged iteration went backwards: %d → %d", last, st.Iteration)
				return
			}
			last = st.Iteration
			time.Sleep(time.Millisecond)
		}
	}()

	driveShardedCrowd(t, ctlSrv.URL, "act")
	driveShardedCrowd(t, shSrv.URL, "act")
	close(stopPoll)
	<-pollDone

	// Publish the final view, then compare the two servers' stats.
	g.Merge()
	const want = shardedCrowd * shardedRounds
	ctlStats, err := crowdml.NewHTTPClient(ctlSrv.URL, nil).WithTask("act").Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	shStats, err := crowdml.NewHTTPClient(shSrv.URL, nil).WithTask("act").Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if ctlStats.Iteration != want {
		t.Errorf("control iteration = %d, want %d", ctlStats.Iteration, want)
	}
	if shStats.Iteration != want {
		t.Errorf("sharded merged iteration = %d, want %d", shStats.Iteration, want)
	}
	if shStats.Shards != 4 || ctlStats.Shards != 0 {
		t.Errorf("shards fields = (%d,%d), want (4,0)", shStats.Shards, ctlStats.Shards)
	}
	// Every member iteration sums to the same total the control applied.
	memberSum := 0
	for _, mt := range g.Members() {
		memberSum += mt.Server().Iteration()
	}
	if memberSum != want {
		t.Errorf("Σ member iterations = %d, want %d", memberSum, want)
	}
	// Eq. (14) per shard: each member's totals compose from its own
	// devices' counters. Merged: the estimates are exactly ΣN_e/ΣN_s and
	// ΣN^k_y/ΣN_s over the members' exported totals, bit for bit.
	var ns, ne int
	nky := make([]int, shardedClasses)
	for _, mt := range g.Members() {
		st := mt.Server().ExportState()
		if err := invariants.Counters(st); err != nil {
			t.Errorf("member %s: %v", mt.ID(), err)
		}
		ns, ne = ns+st.TotalSamples, ne+st.TotalErrors
		for k, c := range st.TotalLabelCounts {
			nky[k] += c
		}
	}
	merged := g.MergedStats()
	if wantErr := float64(ne) / float64(ns); !merged.HasError || math.Float64bits(merged.ErrorEstimate) != math.Float64bits(wantErr) {
		t.Errorf("merged error estimate = %v (has %v), want ΣN_e/ΣN_s = %v", merged.ErrorEstimate, merged.HasError, wantErr)
	}
	if len(merged.PriorEstimate) != len(nky) {
		t.Fatalf("merged prior estimate %v, want %d classes", merged.PriorEstimate, len(nky))
	}
	for k, c := range nky {
		if wantPrior := float64(c) / float64(ns); math.Float64bits(merged.PriorEstimate[k]) != math.Float64bits(wantPrior) {
			t.Errorf("merged prior estimate[%d] = %v, want ΣN^k_y/ΣN_s = %v", k, merged.PriorEstimate[k], wantPrior)
		}
	}
	// Eq. (14) statistics compose exactly: summed raw counters give the
	// same estimates the single leader computed.
	if ctlStats.ErrorEstimate == nil || shStats.ErrorEstimate == nil {
		t.Fatalf("missing error estimates: control=%v sharded=%v", ctlStats.ErrorEstimate, shStats.ErrorEstimate)
	}
	if math.Abs(*ctlStats.ErrorEstimate-*shStats.ErrorEstimate) > 1e-12 {
		t.Errorf("error estimates diverge: control=%g sharded=%g", *ctlStats.ErrorEstimate, *shStats.ErrorEstimate)
	}
	for k := range ctlStats.PriorEstimate {
		if math.Abs(ctlStats.PriorEstimate[k]-shStats.PriorEstimate[k]) > 1e-12 {
			t.Errorf("prior estimates diverge at %d: control=%v sharded=%v",
				k, ctlStats.PriorEstimate, shStats.PriorEstimate)
		}
	}

	// The checkout a device sees is the merged view: version = Σ shards.
	cl := crowdml.NewHTTPClient(shSrv.URL, nil).WithTask("act")
	token, err := cl.Register(ctx, "device-final", "join")
	if err != nil {
		t.Fatal(err)
	}
	co, err := cl.Checkout(ctx, "device-final", token)
	if err != nil {
		t.Fatal(err)
	}
	if co.Version != want {
		t.Errorf("merged checkout version = %d, want %d", co.Version, want)
	}
	if len(co.Params) != shardedClasses*shardedDim {
		t.Errorf("merged checkout params len = %d", len(co.Params))
	}

	// Healthz aggregates the tier into one row with per-shard sub-rows
	// whose iterations sum to the total.
	hr, err := crowdml.NewHTTPClient(shSrv.URL, nil).Healthz(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if hr.Status != "ok" || len(hr.Tasks) != 1 {
		t.Fatalf("sharded healthz = %+v", hr)
	}
	row := hr.Tasks[0]
	if row.ID != "act" || row.Role != "sharded" || !row.Ready || len(row.Shards) != 4 {
		t.Fatalf("sharded health row = %+v", row)
	}
	rowSum := 0
	for _, sr := range row.Shards {
		rowSum += sr.Iteration
	}
	if rowSum != want {
		t.Errorf("Σ shard health iterations = %d, want %d", rowSum, want)
	}

	// The listing shows the logical task only — members stay hidden.
	tasks, err := crowdml.NewHTTPClient(shSrv.URL, nil).Tasks(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(tasks) != 1 || tasks[0].ID != "act" || tasks[0].Shards != 4 {
		t.Fatalf("sharded listing = %+v, want only act with 4 shards", tasks)
	}
}

// TestShardedMetricsExposition scrapes a sharded deployment's
// /v1/metrics over real HTTP: the exposition must lint clean and carry
// the router series next to every member's per-task series.
func TestShardedMetricsExposition(t *testing.T) {
	ctx := context.Background()
	reg := crowdml.NewMetricsRegistry()
	h := crowdml.NewHub()
	g, err := crowdml.NewShardedTask(ctx, h, "act",
		func(int) crowdml.ServerConfig { return shardedConfig() },
		crowdml.WithShards(2),
		crowdml.WithShardMergeInterval(5*time.Millisecond),
		crowdml.WithShardMetrics(reg))
	if err != nil {
		t.Fatal(err)
	}
	defer g.Stop()
	srv := httptest.NewServer(crowdml.NewHTTPHandler(h, "join", reg))
	defer srv.Close()

	driveShardedCrowd(t, srv.URL, "act")
	g.Merge()

	body := scrapeMetrics(t, srv.URL)
	wantSeries(t, "sharded", body,
		// Router-layer sharding series.
		`crowdml_shard_routed_requests_total{task="act",shard="0",op="checkin"}`,
		`crowdml_shard_routed_requests_total{task="act",shard="1",op="checkout"}`,
		`crowdml_shard_routed_requests_total{task="act",shard="0",op="register"}`,
		`crowdml_shard_merges_total{task="act"}`,
		`crowdml_shard_merge_seconds_bucket`,
		`crowdml_shard_merge_staleness_iterations{task="act"}`,
		// The merged view's ring, under the logical ID; each member's own
		// under its member ID.
		`crowdml_snapshots_published_total{task="act",source="recycled"}`,
		`crowdml_checkout_delta_total{task="act",outcome="full_fallback"}`,
		`crowdml_snapshots_published_total{task="act.shard-0",source="allocated"}`,
		// Member tasks keep their ordinary per-task series, labeled with
		// their member IDs.
		`crowdml_checkins_applied_total{task="act.shard-0"}`,
		`crowdml_checkins_applied_total{task="act.shard-1"}`,
		// and their stage families: the router's checkout stages and the
		// transport's land in the member owning the device.
		`crowdml_checkin_stage_seconds_count{task="act.shard-0",stage="decode"}`,
		`crowdml_checkin_stage_seconds_count{task="act.shard-1",stage="queue_wait"}`,
		`crowdml_checkout_stage_seconds_count{task="act.shard-0",stage="auth"}`,
		`crowdml_checkout_stage_seconds_count{task="act.shard-1",stage="encode"}`,
		// The checkout body family, observed by the member owning the device.
		`crowdml_checkout_body_bytes_count{task="act.shard-0",form="json"}`,
		`crowdml_checkout_body_bytes_bucket{task="act.shard-1",form="xor"`,
		// And the transport counts the task-scoped routes.
		`crowdml_http_requests_total`,
	)
}
