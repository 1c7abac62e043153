package shard

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"testing"
	"time"

	"github.com/crowdml/crowdml/internal/core"
	"github.com/crowdml/crowdml/internal/hub"
	"github.com/crowdml/crowdml/internal/model"
	"github.com/crowdml/crowdml/internal/optimizer"
	"github.com/crowdml/crowdml/internal/store"
)

const (
	testClasses = 2
	testDim     = 3
)

func testConfigure(shard int) core.ServerConfig {
	return core.ServerConfig{
		Model:   model.NewLogisticRegression(testClasses, testDim),
		Updater: &optimizer.SGD{Schedule: optimizer.Constant{C: 1}},
	}
}

// newTestGroup builds an n-shard group with a long merge interval so
// tests control merging explicitly via g.merge().
func newTestGroup(t *testing.T, h *hub.Hub, id string, n int, opts ...Option) *Group {
	t.Helper()
	opts = append([]Option{WithShards(n), WithMergeInterval(time.Hour)}, opts...)
	g, err := New(context.Background(), h, id, testConfigure, opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(g.Stop)
	return g
}

// drive registers a device on the group and applies n unit-gradient
// checkins, returning its token.
func drive(t *testing.T, g *Group, deviceID string, n int) string {
	t.Helper()
	ctx := context.Background()
	token, err := g.Register(ctx, deviceID)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		req := &core.CheckinRequest{
			Grad:        []float64{1, 0, 0, 0, 0, 0},
			NumSamples:  2,
			ErrCount:    1,
			LabelCounts: []int{1, 1},
		}
		if err := g.Checkin(ctx, deviceID, token, req); err != nil {
			t.Fatal(err)
		}
	}
	return token
}

func TestGroupCreatesMembersAndMounts(t *testing.T) {
	h := hub.New()
	g := newTestGroup(t, h, "act", 4)
	want := []string{"act.shard-0", "act.shard-1", "act.shard-2", "act.shard-3"}
	ids := g.MemberIDs()
	if len(ids) != 4 {
		t.Fatalf("MemberIDs = %v", ids)
	}
	for i, id := range want {
		if ids[i] != id {
			t.Errorf("member %d = %q, want %q", i, ids[i], id)
		}
		if _, ok := h.Task(id); !ok {
			t.Errorf("member task %q not hosted", id)
		}
	}
	if e, err := h.Resolve("act"); err != nil || e.Router != hub.ShardRouter(g) {
		t.Fatalf("Resolve(act) = %+v, %v; want the group as act's router", e, err)
	}
	if hosted := h.Hosted(); len(hosted) != 1 || hosted[0].ID() != "act" {
		t.Errorf("Hosted() = %+v, want the members folded into act", hosted)
	}
}

func TestRoutingIsDeterministicAndOwningShardOnly(t *testing.T) {
	ctx := context.Background()
	h := hub.New()
	g := newTestGroup(t, h, "act", 4)
	for i := 0; i < 16; i++ {
		dev := fmt.Sprintf("device-%03d", i)
		member := g.Owner(dev).ID()
		if member != g.Owner(dev).ID() {
			t.Fatalf("routing for %q not deterministic", dev)
		}
		token := drive(t, g, dev, 1)
		// The credential must live on the owning member and nowhere else.
		for _, mt := range g.Members() {
			err := mt.Server().Authenticate(ctx, dev, token)
			if mt.ID() == member && err != nil {
				t.Errorf("owning member %q rejects %q: %v", member, dev, err)
			}
			if mt.ID() != member && err == nil {
				t.Errorf("non-owning member %q accepted %q", mt.ID(), dev)
			}
		}
	}
	// Checkin totals across members equal the checkins driven.
	total := 0
	for _, mt := range g.Members() {
		total += mt.Server().Iteration()
	}
	if total != 16 {
		t.Fatalf("Σ member iterations = %d, want 16", total)
	}
}

func TestMergedViewWeightedAverageAndStats(t *testing.T) {
	ctx := context.Background()
	h := hub.New()
	g := newTestGroup(t, h, "act", 2)

	// Before any traffic: merged view serves the shared zero init.
	resp, err := g.Checkout(ctx, "unregistered", "nope")
	if !errors.Is(err, core.ErrAuth) {
		t.Fatalf("unauthenticated merged checkout err = %v, want ErrAuth", err)
	}

	// device-002 hashes to shard 0 of 2 (golden: FNV64a%4==0 ⇒ %2==0),
	// device-001 to shard 1. Drive them unevenly.
	const dev0, dev1 = "device-002", "device-001"
	if g.Owner(dev0).ID() != "act.shard-0" || g.Owner(dev1).ID() != "act.shard-1" {
		t.Fatalf("test devices route to %q/%q", g.Owner(dev0).ID(), g.Owner(dev1).ID())
	}
	t0 := drive(t, g, dev0, 1) // shard 0: 1 checkin
	drive(t, g, dev1, 3)       // shard 1: 3 checkins
	g.merge()

	resp, err = g.Checkout(ctx, dev0, t0)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Version != 4 {
		t.Fatalf("merged Version = %d, want Σ iterations = 4", resp.Version)
	}
	// Constant η=1 and unit gradient on coordinate 0: shard 0's param[0]
	// is -1, shard 1's is -3. Weighted by checkin counts (1,3):
	// (1·(-1) + 3·(-3))/4 = -2.5.
	if got := resp.Params[0]; math.Abs(got-(-2.5)) > 1e-12 {
		t.Fatalf("merged param[0] = %g, want -2.5", got)
	}

	s := g.MergedStats()
	if s.Iteration != 4 || s.Stopped || s.Shards != 2 {
		t.Fatalf("MergedStats = %+v", s)
	}
	if s.Classes != testClasses || s.Dim != testDim {
		t.Fatalf("MergedStats shape = (%d,%d)", s.Classes, s.Dim)
	}
	// 4 checkins × (2 samples, 1 error): ΣN_s=8, ΣN_e=4 ⇒ estimate 0.5.
	if !s.HasError || math.Abs(s.ErrorEstimate-0.5) > 1e-12 {
		t.Fatalf("merged error estimate = %v (has=%v), want 0.5", s.ErrorEstimate, s.HasError)
	}
	if len(s.PriorEstimate) != 2 || math.Abs(s.PriorEstimate[0]-0.5) > 1e-12 {
		t.Fatalf("merged prior = %v", s.PriorEstimate)
	}

	// Shard rows: live iterations, merge lag 0 right after a merge.
	rows := g.ShardRows()
	if len(rows) != 2 || rows[0].Iteration != 1 || rows[1].Iteration != 3 {
		t.Fatalf("ShardRows = %+v", rows)
	}
	for _, r := range rows {
		if !r.Ready || r.MergeLag != 0 {
			t.Errorf("row %+v, want ready with zero lag", r)
		}
	}
	// More traffic without a merge: lag appears, published view is stale.
	drive(t, g, "device-004", 2)
	rows = g.ShardRows()
	lag := 0
	for _, r := range rows {
		lag += r.MergeLag
	}
	if lag != 2 {
		t.Fatalf("Σ MergeLag = %d, want 2 (unmerged checkins)", lag)
	}
	if v := g.merged.Load().iteration; v != 4 {
		t.Fatalf("published merged iteration moved to %d without a merge", v)
	}
}

func TestMergedIterationMonotoneAndVersionClamp(t *testing.T) {
	ctx := context.Background()
	h := hub.New()
	g := newTestGroup(t, h, "act", 2)
	const dev = "device-002" // shard 0
	token := drive(t, g, dev, 3)
	g.merge()
	prev := g.MergedStats().Iteration
	for i := 0; i < 5; i++ {
		drive(t, g, fmt.Sprintf("extra-%03d", i), 1)
		g.merge()
		cur := g.MergedStats().Iteration
		if cur < prev {
			t.Fatalf("merged iteration went backwards: %d → %d", prev, cur)
		}
		prev = cur
	}

	// A checkin echoing the merged Version (> the owning shard's local
	// iteration) must be clamped, keeping shard-local staleness ≥ 0.
	resp, err := g.Checkout(ctx, dev, token)
	if err != nil {
		t.Fatal(err)
	}
	local := g.Owner(dev).Server().Iteration()
	if resp.Version <= local {
		t.Fatalf("test needs merged version (%d) > shard-local (%d)", resp.Version, local)
	}
	req := &core.CheckinRequest{
		Grad:        make([]float64, testClasses*testDim),
		NumSamples:  1,
		LabelCounts: []int{1, 0},
		Version:     resp.Version,
	}
	if err := g.Checkin(ctx, dev, token, req); err != nil {
		t.Fatal(err)
	}
	if req.Version != local {
		t.Fatalf("echoed version clamped to %d, want shard-local %d", req.Version, local)
	}
	st, ok := g.Members()[0].Server().ExportState().Devices[dev]
	if !ok || st.StalenessSum < 0 {
		t.Fatalf("device staleness sum = %+v (ok=%v), want ≥ 0", st, ok)
	}
}

func TestGroupDoneOnlyWhenAllShardsStop(t *testing.T) {
	h := hub.New()
	g := newTestGroup(t, h, "act", 2)
	g.Members()[0].Server().Stop()
	g.merge()
	if g.MergedStats().Stopped {
		t.Fatal("merged view reports done with one live shard")
	}
	g.Members()[1].Server().Stop()
	g.merge()
	if !g.MergedStats().Stopped {
		t.Fatal("merged view not done with every shard stopped")
	}
}

func TestGroupDurableRestart(t *testing.T) {
	ctx := context.Background()
	root := store.NewMemRoot()

	h1 := hub.New()
	g1, err := New(ctx, h1, "act", testConfigure,
		WithShards(2), WithMergeInterval(time.Hour), WithStores(root))
	if err != nil {
		t.Fatal(err)
	}
	drive(t, g1, "device-002", 2) // shard 0
	drive(t, g1, "device-001", 3) // shard 1
	if err := g1.Close(ctx); err != nil {
		t.Fatal(err)
	}

	// "Restart": a fresh hub, same stores — every member must resume its
	// own lineage, and the merged view reflect the recovered tier.
	h2 := hub.New()
	g2, err := New(ctx, h2, "act", testConfigure,
		WithShards(2), WithMergeInterval(time.Hour), WithStores(root))
	if err != nil {
		t.Fatal(err)
	}
	defer g2.Stop()
	iters := []int{}
	for _, mt := range g2.Members() {
		iters = append(iters, mt.Server().Iteration())
	}
	if iters[0] != 2 || iters[1] != 3 {
		t.Fatalf("restored member iterations = %v, want [2 3]", iters)
	}
	if s := g2.MergedStats(); s.Iteration != 5 {
		t.Fatalf("restored merged iteration = %d, want 5", s.Iteration)
	}
}

func TestGroupCloseUnmountsAndClosesMembers(t *testing.T) {
	ctx := context.Background()
	h := hub.New()
	g, err := New(ctx, h, "act", testConfigure, WithShards(2), WithMergeInterval(time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Close(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := h.Resolve("act"); !errors.Is(err, hub.ErrTaskNotFound) {
		t.Errorf("Resolve(act) after Close err = %v, want ErrTaskNotFound", err)
	}
	for _, id := range []string{"act.shard-0", "act.shard-1"} {
		if _, ok := h.Task(id); ok {
			t.Errorf("member %q still hosted after Close", id)
		}
	}
	// Close after Hub.Close tolerates already-removed members.
	h2 := hub.New()
	g2, err := New(ctx, h2, "act", testConfigure, WithShards(2), WithMergeInterval(time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	if err := h2.Close(ctx); err != nil {
		t.Fatal(err)
	}
	if err := g2.Close(ctx); err != nil {
		t.Fatalf("Close after Hub.Close: %v", err)
	}
}

func TestNewValidation(t *testing.T) {
	ctx := context.Background()
	h := hub.New()
	if _, err := New(ctx, nil, "act", testConfigure); err == nil {
		t.Error("New(nil hub) did not error")
	}
	if _, err := New(ctx, h, "act", nil); err == nil {
		t.Error("New(nil configure) did not error")
	}
	if _, err := New(ctx, h, "bad/id", testConfigure); !errors.Is(err, hub.ErrBadTaskID) {
		t.Errorf("New(bad id) err = %v", err)
	}
	if _, err := New(ctx, h, "act", testConfigure, WithShards(0)); err == nil {
		t.Error("New(WithShards(0)) did not error")
	}
	// Mismatched shapes across shards must fail — and clean up the
	// members it already created.
	badConfigure := func(k int) core.ServerConfig {
		dim := testDim + k
		return core.ServerConfig{
			Model:   model.NewLogisticRegression(testClasses, dim),
			Updater: &optimizer.SGD{Schedule: optimizer.Constant{C: 1}},
		}
	}
	if _, err := New(ctx, h, "act", badConfigure, WithShards(2)); err == nil {
		t.Fatal("New(mismatched shapes) did not error")
	}
	if _, ok := h.Task("act.shard-0"); ok {
		t.Error("failed New left member tasks behind")
	}
	// The ID space is still clean: a proper group mounts fine.
	if g, err := New(ctx, h, "act", testConfigure, WithShards(2), WithMergeInterval(time.Hour)); err != nil {
		t.Fatal(err)
	} else {
		g.Stop()
	}
}

// TestMergeAllocatesNoVector: a merge writes the weighted average
// straight into a vector the group's ring recycled and releases its pins
// on the members' snapshots, so neither the merged view nor the members'
// own publications allocate anything that grows with the model once the
// rings are full — at the parent a checkin-plus-merge cycle allocated two
// vectors (the member's snapshot and the merged one).
func TestMergeAllocatesNoVector(t *testing.T) {
	ctx := context.Background()
	cycleBytes := func(dim int) float64 {
		const classes = 10
		g, err := New(ctx, hub.New(), "act", func(int) core.ServerConfig {
			return core.ServerConfig{
				Model:   model.NewLogisticRegression(classes, dim),
				Updater: &optimizer.SGD{Schedule: optimizer.Constant{C: 1}},
			}
		}, WithShards(2), WithMergeInterval(time.Hour))
		if err != nil {
			t.Fatal(err)
		}
		defer g.Stop()
		token, err := g.Register(ctx, "d")
		if err != nil {
			t.Fatal(err)
		}
		req := &core.CheckinRequest{Grad: make([]float64, classes*dim), NumSamples: 1, LabelCounts: make([]int, classes)}
		cycle := func() {
			if err := g.Checkin(ctx, "d", token, req); err != nil {
				t.Fatal(err)
			}
			g.Merge()
		}
		for i := 0; i < core.DefaultDeltaHistory+4; i++ {
			cycle()
		}
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
		const runs = 200
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			cycle()
		}
		runtime.ReadMemStats(&after)
		if resp, err := g.Checkout(ctx, "d", token); err != nil || resp.Version != core.DefaultDeltaHistory+4+runs {
			t.Fatalf("merged checkout after the run: %+v, %v", resp, err)
		}
		return float64(after.TotalAlloc-before.TotalAlloc) / runs
	}
	small, large := cycleBytes(50), cycleBytes(2000)
	if large >= 2048 || large-small > 64 {
		t.Errorf("a checkin+merge cycle allocates %.0f B at 500 parameters and %.0f B at 20,000: want the same, under 2 KB", small, large)
	}
}
