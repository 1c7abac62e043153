package shard

import (
	"context"
	"fmt"

	"github.com/crowdml/crowdml/internal/core"
	"github.com/crowdml/crowdml/internal/hub"
	"github.com/crowdml/crowdml/internal/linalg"
)

// mergedView is the bookkeeping of one published combination of the
// member snapshots; the merged parameter vector itself — the
// checkin-count-weighted average of the members' (uniform before any
// checkin) — is published through Group.ring under the same iteration.
// Immutable after publication; readers load it with a single atomic
// pointer read.
type mergedView struct {
	// iteration is Σ member snapshot versions — the logical task's
	// iteration counter. Monotone: each component is monotone.
	iteration int
	// componentIter[k] is the iteration member k contributed, for
	// per-shard merge-lag reporting.
	componentIter []int
	// done reports that EVERY member has met its stopping criteria.
	done bool
	// Summed raw crowd counters across members (Eq. 14 numerators and
	// denominator), so ratio estimates compose exactly.
	totalNs, totalNe int64
	totalNky         []int64
}

// LogicalID implements hub.ShardRouter.
func (g *Group) LogicalID() string { return g.id }

// Info implements hub.ShardRouter: the logical task's portal metadata.
func (g *Group) Info() hub.TaskInfo { return g.info }

// MemberIDs implements hub.ShardRouter: member task IDs in shard order.
func (g *Group) MemberIDs() []string {
	out := make([]string, len(g.members))
	for k, t := range g.members {
		out[k] = t.ID()
	}
	return out
}

// Owner implements hub.ShardRouter: the member task owning the device.
// Pure placement — no counters move; the operation methods below count
// what they serve.
func (g *Group) Owner(deviceID string) *hub.Task {
	return g.members[g.smap.Shard(deviceID)]
}

// CheckoutDelta implements hub.ShardRouter, the sharded checkout:
// authenticate against the device's owning member — the shard that
// holds its credentials — then answer from the merged view and the ring
// of its predecessors, with the same contract as
// core.Server.CheckoutDelta: the caller's base when its iteration is
// retained, the zero-copy full merged vector otherwise, both pinned until
// the caller's Release. The read is lock-free up to the ring's lookup. The transport layer serves every
// checkout through this (the JSON wire with since = -1, the binary
// wire's ?since=N), so devices cannot tell a sharded task from a plain
// one. Its auth and view stages are timed in the owning member's
// checkout stage family, where the transport's encode stage lands too.
func (g *Group) CheckoutDelta(ctx context.Context, deviceID, token string, since int) (*core.ParamDelta, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	k := g.smap.Shard(deviceID)
	srv := g.members[k].Server()
	_, co := srv.Stages()
	start := co.Start()
	if err := srv.Authenticate(ctx, deviceID, token); err != nil {
		return nil, err
	}
	authed := co.Lap(core.StageAuth, start)
	g.m.routed[k].checkout.Inc()
	// done before the pin: merge publishes the vector first, so the
	// parameters served are never older than the view that said done.
	done := g.merged.Load().done
	d := g.ring.Delta(since, done)
	co.Lap(core.StageView, authed)
	return d, nil
}

// Checkout implements the device-side core.Transport for in-process
// devices: the full merged model, in a slice the caller owns.
func (g *Group) Checkout(ctx context.Context, deviceID, token string) (*core.CheckoutResponse, error) {
	d, err := g.CheckoutDelta(ctx, deviceID, token, -1)
	if err != nil {
		return nil, err
	}
	resp := &core.CheckoutResponse{Params: linalg.Copy(d.Params), Version: d.Version, Done: d.Done}
	d.Release()
	return resp, nil
}

// Checkin implements hub.ShardRouter (and core.Transport): apply the
// delta on the device's owning member. The echoed Version is a merged
// iteration (Σ shards) while the member's staleness accounting is
// shard-local, so a Version ahead of the member's own counter is
// clamped to it — staleness then measures the member's queue delay
// instead of going negative. The clamp happens before the member
// journals the request, so crash replay reapplies the identical entry.
func (g *Group) Checkin(ctx context.Context, deviceID, token string, req *core.CheckinRequest) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	k := g.smap.Shard(deviceID)
	t := g.members[k]
	if t.ReadOnly() {
		// A tier built over follower-role members (a sharded read replica)
		// rejects writes exactly like a single follower does; the HTTP
		// layer translates this to 409 + the member's leader hint.
		return fmt.Errorf("shard %q replicates %s: %w", t.ID(), t.LeaderURL(), core.ErrStopped)
	}
	srv := t.Server()
	if local := srv.Iteration(); req.Version > local {
		req.Version = local
	}
	g.m.routed[k].checkin.Inc()
	return srv.Checkin(ctx, deviceID, token, req)
}

// Register implements hub.ShardRouter: enroll the device on its owning
// member, which from then on holds its credential and counters.
func (g *Group) Register(ctx context.Context, deviceID string) (string, error) {
	if err := ctx.Err(); err != nil {
		return "", err
	}
	k := g.smap.Shard(deviceID)
	t := g.members[k]
	if t.ReadOnly() {
		return "", fmt.Errorf("shard %q replicates %s: %w", t.ID(), t.LeaderURL(), core.ErrStopped)
	}
	g.m.routed[k].register.Inc()
	return t.Server().RegisterDevice(ctx, deviceID)
}

// MergedStats implements hub.ShardRouter: the logical task's progress
// view, derived from the published merged view's summed raw counters.
func (g *Group) MergedStats() hub.Progress {
	mv := g.merged.Load()
	classes, dim := g.members[0].Server().ModelShape()
	s := hub.Progress{
		Iteration: mv.iteration,
		Stopped:   mv.done,
		Classes:   classes,
		Dim:       dim,
		Shards:    g.smap.N(),
	}
	if mv.totalNs > 0 {
		s.ErrorEstimate = float64(mv.totalNe) / float64(mv.totalNs)
		s.HasError = true
		s.PriorEstimate = make([]float64, len(mv.totalNky))
		for k, n := range mv.totalNky {
			s.PriorEstimate[k] = float64(n) / float64(mv.totalNs)
		}
	}
	return s
}

// ShardRows implements hub.ShardRouter: one live health row per member.
func (g *Group) ShardRows() []hub.ShardHealthRow {
	mv := g.merged.Load()
	rows := make([]hub.ShardHealthRow, len(g.members))
	for k, t := range g.members {
		srv := t.Server()
		ready, st := t.Ready()
		row := hub.ShardHealthRow{
			ID:           t.ID(),
			Iteration:    srv.Iteration(),
			Stopped:      srv.Stopped(),
			Ready:        ready,
			ReplicaState: st.State,
		}
		if lag := row.Iteration - mv.componentIter[k]; lag > 0 {
			row.MergeLag = lag
		}
		rows[k] = row
	}
	return rows
}

// merge rebuilds and publishes the merged view: pin every member's
// zero-copy snapshot, average the parameter vectors weighted by each
// shard's checkin count (its snapshot version — paper-style model
// averaging over unevenly loaded shards) straight into a vector the ring
// recycles, release the pins, and sum the raw crowd counters. Called by the merger goroutine, once synchronously from
// New, and by explicit Merge callers; mergeMu serializes builds so the
// published iteration never moves backwards.
func (g *Group) merge() {
	g.mergeMu.Lock()
	defer g.mergeMu.Unlock()
	start := g.m.mergeSeconds.Start()
	n := len(g.members)
	views := make([]core.ParamView, n)
	weights := make([]float64, n)
	mv := &mergedView{componentIter: make([]int, n), done: true}
	for k, t := range g.members {
		srv := t.Server()
		v := srv.ParamView()
		views[k] = v
		weights[k] = float64(v.Version)
		mv.componentIter[k] = v.Version
		mv.iteration += v.Version
		if !srv.Stopped() {
			mv.done = false
		}
		ns, ne, nky := srv.CrowdTotals()
		mv.totalNs += ns
		mv.totalNe += ne
		if mv.totalNky == nil {
			mv.totalNky = make([]int64, len(nky))
		}
		for i, c := range nky {
			mv.totalNky[i] += c
		}
	}
	err := g.ring.Publish(mv.iteration, len(views[0].Params), func(dst []float64) error {
		return core.MergeParamViews(dst, views, weights)
	})
	for k := range views {
		views[k].Release()
	}
	if err != nil {
		// Shapes are validated at New and snapshots never change shape;
		// reaching this means a programming error. Keep serving the last
		// good view rather than publishing garbage.
		return
	}
	prev := g.merged.Load()
	advanced := 0
	if prev != nil {
		advanced = mv.iteration - prev.iteration
	}
	g.merged.Store(mv)
	g.m.mergeSeconds.ObserveSince(start)
	g.m.merges.Inc()
	g.m.staleness.Set(float64(advanced))
}
