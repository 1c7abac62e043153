package shard

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/crowdml/crowdml/internal/core"
	"github.com/crowdml/crowdml/internal/hub"
	"github.com/crowdml/crowdml/internal/store"
	"github.com/crowdml/crowdml/internal/telemetry"
)

// DefaultMergeInterval is how often the merger goroutine rebuilds the
// merged view when WithMergeInterval is not given. Merged checkouts can
// trail the shard tier by at most this long plus one merge; the
// crowdml_shard_merge_staleness_iterations gauge reports the realized
// bound in iterations.
const DefaultMergeInterval = 100 * time.Millisecond

// Option configures New.
type Option func(*config)

type config struct {
	shards     int
	mergeEvery time.Duration
	stores     store.Root
	info       hub.TaskInfo
	taskOpts   []hub.TaskOption
	memberOpts func(shard int, memberID string) []hub.TaskOption
	metrics    *telemetry.Registry
}

// WithShards sets the shard count N (default 1 — a sharded facade over
// a single leader, useful as a control and for growing into later).
func WithShards(n int) Option {
	return func(c *config) { c.shards = n }
}

// WithMergeInterval sets how often the merger goroutine rebuilds the
// merged view (default DefaultMergeInterval).
func WithMergeInterval(d time.Duration) Option {
	return func(c *config) { c.mergeEvery = d }
}

// WithStores makes every member task durable: member k journals and
// checkpoints into root's store for its member ID ("{task}.shard-{k}"),
// so each shard has its own WAL/checkpoint lineage and a restarted tier
// restores per shard exactly like any durable task. Combine with
// WithTaskOptions / WithMemberTaskOptions to set checkpoint, sync and
// retention policies.
func WithStores(root store.Root) Option {
	return func(c *config) { c.stores = root }
}

// WithInfo sets the logical task's portal metadata. Member tasks derive
// theirs from it (the name gains a "(shard k/N)" suffix).
func WithInfo(info hub.TaskInfo) Option {
	return func(c *config) { c.info = info }
}

// WithTaskOptions appends hub options applied identically to every
// member task (checkpoint policy, sync policy, retention, ...).
func WithTaskOptions(opts ...hub.TaskOption) Option {
	return func(c *config) { c.taskOpts = append(c.taskOpts, opts...) }
}

// WithMemberTaskOptions supplies per-member hub options — for knobs
// that must differ per shard, like an archive directory rooted inside
// each member's own store. Applied after WithTaskOptions.
func WithMemberTaskOptions(f func(shard int, memberID string) []hub.TaskOption) Option {
	return func(c *config) { c.memberOpts = f }
}

// WithMetrics instruments the tier into reg: the router's sharding
// series (per-shard routed requests, merge latency, merges, staleness)
// plus the ordinary per-task series of every member (labeled with its
// member ID).
func WithMetrics(reg *telemetry.Registry) Option {
	return func(c *config) { c.metrics = reg }
}

// Group is one sharded logical task: N member leader tasks plus the
// routing/merging front-end. It implements hub.ShardRouter (New mounts
// it on the hub, which is what routes the logical task's HTTP traffic
// through it) and core.Transport (in-process devices can run against it
// directly, exactly like against a core.Server).
type Group struct {
	hub     *hub.Hub
	id      string
	info    hub.TaskInfo // base portal metadata, without shard decoration
	smap    ShardMap
	members []*hub.Task // index = shard

	// merged is the published merged view's bookkeeping; lock-free
	// readers, replaced wholesale by the merger. Never nil after New
	// (which merges once synchronously before the Group is visible).
	merged atomic.Pointer[mergedView]

	mergeEvery time.Duration
	// mergeMu serializes merged-view builds: the periodic merger and any
	// explicit Merge caller publish in a consistent order.
	mergeMu sync.Mutex
	// ring publishes the merged parameter vector and retains the recent
	// ones for delta checkouts; merge publishes every view through it (and
	// only then stores merged). The merged iteration (Σ member
	// versions) only moves backwards when a member restores older state,
	// and the ring drops its bases when it does.
	ring *core.SnapshotRing
	m    *groupMetrics

	stop     chan struct{}
	stopOnce sync.Once
	done     chan struct{}
}

var (
	_ hub.ShardRouter = (*Group)(nil)
	_ core.Transport  = (*Group)(nil)
)

// New creates the member tasks "{taskID}.shard-{k}" for k < N on the
// hub, mounts the Group as taskID's router, publishes an initial merged
// view, and starts the merger goroutine. configure is called once per
// shard and must return a fresh ServerConfig each time — Updaters are
// stateful (AdaGrad accumulators, Momentum velocity) and cannot be
// shared across shards. With WithStores, members restore any persisted
// state before the tier goes live, so restarting a sharded deployment
// is just calling New again with the same arguments.
func New(ctx context.Context, h *hub.Hub, taskID string, configure func(shard int) core.ServerConfig, opts ...Option) (*Group, error) {
	if h == nil {
		return nil, errors.New("shard: New: nil hub")
	}
	if configure == nil {
		return nil, errors.New("shard: New: nil configure")
	}
	if !hub.ValidTaskID(taskID) {
		return nil, fmt.Errorf("shard: %q: %w", taskID, hub.ErrBadTaskID)
	}
	c := config{shards: 1, mergeEvery: DefaultMergeInterval}
	for _, opt := range opts {
		opt(&c)
	}
	smap, err := NewShardMap(c.shards)
	if err != nil {
		return nil, err
	}
	if c.mergeEvery <= 0 {
		c.mergeEvery = DefaultMergeInterval
	}
	if c.info.Name == "" {
		c.info.Name = taskID
	}

	g := &Group{
		hub:        h,
		id:         taskID,
		info:       c.info,
		smap:       smap,
		mergeEvery: c.mergeEvery,
		ring:       core.NewSnapshotRing(0, core.NewRingMetrics(c.metrics, taskID)),
		m:          newGroupMetrics(c.metrics, taskID, c.shards),
		stop:       make(chan struct{}),
		done:       make(chan struct{}),
	}
	// Any failure below must tear down the members already created — a
	// half-built tier left on the hub would serve a fraction of the crowd
	// under per-shard IDs with no router in front.
	fail := func(err error) (*Group, error) {
		for _, t := range g.members {
			_ = h.CloseTask(ctx, t.ID())
		}
		return nil, err
	}
	for k := 0; k < c.shards; k++ {
		memberID := MemberTaskID(taskID, k)
		cfg := configure(k)
		info := c.info
		info.Name = fmt.Sprintf("%s (shard %d/%d)", c.info.Name, k, c.shards)
		memberOpts := []hub.TaskOption{hub.WithInfo(info)}
		if c.stores != nil {
			st, err := c.stores.Open(ctx, memberID)
			if err != nil {
				return fail(fmt.Errorf("shard: open store for %q: %w", memberID, err))
			}
			memberOpts = append(memberOpts, hub.WithStore(st))
		}
		memberOpts = append(memberOpts, hub.WithMetrics(c.metrics))
		memberOpts = append(memberOpts, c.taskOpts...)
		if c.memberOpts != nil {
			memberOpts = append(memberOpts, c.memberOpts(k, memberID)...)
		}
		t, err := h.CreateTask(ctx, memberID, cfg, memberOpts...)
		if err != nil {
			return fail(fmt.Errorf("shard: create %q: %w", memberID, err))
		}
		g.members = append(g.members, t)
	}
	// Shards must agree on the model shape or the merged view is
	// meaningless (and MergeParamViews would reject it every cycle).
	c0, d0 := g.members[0].Server().ModelShape()
	for k, t := range g.members[1:] {
		if ck, dk := t.Server().ModelShape(); ck != c0 || dk != d0 {
			return fail(fmt.Errorf("shard: shard %d shape (%d,%d) != shard 0 shape (%d,%d)", k+1, ck, dk, c0, d0))
		}
	}
	// Publish a merged view before the tier is reachable, so no reader
	// ever observes a nil pointer.
	g.merge()
	if err := h.MountShardRouter(g); err != nil {
		return fail(fmt.Errorf("shard: mount %q: %w", taskID, err))
	}
	go g.run()
	return g, nil
}

// run is the merger goroutine: rebuild the merged view every
// mergeEvery until Stop.
func (g *Group) run() {
	defer close(g.done)
	tick := time.NewTicker(g.mergeEvery)
	defer tick.Stop()
	for {
		select {
		case <-g.stop:
			return
		case <-tick.C:
			g.merge()
		}
	}
}

// Stop halts the merger goroutine (idempotent). The tier keeps serving:
// writes still route, and merged reads serve the last published view.
func (g *Group) Stop() {
	g.stopOnce.Do(func() { close(g.stop) })
	<-g.done
}

// Close shuts the tier down: the merger stops, the router unmounts (the
// logical ID stops resolving), and every member task is closed through
// the hub — final checkpoint and journal close for durable members.
// Member IDs the hub already closed (e.g. a prior Hub.Close) are
// tolerated. Errors are joined so one wedged shard store cannot hide
// another's.
func (g *Group) Close(ctx context.Context) error {
	g.Stop()
	g.hub.UnmountShardRouter(g.id)
	var errs []error
	for _, t := range g.members {
		if err := g.hub.CloseTask(ctx, t.ID()); err != nil && !errors.Is(err, hub.ErrTaskNotFound) {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

// Merge rebuilds and publishes the merged view immediately, in the
// caller's goroutine — on top of the periodic merger. Callers that just
// wrote through the tier (tests, bulk preregistration) use it to make
// the merged view reflect their writes without waiting a cycle.
func (g *Group) Merge() { g.merge() }

// Members returns the member tasks in shard order (shard k at index k).
func (g *Group) Members() []*hub.Task {
	out := make([]*hub.Task, len(g.members))
	copy(out, g.members)
	return out
}

// Map returns the group's shard map.
func (g *Group) Map() ShardMap { return g.smap }
