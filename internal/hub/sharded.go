package hub

// This file is the hub-side registry half of the sharded leader tier
// (internal/shard implements the other half). A ShardRouter fronts N
// ordinary member tasks — each a full leader with its own
// WAL/checkpoint/replication lineage — as ONE logical task ID. The hub
// only indexes routers and answers membership queries; the routing,
// merging and telemetry live in the implementation. This mirrors the
// ReplicaProbe decoupling in replica.go: the HTTP layer stays a hub
// consumer and never imports the runtime packages.

import (
	"context"
	"fmt"
	"sort"
	"sync"

	"github.com/crowdml/crowdml/internal/core"
)

// ShardedStats is the merged progress view of a sharded logical task:
// iteration is the sum of the member iterations the published merged
// view incorporates, and the estimates are re-derived from the summed
// raw counters (ΣN_s, ΣN_e, ΣN^k_y across shards), so they compose
// exactly as if one leader had served the whole crowd.
type ShardedStats struct {
	// Iteration is the merged iteration counter: the sum of every
	// member's iteration as of the published merged view. Monotonically
	// non-decreasing across merges.
	Iteration int
	// Stopped reports whether EVERY shard has met its stopping criteria —
	// devices stand down only when no shard will accept their checkins.
	Stopped bool
	// ErrorEstimate is ΣN_e/ΣN_s across shards; HasError is false until
	// any shard has samples.
	ErrorEstimate float64
	HasError      bool
	// PriorEstimate is ΣN^k_y/ΣN_s across shards; nil until any samples.
	PriorEstimate []float64
	// Classes, Dim is the (shared) model shape of the member tasks.
	Classes, Dim int
	// Shards is the member count N; MapVersion the shard map version.
	Shards     int
	MapVersion int
}

// ShardHealthRow is one member's row in the logical task's health
// report.
type ShardHealthRow struct {
	// ID is the member task ID (e.g. "activity.shard-2").
	ID string
	// Iteration is the member's live iteration counter.
	Iteration int
	Stopped   bool
	// Ready mirrors the single-task readiness rule: a leader member is
	// always ready; a follower member is ready while tailing/retrying.
	Ready bool
	// MergeLag is how many iterations the member's live counter has
	// advanced past the component the published merged view incorporated
	// — the per-shard staleness of what merged checkouts currently serve.
	MergeLag int
	// ReplicaState is the member's replication state when it is itself a
	// follower replica; "" for leader members.
	ReplicaState string
}

// ShardRouter fronts the member tasks of one sharded logical task. The
// HTTP layer resolves a logical task ID to its router and proxies the
// device protocol through it: writes (checkin, register) go to the
// owning member by hashed device ID, reads (checkout, stats) are served
// from the router's merged view. Implemented by internal/shard.
type ShardRouter interface {
	// LogicalID is the task ID devices address.
	LogicalID() string
	// Info is the logical task's portal metadata (the base info, without
	// any per-shard decoration).
	Info() TaskInfo
	// MemberIDs returns the member task IDs, in shard order.
	MemberIDs() []string
	// MapVersion is the shard-map placement version (see
	// shard.ShardMap).
	MapVersion() int
	// RouteDevice returns the member task ID owning the device.
	RouteDevice(deviceID string) string
	// CheckoutDelta authenticates the device against its owning member
	// and serves the merged model with core.Server.CheckoutDelta's
	// contract: Params aliases the published merged view (lock-free: one
	// atomic load, no copy), plus the change set against since when that
	// base is still retained.
	CheckoutDelta(ctx context.Context, deviceID, token string, since int) (*core.ParamDelta, error)
	// Checkin applies the device's delta on its owning member.
	Checkin(ctx context.Context, deviceID, token string, req *core.CheckinRequest) error
	// Register enrolls the device on its owning member.
	Register(ctx context.Context, deviceID string) (string, error)
	// MergedStats reports the published merged progress view.
	MergedStats() ShardedStats
	// ShardRows reports per-member health (one row per shard).
	ShardRows() []ShardHealthRow
}

// shardIndex is the hub's registry of mounted routers. Guarded by its
// own lock (never held together with a registry-shard lock).
type shardIndex struct {
	mu sync.RWMutex
	// routers maps logical task ID → mounted router.
	routers map[string]ShardRouter
	// memberOf maps member task ID → logical task ID.
	memberOf map[string]string
}

// MountShardRouter publishes a router under its logical task ID, making
// the HTTP layer route /v1/tasks/{logical}/... through it and fold its
// member tasks out of listings and health reports. The logical ID must
// be valid, must not collide with a hosted task (live or being created)
// or another router, and every member must already be hosted here and
// not belong to another router.
func (h *Hub) MountShardRouter(r ShardRouter) error {
	if r == nil {
		return fmt.Errorf("crowdml: MountShardRouter(nil)")
	}
	logical := r.LogicalID()
	if !ValidTaskID(logical) {
		return fmt.Errorf("%q: %w", logical, ErrBadTaskID)
	}
	members := r.MemberIDs()
	if len(members) == 0 {
		return fmt.Errorf("crowdml: router %q has no members", logical)
	}
	if h.taskOrPending(logical) {
		return fmt.Errorf("%q: a hosted task already uses the logical ID: %w", logical, ErrTaskExists)
	}
	for _, m := range members {
		if _, ok := h.Task(m); !ok {
			return fmt.Errorf("router %q: member %q: %w", logical, m, ErrTaskNotFound)
		}
	}
	h.sharded.mu.Lock()
	defer h.sharded.mu.Unlock()
	if _, dup := h.sharded.routers[logical]; dup {
		return fmt.Errorf("%q: a router is already mounted: %w", logical, ErrTaskExists)
	}
	if _, dup := h.sharded.memberOf[logical]; dup {
		return fmt.Errorf("%q: the logical ID is a member of another router: %w", logical, ErrTaskExists)
	}
	for _, m := range members {
		if owner, taken := h.sharded.memberOf[m]; taken {
			return fmt.Errorf("router %q: member %q already belongs to router %q: %w", logical, m, owner, ErrTaskExists)
		}
		if _, isLogical := h.sharded.routers[m]; isLogical {
			return fmt.Errorf("router %q: member %q is another router's logical ID: %w", logical, m, ErrTaskExists)
		}
	}
	if h.sharded.routers == nil {
		h.sharded.routers = make(map[string]ShardRouter)
		h.sharded.memberOf = make(map[string]string)
	}
	h.sharded.routers[logical] = r
	for _, m := range members {
		h.sharded.memberOf[m] = logical
	}
	return nil
}

// UnmountShardRouter removes the router mounted under logical (no-op if
// none is). The member tasks stay hosted; callers closing a whole tier
// close them separately.
func (h *Hub) UnmountShardRouter(logical string) {
	h.sharded.mu.Lock()
	defer h.sharded.mu.Unlock()
	r, ok := h.sharded.routers[logical]
	if !ok {
		return
	}
	delete(h.sharded.routers, logical)
	for _, m := range r.MemberIDs() {
		if h.sharded.memberOf[m] == logical {
			delete(h.sharded.memberOf, m)
		}
	}
}

// ShardRouterFor resolves a logical task ID to its mounted router.
func (h *Hub) ShardRouterFor(taskID string) (ShardRouter, bool) {
	h.sharded.mu.RLock()
	r, ok := h.sharded.routers[taskID]
	h.sharded.mu.RUnlock()
	return r, ok
}

// ShardMemberOf reports the logical task ID a hosted task is a shard
// member of, or false for ordinary tasks. Listings and health reports
// use it to fold member tasks into their logical row.
func (h *Hub) ShardMemberOf(taskID string) (string, bool) {
	h.sharded.mu.RLock()
	logical, ok := h.sharded.memberOf[taskID]
	h.sharded.mu.RUnlock()
	return logical, ok
}

// ShardRouters returns every mounted router, sorted by logical ID (the
// stable order listings and health reports append them in).
func (h *Hub) ShardRouters() []ShardRouter {
	h.sharded.mu.RLock()
	out := make([]ShardRouter, 0, len(h.sharded.routers))
	for _, r := range h.sharded.routers {
		out = append(out, r)
	}
	h.sharded.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].LogicalID() < out[j].LogicalID() })
	return out
}

// taskOrPending reports whether taskID is hosted or reserved by an
// in-flight CreateTask (so a mount cannot slip between reservation and
// registration).
func (h *Hub) taskOrPending(taskID string) bool {
	sh := h.shardFor(taskID)
	sh.mu.RLock()
	_, live := sh.tasks[taskID]
	_, reserving := sh.pending[taskID]
	sh.mu.RUnlock()
	return live || reserving
}

// shardRouterExists reports whether taskID names a mounted router
// (CreateTask's collision check).
func (h *Hub) shardRouterExists(taskID string) bool {
	h.sharded.mu.RLock()
	_, ok := h.sharded.routers[taskID]
	h.sharded.mu.RUnlock()
	return ok
}
