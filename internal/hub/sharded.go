package hub

// This file is the hub-side registry half of the sharded leader tier
// (internal/shard implements the other half). A ShardRouter fronts N
// ordinary member tasks — each a full leader with its own
// WAL/checkpoint/replication lineage — as ONE logical task ID. The hub
// only indexes routers and answers membership queries; the routing,
// merging and telemetry live in the implementation. Like the replica
// status a follower's runtime publishes onto its task (replica.go), this
// keeps the HTTP layer a hub consumer that never imports the runtime
// packages.

import (
	"context"
	"fmt"

	"github.com/crowdml/crowdml/internal/core"
)

// ShardHealthRow is one member's row in the logical task's health
// report.
type ShardHealthRow struct {
	// ID is the member task ID (e.g. "activity.shard-2").
	ID string
	// Iteration is the member's live iteration counter.
	Iteration int
	Stopped   bool
	// Ready is the member's Task.Ready verdict.
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
	// Owner returns the member task owning the device.
	Owner(deviceID string) *Task
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
	MergedStats() Progress
	// ShardRows reports per-member health (one row per shard).
	ShardRows() []ShardHealthRow
}

// MountShardRouter publishes a router under its logical task ID, making
// Resolve answer the ID with the router and Hosted fold its member tasks
// into one logical entry. The logical ID must be valid, must not collide
// with a hosted task (live or being created) or another router, and
// every member must already be hosted here and not belong to another
// router.
func (h *Hub) MountShardRouter(r ShardRouter) error {
	if r == nil {
		return fmt.Errorf("crowdml: MountShardRouter(nil)")
	}
	// The router is caller-supplied code: ask it everything before taking
	// the lock.
	logical, members := r.LogicalID(), r.MemberIDs()
	if !ValidTaskID(logical) {
		return fmt.Errorf("%q: %w", logical, ErrBadTaskID)
	}
	if len(members) == 0 {
		return fmt.Errorf("crowdml: router %q has no members", logical)
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.takenLocked(logical) {
		return fmt.Errorf("%q: a hosted task already uses the logical ID: %w", logical, ErrTaskExists)
	}
	if _, dup := h.routers[logical]; dup {
		return fmt.Errorf("%q: a router is already mounted: %w", logical, ErrTaskExists)
	}
	if _, dup := h.memberOf[logical]; dup {
		return fmt.Errorf("%q: the logical ID is a member of another router: %w", logical, ErrTaskExists)
	}
	for _, m := range members {
		if _, ok := h.tasks[m]; !ok {
			return fmt.Errorf("router %q: member %q: %w", logical, m, ErrTaskNotFound)
		}
		if owner, taken := h.memberOf[m]; taken {
			return fmt.Errorf("router %q: member %q already belongs to router %q: %w", logical, m, owner, ErrTaskExists)
		}
		if _, isLogical := h.routers[m]; isLogical {
			return fmt.Errorf("router %q: member %q is another router's logical ID: %w", logical, m, ErrTaskExists)
		}
	}
	h.routers[logical] = r
	for _, m := range members {
		h.memberOf[m] = logical
	}
	return nil
}

// UnmountShardRouter removes the router mounted under logical (no-op if
// none is). The member tasks stay hosted; callers closing a whole tier
// close them separately.
func (h *Hub) UnmountShardRouter(logical string) {
	h.mu.Lock()
	defer h.mu.Unlock()
	delete(h.routers, logical)
	for m, owner := range h.memberOf {
		if owner == logical {
			delete(h.memberOf, m)
		}
	}
}
