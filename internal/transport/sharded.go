package transport

import (
	"errors"
	"net/http"
	"sort"

	"github.com/crowdml/crowdml/internal/core"
	"github.com/crowdml/crowdml/internal/hub"
)

// This file is the HTTP face of the sharded leader tier: requests
// addressed to a sharded logical task ID under /v1/tasks/{task}/... are
// proxied through the hub-mounted ShardRouter instead of a single
// task's server. Devices cannot tell a sharded task from a plain one —
// same paths, same payloads, same error protocol; only the stats and
// healthz bodies grow sharding detail.

// router resolves the request's {task} path segment to a mounted shard
// router, when one exists.
func (h *Handler) router(r *http.Request) (hub.ShardRouter, bool) {
	return h.hub.ShardRouterFor(r.PathValue("task"))
}

// shardOwner is the hosted member task that owns the device in a
// sharded tier, nil when the hub does not host the member the router
// names.
func (h *Handler) shardOwner(rt hub.ShardRouter, deviceID string) *hub.Task {
	t, _ := h.hub.Task(rt.RouteDevice(deviceID))
	return t
}

// shardedStats serves the logical task's merged progress view.
func (h *Handler) shardedStats(w http.ResponseWriter, rt hub.ShardRouter) {
	s := rt.MergedStats()
	resp := StatsResponse{
		TaskID:    rt.LogicalID(),
		Iteration: s.Iteration,
		Stopped:   s.Stopped,
		Shards:    s.Shards,
	}
	if s.HasError {
		est := s.ErrorEstimate
		resp.ErrorEstimate = &est
		resp.PriorEstimate = s.PriorEstimate
	}
	writeJSON(w, resp)
}

// shardedSummaries appends one listing row per mounted router and sorts
// the listing back into ID order. Member tasks are folded out by the
// caller; the crowd sees the logical task only.
func (h *Handler) shardedSummaries(out []TaskSummary) []TaskSummary {
	for _, rt := range h.hub.ShardRouters() {
		info := rt.Info()
		s := rt.MergedStats()
		sum := TaskSummary{
			ID:        rt.LogicalID(),
			Name:      info.Name,
			Algorithm: info.Algorithm,
			Labels:    info.Labels,
			Classes:   s.Classes,
			Dim:       s.Dim,
			Iteration: s.Iteration,
			Stopped:   s.Stopped,
			Shards:    s.Shards,
		}
		if s.HasError {
			est := s.ErrorEstimate
			sum.ErrorEstimate = &est
		}
		out = append(out, sum)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// shardedHealthRow builds the healthz row of one sharded logical task:
// ready iff every shard is ready, with one sub-row per member.
func shardedHealthRow(rt hub.ShardRouter) HealthTask {
	s := rt.MergedStats()
	row := HealthTask{
		ID:        rt.LogicalID(),
		Role:      "sharded",
		Iteration: s.Iteration,
		Stopped:   s.Stopped,
		Ready:     true,
	}
	for _, sr := range rt.ShardRows() {
		row.Shards = append(row.Shards, ShardHealth{
			ID:           sr.ID,
			Iteration:    sr.Iteration,
			Stopped:      sr.Stopped,
			Ready:        sr.Ready,
			MergeLag:     sr.MergeLag,
			ReplicaState: sr.ReplicaState,
		})
		if !sr.Ready {
			row.Ready = false
		}
	}
	return row
}

// LeaderHintError is the client-side image of a 409 rejection that
// carried an X-Crowdml-Leader hint: the write landed on a read-only
// follower (standalone, or the follower member owning the device in a
// sharded tier) and Leader names the base URL to retry against. It
// unwraps to both ErrReadOnlyReplica and core.ErrStopped, so existing
// device loops that stand down on ErrStopped keep doing so while
// hint-aware callers redirect.
type LeaderHintError struct {
	// Leader is the hinted leader base URL.
	Leader string
	msg    string
}

func (e *LeaderHintError) Error() string { return e.msg }

// Unwrap makes errors.Is(err, ErrReadOnlyReplica) and
// errors.Is(err, core.ErrStopped) both true.
func (e *LeaderHintError) Unwrap() []error {
	return []error{ErrReadOnlyReplica, core.ErrStopped}
}

// LeaderHint extracts the leader base URL from an error returned by an
// HTTPClient write, when the server supplied one.
func LeaderHint(err error) (string, bool) {
	var lh *LeaderHintError
	if errors.As(err, &lh) && lh.Leader != "" {
		return lh.Leader, true
	}
	return "", false
}
