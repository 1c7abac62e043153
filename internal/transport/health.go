package transport

import (
	"context"
	"fmt"
	"net/http"

	"github.com/crowdml/crowdml/internal/hub"
)

// PathHealthz is the readiness endpoint, served by both roles: a leader
// reports per-task learning progress; a follower additionally reports
// its replication state and lag. 200 means every hosted task is ready to
// serve its role (a follower is ready once it is tailing the leader's
// feed); 503 means at least one is not — a load balancer draining a
// bootstrapping follower reads exactly this.
const PathHealthz = "/v1/healthz"

// HealthTask is one task's row in the healthz report.
type HealthTask struct {
	ID        string `json:"id"`
	Role      string `json:"role"` // "leader" or "follower"
	Iteration int    `json:"iteration"`
	Stopped   bool   `json:"stopped"`
	Ready     bool   `json:"ready"`
	// Follower-only fields.
	ReplicaState string `json:"replicaState,omitempty"`
	LeaderURL    string `json:"leaderUrl,omitempty"`
	// LeaderIteration is the leader's iteration counter as of the last
	// completed feed exchange.
	LeaderIteration int `json:"leaderIteration,omitempty"`
	// ReplicationLag is how many iterations this replica trails the
	// leader; nil when unknown (no feed exchange has completed yet).
	ReplicationLag *int   `json:"replicationLag,omitempty"`
	LastError      string `json:"lastError,omitempty"`
	// Shards holds the per-member rows of a sharded logical task (Role
	// "sharded"); the row itself is ready iff every shard is.
	Shards []ShardHealth `json:"shards,omitempty"`
}

// ShardHealth is one member's row inside a sharded task's health entry
// (field for field hub.ShardHealthRow, which it is converted from).
type ShardHealth struct {
	ID        string `json:"id"`
	Iteration int    `json:"iteration"`
	Stopped   bool   `json:"stopped"`
	Ready     bool   `json:"ready"`
	// MergeLag is how many iterations this shard has advanced past the
	// published merged view — the staleness of what merged checkouts
	// currently serve for this shard's contribution.
	MergeLag int `json:"mergeLag"`
	// ReplicaState is set when the member is itself a follower replica.
	ReplicaState string `json:"replicaState,omitempty"`
}

// HealthResponse is the healthz body: overall status ("ok" or
// "unavailable", mirrored by the 200/503 response status) plus one row
// per hosted task.
type HealthResponse struct {
	Status string       `json:"status"`
	Tasks  []HealthTask `json:"tasks"`
}

// handleHealthz serves GET /v1/healthz: one row per hosted entry, a
// sharded logical task's with one sub-row per member.
func (h *Handler) handleHealthz(w http.ResponseWriter, r *http.Request) {
	hosted := h.hub.Hosted()
	resp := HealthResponse{Status: "ok", Tasks: make([]HealthTask, 0, len(hosted))}
	for _, e := range hosted {
		p := e.Progress()
		row := HealthTask{ID: e.ID(), Role: "leader", Iteration: p.Iteration, Stopped: p.Stopped, Ready: true}
		if e.Router != nil {
			row.Role = "sharded"
			for _, sr := range e.Router.ShardRows() {
				row.Shards = append(row.Shards, ShardHealth(sr))
				row.Ready = row.Ready && sr.Ready
			}
		} else if t := e.Task; t.ReadOnly() {
			var st hub.ReplicaStatus
			row.Ready, st = t.Ready()
			row.Role = "follower"
			row.LeaderURL = t.LeaderURL()
			row.ReplicaState = st.State
			row.LeaderIteration = st.LeaderIteration
			row.LastError = st.LastError
			if lag, ok := t.ReplicationLag(); ok {
				row.ReplicationLag = &lag
			}
		}
		if !row.Ready {
			resp.Status = "unavailable"
		}
		resp.Tasks = append(resp.Tasks, row)
	}
	if resp.Status != "ok" {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	writeJSON(w, resp)
}

// Healthz fetches the server's readiness report. Unlike the other GETs
// it is never retried and accepts the 503 a not-ready server answers
// with — the report itself is the answer; err is non-nil only when no
// report could be obtained at all.
func (c *HTTPClient) Healthz(ctx context.Context) (*HealthResponse, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.baseURL+PathHealthz, nil)
	if err != nil {
		return nil, fmt.Errorf("transport: build healthz: %w", err)
	}
	resp, err := c.client.Do(req)
	if err != nil {
		return nil, fmt.Errorf("transport: healthz: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusServiceUnavailable {
		return nil, fmt.Errorf("transport: healthz returned %d", resp.StatusCode)
	}
	var out HealthResponse
	if err := decodeJSON(resp.Body, &out); err != nil {
		return nil, fmt.Errorf("transport: decode healthz: %w", err)
	}
	return &out, nil
}
