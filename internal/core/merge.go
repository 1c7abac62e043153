package core

import (
	"context"
	"fmt"

	"github.com/crowdml/crowdml/internal/linalg"
)

// ParamView is a zero-copy, read-only view of a server's published
// checkout snapshot: the flattened parameter vector and the iteration it
// was captured at. The slice is the ring's own vector, pinned for this
// view — callers must treat it as frozen, copy before mutating, and not
// read it after Release. This is the merge hook a sharded front-end
// builds its combined model from: pulling one view per shard per merge
// cycle costs a pin instead of a parameter-matrix copy.
type ParamView struct {
	// Params is the pinned published snapshot. Read-only.
	Params []float64
	// Version is the iteration counter the snapshot was captured at.
	// Monotonically non-decreasing across successive views of one server.
	Version int

	pin *snapshot
}

// Release unpins Params, which must not be read afterwards, so the ring
// may reuse the vector once it has left the delta history. Calling it
// again is a no-op, and a view that is never released costs the ring one
// allocation, nothing else. A copy of the view shares its one pin.
func (v *ParamView) Release() {
	v.pin.unpin()
	v.pin, v.Params = nil, nil
}

// ParamView returns the current published snapshot without copying the
// parameters. Like Checkout's, the view trails the iteration counter only
// while a batch is mid-apply.
func (s *Server) ParamView() ParamView { return s.ring.View() }

// Authenticate verifies a device's credentials without serving any
// learning state — the entry point a routing front-end uses to
// authenticate a checkout it will answer from a merged cross-shard view
// rather than from this server's own snapshot. The AuthFallback (if
// configured) applies exactly as it does for Checkout, including the
// one-time provisioning of vouched credentials.
func (s *Server) Authenticate(ctx context.Context, deviceID, token string) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	return s.authenticate(ctx, deviceID, token)
}

// CrowdTotals returns the raw crowd-wide counters behind the Eq. (14)
// estimates — ΣN_s, ΣN_e and ΣN^k_y — read lock-free from the atomic
// counters. A front-end aggregating several shards sums these and
// re-derives the ratios itself, which composes exactly (a mean of
// per-shard ratios would weight small shards the same as large ones).
func (s *Server) CrowdTotals() (samples, errs int64, labels []int64) {
	labels = make([]int64, len(s.totalNky))
	for k := range s.totalNky {
		labels[k] = s.totalNky[k].Load()
	}
	return s.totalNs.Load(), s.totalNe.Load(), labels
}

// MergeParamViews combines per-shard parameter snapshots into a single
// model by weighted averaging — the paper-style model averaging a
// sharded leader tier serves merged checkouts from. weights[i] scales
// views[i]; a shard that has applied more checkins should carry
// proportionally more weight (pass its snapshot Version). When every
// weight is zero (no shard has progressed yet) the views are averaged
// uniformly, so a brand-new tier still serves its common initial model.
// The average is written over out — the caller's vector, typically the
// one a SnapshotRing.Publish hands its fill — whose previous contents
// are ignored; the views are not mutated.
func MergeParamViews(out []float64, views []ParamView, weights []float64) error {
	if len(views) == 0 {
		return fmt.Errorf("core: MergeParamViews: no views")
	}
	if len(weights) != len(views) {
		return fmt.Errorf("core: MergeParamViews: %d weights for %d views", len(weights), len(views))
	}
	total := 0.0
	for i, v := range views {
		if len(v.Params) != len(out) {
			return fmt.Errorf("core: MergeParamViews: view %d has %d params, want %d", i, len(v.Params), len(out))
		}
		if weights[i] < 0 {
			return fmt.Errorf("core: MergeParamViews: negative weight %g for view %d", weights[i], i)
		}
		total += weights[i]
	}
	clear(out)
	if total == 0 {
		// Uniform average: all shards share the (deterministic) initial
		// parameters before any checkin, so this also preserves them exactly.
		inv := 1.0 / float64(len(views))
		for _, v := range views {
			linalg.Axpy(inv, v.Params, out)
		}
		return nil
	}
	for i, v := range views {
		if weights[i] == 0 {
			continue
		}
		linalg.Axpy(weights[i]/total, v.Params, out)
	}
	return nil
}
