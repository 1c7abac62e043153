package core

import (
	"context"
	"fmt"

	"github.com/crowdml/crowdml/internal/linalg"
)

// ParamView is a zero-copy, read-only view of a server's published
// checkout snapshot: the flattened parameter vector and the iteration it
// was captured at. The slice aliases the immutable snapshot — callers
// must treat it as frozen and copy before mutating. This is the merge
// hook a sharded front-end builds its combined model from: pulling one
// view per shard per merge cycle costs two atomic loads instead of a
// parameter-matrix copy.
type ParamView struct {
	// Params aliases the published immutable snapshot. Read-only.
	Params []float64
	// Version is the iteration counter the snapshot was captured at.
	// Monotonically non-decreasing across successive views of one server.
	Version int
}

// ParamView returns the current published snapshot without copying the
// parameters. Like Checkout's, the view trails the iteration counter only
// while a batch is mid-apply.
func (s *Server) ParamView() ParamView {
	snap := s.snap.Load()
	return ParamView{Params: snap.params, Version: snap.version}
}

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
// The returned slice is freshly allocated; the views are not mutated.
func MergeParamViews(views []ParamView, weights []float64) ([]float64, error) {
	if len(views) == 0 {
		return nil, fmt.Errorf("core: MergeParamViews: no views")
	}
	if len(weights) != len(views) {
		return nil, fmt.Errorf("core: MergeParamViews: %d weights for %d views", len(weights), len(views))
	}
	n := len(views[0].Params)
	total := 0.0
	for i, v := range views {
		if len(v.Params) != n {
			return nil, fmt.Errorf("core: MergeParamViews: view %d has %d params, view 0 has %d", i, len(v.Params), n)
		}
		if weights[i] < 0 {
			return nil, fmt.Errorf("core: MergeParamViews: negative weight %g for view %d", weights[i], i)
		}
		total += weights[i]
	}
	out := make([]float64, n)
	if total == 0 {
		// Uniform average: all shards share the (deterministic) initial
		// parameters before any checkin, so this also preserves them exactly.
		inv := 1.0 / float64(len(views))
		for _, v := range views {
			linalg.Axpy(inv, v.Params, out)
		}
		return out, nil
	}
	for i, v := range views {
		if weights[i] == 0 {
			continue
		}
		linalg.Axpy(weights[i]/total, v.Params, out)
	}
	return out, nil
}
