package core

import (
	"context"
	"math"
	"time"
)

// DefaultDeltaHistory is how many recently published snapshots the
// server retains for delta checkouts when ServerConfig.DeltaHistory is
// unset. The ring stores pointers to snapshots that were published
// anyway, so the cost is retained memory (history × vector), not extra
// copies.
const DefaultDeltaHistory = 16

// ParamDelta is the delta-checkout read: everything a wire layer needs
// to answer "give me the parameters, I last saw iteration since". The
// zero-copy Params alias is ALWAYS populated (the full-frame fallback);
// Since >= 0 additionally offers the sparse change set against the
// caller's base, which is usually far smaller on the wire.
type ParamDelta struct {
	// Version is the iteration of the snapshot this delta leads to.
	Version int
	// Done mirrors CheckoutResponse.Done.
	Done bool
	// Params aliases the current published snapshot — read-only, like
	// ParamView.Params. Serve it verbatim when Since < 0.
	Params []float64
	// Since is the base iteration Indices/Values apply against, or -1
	// when no delta could be derived (base too old, ring invalidated by
	// a state restore, or since ahead of the counter) and the full
	// Params must be served instead.
	Since int
	// Indices/Values are the changed coordinates and their NEW absolute
	// values: copy the base, overwrite these, and the result is
	// bit-identical to Params. Empty when nothing changed (the hot
	// polling case). Valid only when Since >= 0.
	Indices []uint32
	Values  []float64
}

// recordSnapshotLocked appends a just-published snapshot to the delta
// ring. Callers hold wMu (the publication path); the ring has its own
// mutex because ParamDelta reads it without wMu. Re-publications of the
// same version replace the tail — published params for one version are
// deterministic, so this is a pointer swap, not a content change.
func (s *Server) recordSnapshotLocked(snap *paramSnapshot) {
	s.ringMu.Lock()
	defer s.ringMu.Unlock()
	if n := len(s.ring); n > 0 && s.ring[n-1].version == snap.version {
		s.ring[n-1] = snap
		return
	}
	if len(s.ring) == s.cfg.DeltaHistory {
		copy(s.ring, s.ring[1:])
		s.ring[len(s.ring)-1] = snap
		return
	}
	s.ring = append(s.ring, snap)
}

// invalidateDeltaRing drops every retained snapshot. Called by
// ImportState: a restore may rewind the iteration counter, after which
// an old client base labeled with the same version number as a
// post-restore snapshot is only trustworthy for bit-exact replay
// lineages — dropping the ring forces full frames until fresh
// snapshots accumulate.
func (s *Server) invalidateDeltaRing() {
	s.ringMu.Lock()
	s.ring = s.ring[:0]
	s.ringMu.Unlock()
}

// ParamDelta derives the checkout delta against the caller's base
// iteration. It is lock-free on the snapshot read (same discipline as
// Checkout) plus one short mutex acquisition on the snapshot ring; when
// the base is found the diff costs one pass over the vector and
// allocates only the changed coordinates. since < 0, a base older than
// the ring, or a base ahead of the counter all degrade to the full
// fallback (Since = -1), never to an error.
func (s *Server) ParamDelta(since int) *ParamDelta {
	snap := s.snap.Load()
	d := &ParamDelta{
		Version: snap.version,
		Done:    s.evalStopped(),
		Params:  snap.params,
		Since:   -1,
	}
	if since < 0 || since > snap.version {
		return d
	}
	if since == snap.version {
		// The caller is current: an empty delta, the cheapest answer the
		// hot polling path can get.
		d.Since = since
		return d
	}
	var base []float64
	s.ringMu.Lock()
	for i := len(s.ring) - 1; i >= 0; i-- {
		if s.ring[i].version == since {
			base = s.ring[i].params
			break
		}
		if s.ring[i].version < since {
			break
		}
	}
	s.ringMu.Unlock()
	if base == nil || len(base) != len(snap.params) {
		return d
	}
	d.Since = since
	d.Indices, d.Values = DiffParams(base, snap.params)
	return d
}

// CheckoutDelta is the delta-aware Checkout: authenticate, then derive
// the delta against since (or the full fallback). It reports through
// the same checkout telemetry as Checkout, so switching wire formats
// does not blind the operator. Unlike Checkout, the returned Params
// alias the published snapshot — the transport encodes them without
// copying; callers must not mutate them.
func (s *Server) CheckoutDelta(ctx context.Context, deviceID, token string, since int) (*ParamDelta, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	var start time.Time
	if s.cfg.Metrics != nil {
		start = time.Now()
	}
	if err := s.authenticate(ctx, deviceID, token); err != nil {
		s.cfg.Metrics.observeCheckout(start, err)
		return nil, err
	}
	d := s.ParamDelta(since)
	s.cfg.Metrics.observeCheckout(start, nil)
	return d, nil
}

// DiffParams computes the sparse change set between two equal-length
// vectors: the coordinates whose bit patterns differ and cur's values
// there. Bit comparison (not ==) so that ±0 transitions survive the
// trip and applying the delta to base reproduces cur exactly. Two
// passes keep the result slices exactly sized.
func DiffParams(base, cur []float64) ([]uint32, []float64) {
	changed := 0
	for i := range cur {
		if math.Float64bits(cur[i]) != math.Float64bits(base[i]) {
			changed++
		}
	}
	indices := make([]uint32, 0, changed)
	values := make([]float64, 0, changed)
	for i := range cur {
		if math.Float64bits(cur[i]) != math.Float64bits(base[i]) {
			indices = append(indices, uint32(i))
			values = append(values, cur[i])
		}
	}
	return indices, values
}
