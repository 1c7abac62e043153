package core

import (
	"context"
	"math"
	"sync"
	"time"
)

// DefaultDeltaHistory is how many recently published snapshots a
// SnapshotRing retains when asked for fewer than one (a server's
// ServerConfig.DeltaHistory left unset, a shard group). The ring stores
// aliases of snapshots that were published anyway, so the cost is
// retained memory (history × vector), not extra copies.
const DefaultDeltaHistory = 16

// ParamDelta is the delta-checkout read: everything a wire layer needs
// to answer "give me the parameters, I last saw iteration since". The
// zero-copy Params alias is ALWAYS populated (the full-frame fallback);
// Since >= 0 additionally says the caller's base is known, so the change
// set against it — usually far smaller on the wire — may be sent instead.
type ParamDelta struct {
	// Version is the iteration of the snapshot this delta leads to.
	Version int
	// Done mirrors CheckoutResponse.Done.
	Done bool
	// Params aliases the current published snapshot — read-only, like
	// ParamView.Params. Serve it verbatim when Since < 0.
	Params []float64
	// Since is the caller's base iteration, or -1 when no delta can be
	// derived (base too old, ring reset by a state restore, or since
	// ahead of the counter) and the full Params must be served instead.
	Since int
	// Base aliases the retained snapshot of iteration Since — read-only.
	// The change set is DiffParamsInto(…, Base, Params): copy the base,
	// overwrite those coordinates, and the result is bit-identical to
	// Params. Nil when Since < 0, and when Since == Version: the caller is
	// current and nothing changed (the hot polling case).
	Base []float64
}

// SnapshotRing retains the last few published parameter snapshots, by
// alias, so a delta checkout can be derived against the iteration a
// client says it holds. A plain task's Server and a sharded task's
// shard.Group each record every snapshot they publish into one. Its
// mutex is a leaf: publishers take it after their own publication lock,
// readers take it alone.
type SnapshotRing struct {
	mu      sync.Mutex
	history int
	entries []ringEntry // ascending versions
}

type ringEntry struct {
	version int
	params  []float64 // immutable
}

// NewSnapshotRing returns a ring retaining history snapshots
// (DefaultDeltaHistory when history < 1).
func NewSnapshotRing(history int) *SnapshotRing {
	if history < 1 {
		history = DefaultDeltaHistory
	}
	return &SnapshotRing{history: history}
}

// Record retains a just-published snapshot; params must never change
// afterwards. Publishing the tail's version again replaces the tail — a
// publisher's parameters for one version are deterministic, so that is
// an alias swap, not a content change. A version behind the tail means
// the publisher's counter was rewound (a sharded member restored older
// state): every retained base is dropped, because its version number may
// be issued again for different parameters.
func (r *SnapshotRing) Record(version int, params []float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	e := ringEntry{version, params}
	n := len(r.entries)
	switch {
	case n > 0 && r.entries[n-1].version == version:
		r.entries[n-1] = e
	case n > 0 && r.entries[n-1].version > version:
		r.entries = append(r.entries[:0], e)
	case n == r.history:
		copy(r.entries, r.entries[1:])
		r.entries[n-1] = e
	default:
		r.entries = append(r.entries, e)
	}
}

// Reset drops every retained snapshot. Server.ImportState calls it: a
// restore replaces the parameters under a version number clients may
// already hold a base for, so only dropping the ring — full frames until
// fresh snapshots accumulate — keeps version numbers trustworthy.
func (r *SnapshotRing) Reset() {
	r.mu.Lock()
	r.entries = r.entries[:0]
	r.mu.Unlock()
}

// Delta derives the checkout read of the current snapshot (cur at
// version) against the caller's base iteration. It costs one short
// mutex acquisition and copies nothing; computing the change set is the
// wire layer's, into its own scratch. since < 0, a base ahead of version,
// a base the ring no longer (or never) held, and a base of another
// length all degrade to the full fallback (Since = -1), never an error.
func (r *SnapshotRing) Delta(cur []float64, version int, done bool, since int) *ParamDelta {
	d := &ParamDelta{Version: version, Done: done, Params: cur, Since: -1}
	if since < 0 || since > version {
		return d
	}
	if since == version {
		d.Since = since
		return d
	}
	var base []float64
	r.mu.Lock()
	for i := len(r.entries) - 1; i >= 0 && r.entries[i].version >= since; i-- {
		if r.entries[i].version == since {
			base = r.entries[i].params
			break
		}
	}
	r.mu.Unlock()
	if base != nil && len(base) == len(cur) {
		d.Since, d.Base = since, base
	}
	return d
}

// ParamDelta derives the delta read against the caller's base iteration
// from the published snapshot: lock-free on the snapshot (same
// discipline as Checkout) plus the ring's lookup.
func (s *Server) ParamDelta(since int) *ParamDelta {
	snap := s.snap.Load()
	return s.ring.Delta(snap.params, snap.version, s.evalStopped(), since)
}

// CheckoutDelta is the delta-aware Checkout: authenticate, then derive
// the delta against since (or the full fallback). It reports through
// the same checkout telemetry as Checkout, so switching wire formats
// does not blind the operator. Unlike Checkout, the returned Params and
// Base alias published snapshots — the transport encodes them without
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

// DiffParamsInto appends the sparse change set between two equal-length
// vectors to idx and vals — the coordinates whose bit patterns differ
// and cur's values there — and returns the extended slices; pass
// recycled slices resliced to [:0] and a diff allocates nothing once
// they have grown. Bit comparison (not ==) so that ±0 transitions and
// NaN payloads survive the trip and applying the delta to base
// reproduces cur exactly.
func DiffParamsInto(idx []uint32, vals []float64, base, cur []float64) ([]uint32, []float64) {
	for i, v := range cur {
		if math.Float64bits(v) != math.Float64bits(base[i]) {
			idx = append(idx, uint32(i))
			vals = append(vals, v)
		}
	}
	return idx, vals
}
