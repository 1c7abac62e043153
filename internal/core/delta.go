package core

import (
	"context"
	"sync"
	"sync/atomic"
)

// DefaultDeltaHistory is how many recent publications a SnapshotRing
// (a server's, or a shard group's) can answer a delta checkout against:
// the ceiling on the vectors it retains. It keeps only the bases its
// clients ask for (see SnapshotRing), so the cost is retained memory (up
// to history × vector); publishing copies into a vector the ring has
// retired, so steady state allocates nothing. A base older than history
// publications falls back to a full checkout.
const DefaultDeltaHistory = 16

// maxSpareSnapshots bounds the ring's free list. One spare is what a
// publisher without readers cycles through (evict one, take one); the
// second absorbs a reader that held the evicted snapshot a little longer.
const maxSpareSnapshots = 2

// ParamDelta is the delta-checkout read: everything a wire layer needs
// to answer "give me the parameters, I last saw iteration since". The
// zero-copy Params is ALWAYS populated (the full-frame fallback);
// Since >= 0 additionally says the caller's base is known, so the change
// set against it — usually far smaller on the wire — may be sent instead.
//
// Params and Base are the ring's own vectors, pinned for this read: they
// are read-only and valid until Release, which lets the ring reuse their
// memory for a later publication. Forgetting Release is safe — the
// vectors are then garbage-collected and the publisher allocates one —
// reading them after Release is not. A delta is a value, so a checkout
// allocates none; copies share its pins, so exactly one of them is
// released, once.
type ParamDelta struct {
	// Version is the iteration of the snapshot this delta leads to.
	Version int
	// Done mirrors CheckoutResponse.Done.
	Done bool
	// Params is the pinned current snapshot — read-only, like
	// ParamView.Params. Serve it verbatim when Since < 0.
	Params []float64
	// Since is the caller's base iteration, or -1 when no delta can be
	// derived (base too old, ring reset by a state restore, or since
	// ahead of the counter) and the full Params must be served instead.
	Since int
	// Base is the pinned retained snapshot of iteration Since — read-only:
	// what the wire layer encodes the change to Params against. Nil when
	// Since < 0, and when Since == Version: the caller is current and
	// nothing changed (the hot polling case).
	Base []float64

	cur, base *snapshot // the pins behind Params and Base
}

// Release unpins Params and Base, which must not be read afterwards.
// Calling it again is a no-op.
func (d *ParamDelta) Release() {
	d.cur.unpin()
	d.base.unpin()
	d.cur, d.base, d.Params, d.Base = nil, nil, nil, nil
}

// snapshot is one parameter vector owned by a SnapshotRing. Its life:
// filled (pins == 0, reachable only by the publisher) → published (the
// ring holds one pin while it is current or retained as a delta base,
// each reader one more) → retired when the last pin goes → recycled as
// the vector a later publication fills.
type snapshot struct {
	// pins is zero exactly while no reader may look: a reader pins with a
	// CAS that refuses zero, and the publisher writes version and params
	// only then, so whoever holds a pin sees both fully written.
	pins    atomic.Int64
	ring    *SnapshotRing
	version int
	params  []float64
}

// tryPin takes a reader's pin unless the snapshot is retired.
func (s *snapshot) tryPin() bool {
	for n := s.pins.Load(); n > 0; n = s.pins.Load() {
		if s.pins.CompareAndSwap(n, n+1) {
			return true
		}
	}
	return false
}

// unpin drops one reader's pin; the last one out hands the vector back
// to the ring. Nil-safe, so releasing a view that pinned nothing is free.
func (s *snapshot) unpin() {
	if s != nil && s.pins.Add(-1) == 0 {
		s.ring.mu.Lock()
		s.ring.recycleLocked(s)
		s.ring.mu.Unlock()
	}
}

// SnapshotRing publishes parameter snapshots and owns their memory: the
// current one, the recent ones its clients ask for as delta bases, and a
// short free list of retired vectors the next publication is copied
// into. A plain task's Server and a sharded task's shard.Group each
// publish through one. Readers pin the current snapshot lock-free; the
// mutex (a leaf: publishers take it after their own publication lock,
// readers alone) covers the retained bases and the free list. Publish
// once before the first read.
//
// The ring remembers the versions of its last DefaultDeltaHistory
// publications (its history) but keeps the vectors of only the keep most
// recent bases. A base's depth is counted in publications, so a batch
// that jumps the version is one. keep starts at history−1; at the end of
// every history publications it becomes the deepest base any checkout
// named in them (a current poll is depth 0), and a window in which none
// was named leaves it alone. A miss on a base the ring published within
// history but no longer kept raises keep to that depth at once, so the
// next such ask finds it.
type SnapshotRing struct {
	cur atomic.Pointer[snapshot]
	// version is cur's, for reads that need no parameters and so take no
	// pin. Stored after cur: whoever sees version v can pin v or newer.
	version atomic.Int64
	// deepest is the deepest base, in publications, a checkout named in
	// the current window; -1 until one does. A current poll raises it to 0
	// without the mutex, deeper asks under it.
	deepest atomic.Int64

	mu       sync.Mutex
	versions []int       // the last history publications' versions, ascending; the tail is cur's
	entries  []*snapshot // the last keep+1 publications, the tail is cur; one pin each
	keep     int         // bases retained beside cur: 0 ≤ keep < history
	window   int         // publications since the window began
	free     []*snapshot // retired, pins == 0; at most maxSpareSnapshots

	m *RingMetrics
	// beforePin, when a test sets it, runs between loading cur and
	// pinning it — the window in which the pointer can go stale.
	beforePin func()
}

// NewSnapshotRing returns a ring answering deltas against its last
// DefaultDeltaHistory publications, counting into metrics (nil: off).
func NewSnapshotRing(metrics *RingMetrics) *SnapshotRing {
	if metrics == nil {
		metrics = NewRingMetrics(nil, "")
	}
	r := &SnapshotRing{keep: DefaultDeltaHistory - 1,
		versions: make([]int, 0, DefaultDeltaHistory), free: make([]*snapshot, 0, maxSpareSnapshots), m: metrics}
	r.deepest.Store(-1)
	return r
}

// Publish makes a vector of n parameters, written by fill, the current
// snapshot at version. The vector is a retired one when the free list
// has any — fill must write every element — and a fresh allocation
// otherwise. If fill fails nothing is published and its error returned.
//
// Publishing the tail's version again replaces the tail: a publisher's
// parameters for one version are deterministic, so that swaps vectors,
// not content. A version behind the tail means the publisher's counter
// was rewound (a sharded member restored older state): every retained
// base is dropped, because its version number may be issued again for
// different parameters.
func (r *SnapshotRing) Publish(version, n int, fill func(dst []float64) error) error {
	r.mu.Lock()
	var s *snapshot
	if k := len(r.free) - 1; k >= 0 {
		s, r.free[k] = r.free[k], nil
		r.free = r.free[:k]
	}
	r.mu.Unlock()
	published := r.m.recycled
	if s == nil || len(s.params) != n {
		s = &snapshot{ring: r, params: make([]float64, n)}
		published = r.m.allocated
	}
	if err := fill(s.params); err != nil {
		r.mu.Lock()
		r.recycleLocked(s)
		r.mu.Unlock()
		return err
	}
	s.version = version
	s.pins.Store(1) // the ring's own
	published.Inc()

	r.mu.Lock()
	defer r.mu.Unlock()
	// cur moves first, so a reader that finds the old one retired below
	// reloads the new one instead of spinning.
	r.cur.Store(s)
	r.version.Store(int64(version))
	switch k := len(r.entries); {
	case k > 0 && r.entries[k-1].version == version:
		r.dropLocked(k-1, k)
	case k > 0 && r.entries[k-1].version > version:
		r.dropLocked(0, k)
		r.versions = r.versions[:0]
		r.countLocked(version)
	default:
		r.countLocked(version)
	}
	r.entries = append(r.entries, s)
	if excess := len(r.entries) - r.keep - 1; excess > 0 {
		r.dropLocked(0, excess)
	}
	r.m.bases.Set(float64(len(r.entries) - 1))
	return nil
}

// countLocked records a new publication's version and, at the end of a
// window, sets keep to the deepest base named in it, if any was.
func (r *SnapshotRing) countLocked(version int) {
	if len(r.versions) == DefaultDeltaHistory {
		r.versions = r.versions[:copy(r.versions, r.versions[1:])]
	}
	r.versions = append(r.versions, version)
	if r.window++; r.window == DefaultDeltaHistory {
		r.window = 0
		if d := r.deepest.Swap(-1); d >= 0 {
			r.keep = int(d)
		}
	}
}

// depthLocked returns how many publications ago version was published,
// or -1 when it is not one of the last history publications.
func (r *SnapshotRing) depthLocked(version int) int {
	last := len(r.versions) - 1
	for i := last; i >= 0 && r.versions[i] >= version; i-- {
		if r.versions[i] == version {
			return last - i
		}
	}
	return -1
}

// PublishCopy publishes a copy of params at version.
func (r *SnapshotRing) PublishCopy(version int, params []float64) {
	// A copy cannot fail, so neither can Publish.
	_ = r.Publish(version, len(params), func(dst []float64) error {
		copy(dst, params)
		return nil
	})
}

// dropLocked removes entries[lo:hi] from the ring — eviction, the
// same-version tail swap, a rewind, Reset — giving up the ring's pin on
// each and clearing the vacated slots, so a dropped vector is reachable
// from its readers and the free list only.
func (r *SnapshotRing) dropLocked(lo, hi int) {
	for _, s := range r.entries[lo:hi] {
		if s.pins.Add(-1) == 0 {
			r.recycleLocked(s)
		}
	}
	k := lo + copy(r.entries[lo:], r.entries[hi:])
	clear(r.entries[k:])
	r.entries = r.entries[:k]
}

// recycleLocked keeps a retired snapshot for the next Publish; past
// maxSpareSnapshots it is left to the garbage collector.
func (r *SnapshotRing) recycleLocked(s *snapshot) {
	if len(r.free) < cap(r.free) {
		r.free = append(r.free, s)
	}
}

// Reset drops every retained base, keeping only the current snapshot.
// Server.ImportState calls it after republishing: a restore replaces the
// parameters under version numbers clients may already hold a base for,
// so only dropping the bases — full frames until fresh snapshots
// accumulate — keeps version numbers trustworthy.
func (r *SnapshotRing) Reset() {
	r.mu.Lock()
	if k := len(r.entries); k > 1 {
		r.dropLocked(0, k-1)
	}
	if k := len(r.versions); k > 1 {
		r.versions = r.versions[:copy(r.versions, r.versions[k-1:])]
	}
	r.m.bases.Set(float64(len(r.entries) - 1))
	r.mu.Unlock()
}

// Version returns the current snapshot's version without pinning it.
func (r *SnapshotRing) Version() int { return int(r.version.Load()) }

// pinCurrent pins the current snapshot: one CAS. A pointer that went
// stale between the load and the CAS is either retired (pins == 0:
// reload) or already recycled and republished — then the pin lands on a
// newer, fully written snapshot, which read-your-writes permits: its
// version is at or past the one the stale pointer named.
func (r *SnapshotRing) pinCurrent() *snapshot {
	for {
		s := r.cur.Load()
		if r.beforePin != nil {
			r.beforePin()
		}
		if s.tryPin() {
			return s
		}
	}
}

// View pins the current snapshot and returns it without copying.
func (r *SnapshotRing) View() ParamView {
	s := r.pinCurrent()
	return ParamView{Params: s.params, Version: s.version, pin: s}
}

// Delta derives the checkout read of the current snapshot against the
// caller's base iteration. It costs a pin and, for a caller that is
// behind, one short mutex acquisition, and copies nothing; computing the
// change set is the wire layer's, into its own scratch. since < 0 asks
// for the full vector; a base ahead of the current version, a base the
// ring no longer (or never) held, and a base of another length all
// degrade to the full fallback (Since = -1), never an error. Every base
// named counts toward the depth the ring keeps.
func (r *SnapshotRing) Delta(since int, done bool) ParamDelta {
	cur := r.pinCurrent()
	d := ParamDelta{Version: cur.version, Done: done, Params: cur.params, Since: -1, cur: cur}
	if since < 0 {
		return d
	}
	outcome := deltaFullFallback
	switch {
	case since == cur.version:
		d.Since, outcome = since, deltaCurrent
		if r.deepest.Load() < 0 {
			r.deepest.CompareAndSwap(-1, 0)
		}
	case since < cur.version:
		r.mu.Lock()
		if depth := r.depthLocked(since); depth >= 0 {
			if int64(depth) > r.deepest.Load() {
				r.deepest.Store(int64(depth))
			}
			if k := len(r.entries) - 1 - depth; k >= 0 {
				if e := r.entries[k]; e.version == since && len(e.params) == len(cur.params) {
					e.pins.Add(1) // cannot be retired: the ring's pin is held under mu
					d.Since, d.Base, d.base, outcome = since, e.params, e, deltaServed
				}
			} else {
				r.keep = max(r.keep, depth)
				r.m.unkept.Inc()
			}
		}
		r.mu.Unlock()
	}
	r.m.outcomes[outcome].Inc()
	return d
}

// ParamDelta derives the delta read against the caller's base iteration
// from the published snapshot: lock-free on the snapshot (same
// discipline as Checkout) plus the ring's lookup. Release it when done.
func (s *Server) ParamDelta(since int) ParamDelta {
	return s.ring.Delta(since, s.Stopped())
}

// CheckoutDelta is the delta-aware Checkout: authenticate, then derive
// the delta against since (or the full fallback). It reports through
// the same checkout telemetry as Checkout, so switching wire formats
// does not blind the operator. Unlike Checkout, the returned Params and
// Base are the ring's pinned snapshots — the transport encodes them
// without copying and then calls Release; callers must not mutate them.
func (s *Server) CheckoutDelta(ctx context.Context, deviceID, token string, since int) (ParamDelta, error) {
	start, authed, err := s.authCheckout(ctx, deviceID, token)
	if err != nil {
		return ParamDelta{}, err
	}
	d := s.ParamDelta(since)
	s.cfg.Metrics.observeCheckout(start, authed, nil)
	return d, nil
}
