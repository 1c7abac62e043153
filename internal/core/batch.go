package core

import (
	"context"
	"sync/atomic"

	"github.com/crowdml/crowdml/internal/linalg"
)

// pendingCheckin is one validated, authenticated checkin on its way
// through the batched applier. done is allocated (buffered, capacity 1)
// only when the checkin takes the queued slow path; a fast-path checkin
// is applied directly by its own goroutine and never needs it.
type pendingCheckin struct {
	ctx      context.Context
	deviceID string
	req      *CheckinRequest
	grad     *linalg.Matrix
	done     chan error

	// iteration is the t assigned at apply time, for the OnCheckin hook.
	iteration int

	// abandoned is set when this item's own Checkin call is unwinding
	// from a leader panic while the item is still queued: its caller has
	// already observed a failure, so a later leader must not apply the
	// delta behind its back (the device will retry the whole checkin).
	abandoned atomic.Bool
}

// submit runs p through leader-based group commit and blocks until it has
// been applied (or rejected by the stopping rule).
//
// Fast path: when no batch leader is active, the caller becomes one
// immediately and applies its own delta — plus anything already queued —
// without touching the queue. Uncontended checkins therefore cost one
// semaphore acquire on top of the raw update.
//
// Slow path: with a leader active, the caller enqueues into the bounded
// queue (blocking for backpressure if it is full) and then either waits
// for a leader to apply its item or becomes the next leader itself.
//
// Invariant: an item removed from the queue has its done channel
// signalled before the removing leader releases leaderSem. So a caller
// holding leadership whose own item is not done can rely on that item
// still being in the queue.
func (s *Server) submit(ctx context.Context, p *pendingCheckin) error {
	select {
	case s.leaderSem <- struct{}{}:
		// Release via defer: a panic in a user-supplied Updater or hook
		// must not wedge the applier (the old per-checkin mutex was
		// likewise defer-released).
		return func() error {
			defer func() { <-s.leaderSem }()
			return s.leadFast(p)
		}()
	default:
	}

	p.done = make(chan error, 1)
	select {
	case s.queue <- p:
	default:
		// Queue full: apply backpressure, bailing out if the caller's
		// context dies first.
		select {
		case s.queue <- p:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	for {
		select {
		case err := <-p.done:
			return err
		case s.leaderSem <- struct{}{}:
			err, applied := func() (error, bool) {
				defer func() { <-s.leaderSem }()
				// A panic while leading someone else's batch unwinds out
				// of this Checkin call even though p may still be queued;
				// mark p abandoned (before leadership is released — defers
				// run LIFO) so no later leader applies it after its caller
				// already saw the failure.
				defer func() {
					if r := recover(); r != nil {
						p.abandoned.Store(true)
						panic(r)
					}
				}()
				return s.lead(p)
			}()
			if applied {
				return err
			}
			// p was drained and signalled by a previous leader; the next
			// loop iteration collects the buffered result.
		}
	}
}

// leadFast applies own (first) plus any queued backlog as one batch.
// Caller holds leaderSem.
func (s *Server) leadFast(own *pendingCheckin) error {
	return s.applyBatch(s.drainInto(append(s.batch[:0], own)))
}

// lead runs the caller as batch leader until its own item has been
// applied or the queue is empty (meaning a previous leader already
// handled it — see the invariant on submit). Returns (result, true) when
// own's result was observed. Caller holds leaderSem.
func (s *Server) lead(own *pendingCheckin) (error, bool) {
	for {
		select {
		case err := <-own.done:
			return err, true
		default:
		}
		batch := s.drainInto(s.batch[:0])
		if len(batch) == 0 {
			return nil, false
		}
		s.applyBatch(batch)
	}
}

// drainInto collects pending checkins into batch, up to maxBatch total,
// without blocking: deltas never wait on a timer, because every pending
// checkin has a caller ready to become the next leader.
func (s *Server) drainInto(batch []*pendingCheckin) []*pendingCheckin {
	for len(batch) < s.maxBatch {
		select {
		case p := <-s.queue:
			batch = append(batch, p)
		default:
			return batch
		}
	}
	return batch
}

// applyBatch applies a group of checkins under one acquisition of the
// parameter lock, then — outside the critical section — runs the
// OnCheckin hooks in iteration order. It returns the first item's result
// (leadFast's own). The checkout snapshot is republished
// once per batch, inside the critical section (see applyBatchLocked), so
// the parameter copy is amortized over the batch and no acknowledged
// checkin is ever invisible to a later checkout.
//
// Algorithm 2 semantics are preserved delta by delta: each checkin gets
// its own iteration number t, its own η(t) update step, its own staleness
// measurement against the pre-update counter, and its own evaluation of
// the stopping rule (a checkin later in the batch observes the stop
// tripped by an earlier one and is rejected, exactly as if it had lost a
// per-checkin lock race).
// applyBatch also delivers each queued waiter's result on its done
// channel (fast-path leaders have no channel and read the return value
// directly); delivery is guaranteed even when a callback panics, so
// waiters never hang on a dead leader. The hook invariant is likewise
// unconditional: every applied (hence acknowledged-as-success) checkin
// gets its OnCheckin call even when the Updater panicked later in the
// batch — a write-ahead journal hook that missed an acknowledged
// iteration would leave an unrecoverable gap in the log.
func (s *Server) applyBatch(batch []*pendingCheckin) error {
	s.cfg.Metrics.observeBatch(len(batch))
	// batch and results are the server's, lent to whoever leads (batch is
	// non-empty, and never longer than results). They go to the next leader
	// empty: a finished checkin's context and request (its caller's pooled
	// scratch) must not stay reachable from them.
	results := s.results[:len(batch)]
	defer func() {
		clear(batch)
		clear(results)
	}()
	applied := 0 // items whose apply step completed; their result is authoritative
	hooked := 0  // items whose OnCheckin hook has run
	delivered := false
	defer func() {
		if delivered {
			return
		}
		// Unwinding from a panic in the Updater or a hook: no waiter may
		// be stranded, and no waiter may be told its applied delta failed
		// (a retry would double-apply the gradient). Items the critical
		// section completed get their real result; the rest get
		// ErrCheckinAborted. The panic itself keeps propagating out of
		// the leader's Checkin call.
		//
		// Before delivering, run the hook for every APPLIED item it has
		// not yet seen: those checkins are about to be acknowledged as
		// successes, and the hook is what makes them durable (the hub's
		// write-ahead journal) — skipping it would leave acknowledged
		// iterations missing from the journal, an unrecoverable replay
		// gap. Each call is recover-guarded; a hook panic here is dropped
		// (the original panic is already propagating).
		if s.cfg.OnCheckin != nil {
			for i, p := range batch {
				if i >= applied || results[i] != nil || i < hooked {
					continue
				}
				func() {
					defer func() { _ = recover() }()
					s.cfg.OnCheckin(p.ctx, p.deviceID, p.iteration, p.req)
				}()
			}
		}
		// The group-commit hook gets its call too: the applied items are
		// about to be acknowledged, and a durability sink relying on
		// OnBatchCommit (fsync) must cover them first. Recover-guarded —
		// the original panic is already propagating.
		if s.cfg.OnBatchCommit != nil {
			if n := countApplied(results, applied); n > 0 {
				func() {
					defer func() { _ = recover() }()
					s.cfg.OnBatchCommit(n)
				}()
			}
		}
		for i, p := range batch {
			if p.done == nil {
				continue
			}
			if i < applied {
				p.done <- results[i]
			} else {
				p.done <- ErrCheckinAborted
			}
		}
	}()
	s.wMu.Lock()
	func() {
		defer s.wMu.Unlock()
		s.applyBatchLocked(batch, results, &applied)
	}()

	// Journaling and other hooks run outside the critical section so a
	// slow sink never extends the lock hold. The single active leader
	// invokes them sequentially in iteration order, so an order-sensitive
	// sink (e.g. store.Journal) still sees monotonically increasing
	// iterations. Each hook is isolated: one panicking hook must not
	// silently skip the remaining items' hooks (their checkins ARE
	// applied, and an audit sink is entitled to a record per applied
	// checkin), so every hook still runs, the waiters get their real
	// results, and the first captured panic then resumes out of the
	// leader's own Checkin call — the same caller that observed a hook
	// panic under the old per-checkin lock.
	var hookPanic any
	if s.cfg.OnCheckin != nil {
		for i, p := range batch {
			hooked = i + 1
			if results[i] != nil {
				continue
			}
			func() {
				defer func() {
					if r := recover(); r != nil && hookPanic == nil {
						hookPanic = r
					}
				}()
				s.cfg.OnCheckin(p.ctx, p.deviceID, p.iteration, p.req)
			}()
		}
	}
	// Group commit: one OnBatchCommit per applied batch, after every
	// per-item hook and before any waiter is released — the point where
	// a durability sink fsyncs once for the whole batch so each of the
	// acknowledgments below stands on stable storage.
	if s.cfg.OnBatchCommit != nil {
		if n := countApplied(results, applied); n > 0 {
			func() {
				defer func() {
					if r := recover(); r != nil && hookPanic == nil {
						hookPanic = r
					}
				}()
				s.cfg.OnBatchCommit(n)
			}()
		}
	}
	delivered = true
	for i, p := range batch {
		if p.done != nil {
			p.done <- results[i]
		}
	}
	if hookPanic != nil {
		panic(hookPanic)
	}
	return results[0]
}

// countApplied counts the items whose delta was actually applied (their
// apply step completed with a nil result) — the n an OnBatchCommit call
// reports. Items rejected by the stopping rule or aborted keep n honest.
func countApplied(results []error, applied int) int {
	n := 0
	for i := 0; i < applied && i < len(results); i++ {
		if results[i] == nil {
			n++
		}
	}
	return n
}

// applyBatchLocked is the parameter-lock critical section of applyBatch.
// It advances *applied past each item whose outcome is settled, so the
// panic-recovery path in applyBatch can tell applied deltas apart from
// aborted ones. Before the lock is released — on a panicking Updater too,
// since the items before it are still acknowledged — it publishes the
// checkout snapshot if the batch advanced the iteration: one copy per
// batch (into a recycled vector), and the reason a checkout that starts after a Checkin returned
// can never serve parameters older than that checkin.
func (s *Server) applyBatchLocked(batch []*pendingCheckin, results []error, applied *int) {
	defer func() {
		if s.ring.Version() != int(s.t.Load()) {
			s.publishSnapshotLocked()
		}
	}()
	for i, p := range batch {
		if p.abandoned.Load() {
			// Its caller already unwound from an earlier leader panic and
			// reported failure; applying now would double-count a retry.
			results[i] = ErrCheckinAborted
			*applied = i + 1
			continue
		}
		if s.evalStopped() {
			results[i] = ErrStopped
			*applied = i + 1
			continue
		}
		// The Updater runs before anything is committed for this item: if
		// it panics, the item's iteration and counters were never taken,
		// so the ErrCheckinAborted its waiter receives is honest and a
		// device retry cannot double-count. (w itself may hold a partial
		// update — unavoidable with a panicking updater, and exactly the
		// exposure the old per-checkin lock had.)
		p.iteration = int(s.t.Load()) + 1
		s.applyLocked(p.deviceID, p.req, p.grad, p.iteration, false)
		*applied = i + 1
	}
}

// applyLocked is Algorithm 2's server step for one checkin, committed as
// iteration t: the update w ← w − η(t)ĝ, then t, then the crowd totals,
// then the device's counters. The live applier and journal Replay both
// run exactly this sequence, which is what bit-exact recovery rests on.
// Staleness is measured against the pre-update counter t−1. createDevice
// is Replay's: credentials are not persisted, so a replayed device may
// be unknown. Caller holds wMu; t only advances under it, so the store
// is single-writer safe.
func (s *Server) applyLocked(deviceID string, req *CheckinRequest, grad *linalg.Matrix, t int, createDevice bool) {
	s.cfg.Updater.Update(s.w, grad, t)
	s.t.Store(int64(t))
	// Errors and label counts strictly before samples, so a concurrent
	// lock-free ΣN_e/ΣN_s read can only overestimate the error rate (see
	// evalStopped).
	s.totalNe.Add(int64(req.ErrCount))
	for k, c := range req.LabelCounts {
		s.totalNky[k].Add(int64(c))
	}
	s.totalNs.Add(int64(req.NumSamples))
	s.devices.recordCheckin(deviceID, req, t-1-req.Version, createDevice)
}
