package core

import (
	"context"
	"sync/atomic"
	"time"

	"github.com/crowdml/crowdml/internal/linalg"
)

// pendingCheckin is one validated, authenticated checkin on its way
// through the batched applier. done is allocated (buffered, capacity 1)
// only when the checkin takes the queued slow path; a fast-path checkin
// is applied directly by its own goroutine and never needs it.
type pendingCheckin struct {
	deviceID string
	req      *CheckinRequest
	done     chan error
	// at is where the checkin's current stage started, as an offset from
	// the server's epoch, which keeps the item in its allocation size
	// class: its Checkin entry until its batch is applied, then the end of
	// the batch's OnCommit, written before done is signalled.
	at time.Duration

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
		// Release via defer: a panic in a user-supplied Updater or OnCommit
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
// parameter lock, then — outside the critical section — hands the
// applied items' records to OnCommit in one call, and only then releases
// the waiters. It returns the first item's result (leadFast's own). The
// checkout snapshot is republished once per batch, inside the critical
// section (see applyBatchLocked), so the parameter copy is amortized over
// the batch and no acknowledged checkin is ever invisible to a later
// checkout.
//
// Algorithm 2 semantics are preserved delta by delta: each checkin gets
// its own iteration number t, its own η(t) update step, its own staleness
// measurement against the pre-update counter, and its own evaluation of
// the stopping rule (a checkin later in the batch observes the stop
// tripped by an earlier one and is rejected, exactly as if it had lost a
// per-checkin lock race).
//
// The commit and the delivery run in one deferred function, so they hold
// on the panic path too. A panicking Updater still leaves every waiter
// with an answer (no waiter hangs on a dead leader), and the items it
// applied before the panic still reach OnCommit before they are
// acknowledged — a write-ahead journal that missed an acknowledged
// iteration would leave an unrecoverable gap in the log. A panicking
// OnCommit is recovered, every waiter gets its real result, and the panic
// then resumes out of the leader's own Checkin call; while an Updater
// panic is already unwinding, an OnCommit panic is dropped instead.
func (s *Server) applyBatch(batch []*pendingCheckin) error {
	s.cfg.Metrics.batchSize.Observe(float64(len(batch)))
	// batch, results and s.records are the server's, lent to whoever leads
	// (batch is non-empty, and never longer than results). Every result
	// starts as ErrCheckinAborted and applyBatchLocked overwrites it once
	// the item's outcome is settled, so an item the critical section never
	// reached is reported aborted, and no waiter is told its applied delta
	// failed (a retry would double-apply the gradient).
	results := s.results[:len(batch)]
	for i := range results {
		results[i] = ErrCheckinAborted
	}
	unwinding := true
	defer func() {
		commitPanic := s.commit()
		ci, _ := s.Stages()
		acked := ci.Start().Sub(s.epoch)
		for i, p := range batch {
			p.at = acked
			if p.done != nil {
				p.done <- results[i]
			}
		}
		// The next leader gets them empty: a finished checkin's request
		// (its caller's pooled scratch) must not stay reachable from them.
		clear(batch)
		clear(s.records)
		s.records = s.records[:0]
		if commitPanic != nil && !unwinding {
			panic(commitPanic)
		}
	}()
	s.wMu.Lock()
	func() {
		defer s.wMu.Unlock()
		s.applyBatchLocked(batch, results)
	}()
	unwinding = false
	return results[0]
}

// commit is the batch's one call to OnCommit — outside the parameter
// lock, before any waiter is released, and skipped when the batch applied
// nothing. It recovers a panicking OnCommit and returns what it panicked
// with, for applyBatch to resume once the waiters have their results.
func (s *Server) commit() (panicked any) {
	if s.cfg.OnCommit == nil || len(s.records) == 0 {
		return nil
	}
	defer func() { panicked = recover() }()
	s.cfg.OnCommit(s.records)
	return nil
}

// applyBatchLocked is the parameter-lock critical section of applyBatch.
// It settles each item's result and appends one record per applied item
// to s.records, in iteration order. Before the lock is released — on a
// panicking Updater too, since the items before it are still
// acknowledged — it publishes the checkout snapshot if the batch advanced
// the iteration: one copy per batch (into a recycled vector), and the
// reason a checkout that starts after a Checkin returned can never serve
// parameters older than that checkin.
//
// A Version the server has not issued yet (a checkout from before a
// SyncNone power loss, or a forged one) is clamped to t−1 before the
// record is taken: staleness 0, not negative, and the journal carries
// the clamped value Replay reproduces.
func (s *Server) applyBatchLocked(batch []*pendingCheckin, results []error) {
	ci, _ := s.Stages()
	locked := ci.Start()
	defer func() {
		if s.ring.Version() != int(s.t.Load()) {
			applied := ci.Lap(StageApply, locked)
			s.publishSnapshotLocked()
			ci.Lap(StagePublish, applied)
		}
	}()
	for i, p := range batch {
		switch {
		case p.abandoned.Load():
			// Its caller already unwound from an earlier leader panic and
			// reported failure; applying now would double-count a retry. The
			// result stays ErrCheckinAborted.
		case s.Stopped():
			results[i] = ErrStopped
		default:
			// The Updater runs before anything is committed for this item: if
			// it panics, the item's iteration and counters were never taken,
			// so the ErrCheckinAborted its waiter receives is honest and a
			// device retry cannot double-count. (w itself may hold a partial
			// update — unavoidable with a panicking updater, and exactly the
			// exposure the old per-checkin lock had.)
			t := int(s.t.Load()) + 1
			if p.req.Version > t-1 {
				p.req.Version = t - 1
			}
			s.applyLocked(p.deviceID, p.req, t)
			s.cfg.Metrics.staleness.Observe(float64(t - 1 - p.req.Version)) // live only: Replay does not re-count history
			ci.Span(StageQueueWait, s.epoch.Add(p.at), locked)
			s.records = append(s.records, ReplayRecord{DeviceID: p.deviceID, Iteration: t, Req: p.req})
			results[i] = nil
		}
	}
}

// applyLocked is Algorithm 2's server step for one checkin, committed as
// iteration t: the update w ← w − η(t)ĝ, then t, then the crowd totals,
// then the device's counters. The live applier and journal Replay both
// run exactly this sequence, which is what bit-exact recovery rests on.
// Staleness is measured against the pre-update counter t−1. Caller holds
// wMu; t only advances under it, so the store is single-writer safe. Both
// callers have checked the gradient's length.
func (s *Server) applyLocked(deviceID string, req *CheckinRequest, t int) {
	grad, err := linalg.NewMatrixFrom(s.w.Rows(), s.w.Cols(), req.Grad)
	if err != nil {
		panic(err)
	}
	s.cfg.Updater.Update(s.w, grad, t)
	s.t.Store(int64(t))
	// Errors and label counts strictly before samples, so a concurrent
	// lock-free ΣN_e/ΣN_s read can only overestimate the error rate (see
	// learningStopped).
	s.totalNe.Add(int64(req.ErrCount))
	for k, c := range req.LabelCounts {
		s.totalNky[k].Add(int64(c))
	}
	s.totalNs.Add(int64(req.NumSamples))
	s.devices.recordCheckin(deviceID, req, t-1-req.Version)
}
