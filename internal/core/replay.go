package core

import (
	"errors"
	"fmt"
	"io"
)

// ErrReplayGap is returned by Replay when the journal tail skips an
// iteration: the record stream must be contiguous from the restored
// state's iteration counter, or the reconstructed parameters would
// silently diverge from the pre-crash server.
var ErrReplayGap = errors.New("core: replay records skip an iteration")

// replayPublishEvery is how many applied records a long Replay lets
// accumulate before republishing the checkout snapshot mid-stream.
// Replay holds the parameter lock for its whole run and publishes when
// it ends — a follower replica applying a long bootstrap tail while
// already serving checkouts would otherwise pin every reader to the
// pre-replay parameters until then. Publishing every N records bounds
// that staleness at N iterations for the cost of one parameter copy per
// N applies.
const replayPublishEvery = 64

// ReplayRecord is one applied checkin as the server's state transition
// sees it: what ServerConfig.OnCommit hands out for journaling, and what
// Replay takes back from the journal — the store.JournalEntry fields
// that determine the transition.
type ReplayRecord struct {
	// DeviceID is the contributing device.
	DeviceID string
	// Iteration is the server iteration the checkin was applied at.
	Iteration int
	// Req is the sanitized checkin exactly as originally applied.
	Req *CheckinRequest
}

// ReplaySource yields successive replay records for Server.Replay, in
// journal append order; it returns io.EOF (alone, with a zero record)
// to end the stream cleanly, and any other error to abort the replay.
// Streaming instead of a materialized slice is what bounds recovery
// memory: Replay holds one record at a time, so restoring a task costs
// O(one entry) resident memory regardless of how long the journal tail
// is. The source is called synchronously from Replay, under the
// server's parameter lock — it must not call back into the server.
type ReplaySource func() (ReplayRecord, error)

// ReplaySlice adapts an in-memory record slice to a ReplaySource — the
// convenience path for embedders (and tests) that already hold the
// records.
func ReplaySlice(records []ReplayRecord) ReplaySource {
	i := 0
	return func() (ReplayRecord, error) {
		if i >= len(records) {
			return ReplayRecord{}, io.EOF
		}
		r := records[i]
		i++
		return r, nil
	}
}

// Replay re-applies journaled checkins on top of the server's current
// state — the recovery path after ImportState has restored the latest
// checkpoint. Records are pulled one at a time from next (a streaming
// store cursor in the hub's restore path; ReplaySlice for callers with
// a materialized tail). Records at or below the current iteration
// counter are already covered by the checkpoint and are skipped; the
// rest must be contiguous (ErrReplayGap otherwise) and are applied with
// the same update step, counter accumulation and staleness accounting
// as the original Checkin, so a recovered server lands on the exact
// pre-crash iteration, parameters and totals.
//
// Replay excludes the write path for its whole run (it holds the apply
// lock) but coexists with concurrent readers: checkouts and stats serve
// the published snapshot, which Replay republishes every
// replayPublishEvery applied records and once at the end — the
// follower-replica mode applies a live journal tail through Replay while
// serving the read path. Unlike Checkin it performs no authentication
// (credentials are not part of persisted state), does not consult the
// stopping rule (every record was acknowledged, so it passed the rule
// when originally applied), and does not call OnCommit (the records came
// FROM the journal; journaling them again would duplicate the log). It
// returns the number of records applied.
//
// Exactness holds for updaters whose step depends only on (w, ĝ, t) —
// the paper's SGD schedules — and equally for stateful updaters that
// implement optimizer.StateExporter (AdaGrad, Momentum): their internal
// state rides in ServerState.UpdaterState, ImportState hands it back
// before Replay runs, and each replayed Update advances it exactly as
// the original Checkin did. A stateful updater that does NOT implement
// StateExporter resumes with its internal state reset (the checkpoint
// had nothing to carry).
func (s *Server) Replay(next ReplaySource) (applied int, err error) {
	classes, dim := s.cfg.Model.Shape()
	s.wMu.Lock()
	defer s.wMu.Unlock()
	for {
		r, err := next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return applied, fmt.Errorf("core: replay source: %w", err)
		}
		t := int(s.t.Load())
		if r.Iteration <= t {
			continue // covered by the checkpoint
		}
		if r.Iteration != t+1 {
			return applied, fmt.Errorf("record for iteration %d after state at %d: %w",
				r.Iteration, t, ErrReplayGap)
		}
		if r.Req == nil {
			return applied, fmt.Errorf("core: replay record %d has no request", r.Iteration)
		}
		if len(r.Req.Grad) != classes*dim {
			return applied, fmt.Errorf("core: replay record %d gradient length %d, want %d",
				r.Iteration, len(r.Req.Grad), classes*dim)
		}
		if len(r.Req.LabelCounts) != classes {
			return applied, fmt.Errorf("core: replay record %d label counts length %d, want %d",
				r.Iteration, len(r.Req.LabelCounts), classes)
		}
		s.applyLocked(r.DeviceID, r.Req, r.Iteration)
		applied++
		if applied%replayPublishEvery == 0 {
			// Keep concurrent readers fed during a long replay (see
			// replayPublishEvery); counters above are atomics, already live.
			s.publishSnapshotLocked()
		}
	}
	// Re-latch the stopping rule from the replayed counters, then publish
	// the recovered parameters for checkouts.
	s.learningStopped()
	s.publishSnapshotLocked()
	return applied, nil
}
