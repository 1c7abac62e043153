// Package replica implements the follower side of WAL-shipping
// replication: a Replicator that keeps a read-only hub task bit-exact
// with its leader by bootstrapping from the leader's latest checkpoint
// and then tailing the leader's journal feed, applying each shipped
// entry through the same deterministic replay path crash recovery uses.
//
// The runtime is a three-state machine (mirrored on /v1/healthz):
//
//	bootstrapping ──ok──▶ tailing ──feed lost──▶ retrying ──┐
//	      ▲                  │                              │
//	      │            ErrReplayGap                    backoff, then
//	      └──────(retention pruned our range)◀──────── reconnect ──▶ tailing
//
// Failures before the first complete exchange stay bootstrapping, with
// LastError set; the n-th failure in a row waits Feed.RetryPolicy().Delay(n).
//
// While tailing, the follower serves the read path (checkout, stats)
// from its local replica, trailing the leader by the replication lag the
// healthz endpoint reports; writes are rejected by the HTTP layer with a
// leader hint. A follower that falls behind leader retention — the gap —
// does not guess: it re-bootstraps from the leader's checkpoint, which by
// construction covers everything retention pruned.
package replica

import (
	"context"
	"errors"
	"fmt"
	"io"
	"time"

	"github.com/crowdml/crowdml/internal/core"
	"github.com/crowdml/crowdml/internal/hub"
	"github.com/crowdml/crowdml/internal/store"
	"github.com/crowdml/crowdml/internal/telemetry"
	"github.com/crowdml/crowdml/internal/transport"
)

// Config configures a Replicator.
type Config struct {
	// Task is the local follower task (created with hub.AsReplicaOf) the
	// replicator maintains. Required.
	Task *hub.Task
	// Feed is the HTTP client bound (WithTask) to the same task ID on the
	// leader. Required. Its RetryPolicy absorbs transient leader hiccups
	// (build it WithRetry) and times the waits between failed exchanges
	// (defaults: 100ms doubling to 2s).
	Feed *transport.HTTPClient
	// PollInterval is how long the follower idles after draining the feed
	// to the leader's current end before re-polling. Default 250ms.
	PollInterval time.Duration
	// Logf, when set, receives one line per state transition and failure
	// (log.Printf-shaped). Nil discards.
	Logf func(format string, args ...any)
	// Metrics, if non-nil, receives the replica telemetry series
	// (entries replayed, bootstraps, retries, lag) under the task's ID.
	Metrics *telemetry.Registry
}

// Replicator drives one follower task: Start launches the
// bootstrap-and-tail loop in a goroutine, Stop shuts it down. It
// publishes a copy of its status onto the task after every change
// (hub.Task.SetReplicaStatus), so the task's healthz row reflects its
// live state.
type Replicator struct {
	cfg  Config
	srv  *core.Server
	logf func(string, ...any)
	m    *replicaMetrics // never nil; its handles are nil with telemetry off

	// st is the current status: New writes it before Start, then only the
	// Run goroutine does; readers see the copies publish hands the task.
	st hub.ReplicaStatus

	cancel context.CancelFunc
	done   chan struct{}
}

// New validates the configuration, publishes the task's initial
// bootstrapping status, and returns the replicator ready to Start.
func New(cfg Config) (*Replicator, error) {
	if cfg.Task == nil {
		return nil, errors.New("replica: Config.Task is required")
	}
	if !cfg.Task.ReadOnly() {
		return nil, fmt.Errorf("replica: task %q is not a replica (create it with hub.AsReplicaOf)", cfg.Task.ID())
	}
	if cfg.Feed == nil {
		return nil, errors.New("replica: Config.Feed is required")
	}
	if cfg.Feed.TaskID() == "" {
		return nil, errors.New("replica: Config.Feed must be task-bound (WithTask)")
	}
	if cfg.PollInterval <= 0 {
		cfg.PollInterval = 250 * time.Millisecond
	}
	r := &Replicator{
		cfg:  cfg,
		srv:  cfg.Task.Server(),
		logf: cfg.Logf,
		m:    newReplicaMetrics(cfg.Metrics, cfg.Task.ID()),
		st:   hub.ReplicaStatus{State: hub.ReplicaBootstrapping},
	}
	if r.logf == nil {
		r.logf = func(string, ...any) {}
	}
	r.publish()
	return r, nil
}

// publish hands the task a copy of the current status.
func (r *Replicator) publish() { r.cfg.Task.SetReplicaStatus(r.st) }

// Start launches Run in a goroutine. Stop (or cancelling ctx) ends it.
func (r *Replicator) Start(ctx context.Context) {
	ctx, r.cancel = context.WithCancel(ctx)
	r.done = make(chan struct{})
	go func() {
		defer close(r.done)
		r.Run(ctx)
	}()
}

// Stop cancels a Started replicator and waits for its loop to exit.
func (r *Replicator) Stop() {
	if r.cancel == nil {
		return
	}
	r.cancel()
	<-r.done
}

// Run drives the bootstrap-and-tail loop until ctx is cancelled. It is
// exported for callers that manage their own goroutines; Start/Stop wrap
// it for everyone else.
func (r *Replicator) Run(ctx context.Context) {
	defer func() {
		r.st.State = hub.ReplicaStopped
		r.publish()
	}()
	policy := r.cfg.Feed.RetryPolicy()
	failures := 0   // consecutive failed exchanges; a clean one resets it
	synced := false // a complete exchange has happened: retrying, not bootstrapping
	needBootstrap := true
	fail := func(err error) {
		r.logf("replica[%s]: %v", r.cfg.Task.ID(), err)
		r.m.retries.Inc()
		if synced {
			r.st.State = hub.ReplicaRetrying
		}
		r.st.LastError = err.Error()
		r.publish()
		failures++
		sleep(ctx, policy.Delay(failures))
	}
	for ctx.Err() == nil {
		if needBootstrap {
			r.st.State = hub.ReplicaBootstrapping
			r.publish()
			if err := r.bootstrap(ctx); err != nil {
				if ctx.Err() != nil {
					return
				}
				fail(err)
				continue
			}
			needBootstrap = false
			r.m.bootstraps.Inc()
			r.logf("replica[%s]: bootstrapped at iteration %d", r.cfg.Task.ID(), r.srv.Iteration())
		}
		err := r.tailOnce(ctx)
		switch {
		case ctx.Err() != nil:
			return
		case err == nil:
			synced, failures = true, 0
			sleep(ctx, r.cfg.PollInterval)
		case errors.Is(err, core.ErrReplayGap):
			// Leader retention pruned past our position; the checkpoint
			// covers the pruned range by construction. Re-bootstrap now —
			// waiting would only grow the gap.
			r.logf("replica[%s]: %v; re-bootstrapping from checkpoint", r.cfg.Task.ID(), err)
			r.st.LastError = err.Error()
			needBootstrap = true
		default:
			fail(err)
		}
	}
}

// bootstrap imports the leader's latest checkpoint. A leader with no
// checkpoint yet is only acceptable when the follower holds nothing
// either — both sides then start from iteration 0 and the journal tail
// carries everything; otherwise the feed has a hole nothing can fill.
func (r *Replicator) bootstrap(ctx context.Context) error {
	cp, err := r.cfg.Feed.FetchCheckpoint(ctx)
	if errors.Is(err, store.ErrNoCheckpoint) {
		return nil // tail from wherever we are (iteration 0 on first boot)
	}
	if err != nil {
		return errOf(CategoryNetwork, "bootstrap", err)
	}
	// An old checkpoint cannot help with a gap that starts past it:
	// applying it would rewind the replica only to hit the same gap
	// again. Skip the import and let the tail proceed from local state.
	if cp.State != nil && cp.State.Iteration <= r.srv.Iteration() {
		return nil
	}
	if err := r.srv.ImportState(cp.State); err != nil {
		return errOf(CategoryState, "bootstrap", err)
	}
	return nil
}

// tailOnce opens the journal feed after the locally applied iteration
// and applies entries until the stream ends. A nil return is one
// complete exchange: every shipped entry applied and the end-of-stream
// frame consumed (its leader iteration feeds the lag telemetry).
func (r *Replicator) tailOnce(ctx context.Context) error {
	after := r.srv.Iteration()
	feed, err := r.cfg.Feed.OpenJournalFeed(ctx, after)
	if err != nil {
		return errOf(CategoryNetwork, "tail", err)
	}
	defer feed.Close()
	applied := 0
	for {
		e, err := feed.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if errors.Is(err, store.ErrFeedInterrupted) {
			return errOf(CategoryNetwork, "tail", err)
		}
		if err != nil {
			return errOf(CategoryProtocol, "tail", err)
		}
		n, err := r.apply(e)
		if err != nil {
			return err
		}
		applied++
		if n > 0 {
			// Count entries Replay actually applied, not everything the
			// feed shipped: a segment-granular feed re-streams entries the
			// replica already holds, and Replay skips those silently.
			r.m.entriesReplayed.Inc()
		}
	}
	// A clean exchange that shipped nothing while the leader sits ahead
	// of us is a gap the stream itself cannot reveal: retention pruned
	// our whole missing range, so the cursor had no entry left to trip
	// ErrReplayGap on. (A cursor merely racing fresh appends looks the
	// same for one poll; re-bootstrapping then is harmless — the
	// checkpoint is at least as fresh as the entries we missed.)
	if applied == 0 && feed.LeaderIteration() > r.srv.Iteration() {
		return errOf(CategoryGap, "tail",
			fmt.Errorf("feed ended empty at leader iteration %d with replica at %d: %w",
				feed.LeaderIteration(), r.srv.Iteration(), core.ErrReplayGap))
	}
	r.st = hub.ReplicaStatus{State: hub.ReplicaTailing, LeaderIteration: feed.LeaderIteration()}
	r.publish()
	if lag, ok := r.cfg.Task.ReplicationLag(); ok { // the figure /v1/healthz shows
		r.m.lag.Set(float64(lag))
	}
	return nil
}

// apply replays one shipped journal entry into the local server,
// returning how many records Replay applied (0 when the entry was
// already covered locally). Each entry is its own Replay call: the
// parameter lock is held per entry, not per stream, so local checkouts
// interleave freely with a live tail — and the feed's network reads
// never happen under the lock (Replay's source must not block).
func (r *Replicator) apply(e store.JournalEntry) (int, error) {
	n, err := r.srv.Replay(core.ReplaySlice([]core.ReplayRecord{e.ReplayRecord()}))
	if errors.Is(err, core.ErrReplayGap) {
		return n, errOf(CategoryGap, "apply", err)
	}
	if err != nil {
		return n, errOf(CategoryState, "apply", err)
	}
	return n, nil
}

// sleep waits d or until ctx is cancelled: the one wait of the loop,
// between caught-up polls and after a failure.
func sleep(ctx context.Context, d time.Duration) {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
	case <-t.C:
	}
}
