package transport

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"

	"github.com/crowdml/crowdml/internal/core"
	"github.com/crowdml/crowdml/internal/hub"
	"github.com/crowdml/crowdml/internal/store"
)

// ErrNoFeed is returned (as a 404) for the journal and checkpoint feed
// endpoints of a task that has no durability store attached: there is no
// WAL to ship, so the task cannot lead replicas (nor serve remote
// audits).
var ErrNoFeed = errors.New("transport: task has no journal feed (no durability store attached)")

// headerLeader carries the leader base URL a follower hints back to
// clients whose writes it rejects (409): retry the same request there.
const headerLeader = "X-Crowdml-Leader"

// lineage resolves a journal or checkpoint request to the task whose
// store holds that lineage, writing the miss itself: besides Resolve's,
// ErrNoFeed for a task without a store and for a sharded logical ID —
// lineage is per shard, so the error names the members to address.
func (h *Handler) lineage(w http.ResponseWriter, r *http.Request) (*hub.Task, store.Store, bool) {
	e, ok := h.resolve(w, r)
	if !ok {
		return nil, nil, false
	}
	if e.Router != nil {
		writeError(w, fmt.Errorf("task %q is sharded; per-shard state lives on its members %v: %w",
			e.ID(), e.Router.MemberIDs(), ErrNoFeed))
		return nil, nil, false
	}
	st := e.Task.Store()
	if st == nil {
		writeError(w, fmt.Errorf("task %q: %w", e.ID(), ErrNoFeed))
	}
	return e.Task, st, st != nil
}

// handleJournalFeed serves GET /v1/tasks/{task}/journal?after=N — the
// WAL-shipping feed and remote-audit endpoint. It streams every journal
// entry with Iteration > N (exactly what Store.OpenCursor yields: the
// cursor skips covered entries on their frame headers, so a caught-up
// follower's poll costs the leader the new entries, not the live
// segment) as chunked binary frames under ContentTypeBinary — the same
// wirecodec journal frames the segments hold — flushed per entry so a
// follower sees new entries without buffering delay, and terminates with
// a header-only end-of-stream frame carrying the leader's current
// iteration counter. Memory is O(one entry) however long the journal is.
// A crash-torn live tail (ErrJournalTruncated) ends the stream cleanly —
// the torn record was never durable. A mid-stream cursor failure simply
// cuts the response without the EOS frame; the client's FeedReader
// reports ErrFeedInterrupted and the follower reconnects.
func (h *Handler) handleJournalFeed(w http.ResponseWriter, r *http.Request) {
	t, st, ok := h.lineage(w, r)
	if !ok {
		return
	}
	after := 0
	if v := r.URL.Query().Get("after"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			writeError(w, fmt.Errorf("bad 'after' parameter %q (want a non-negative iteration): %w",
				v, core.ErrBadCheckin))
			return
		}
		after = n
	}
	cur, err := st.OpenCursor(r.Context(), after)
	if err != nil {
		writeError(w, fmt.Errorf("task %q: open journal cursor: %w", t.ID(), err))
		return
	}
	defer cur.Close()
	w.Header().Set("Content-Type", ContentTypeBinary)
	rc := http.NewResponseController(w)
	fw := store.NewFeedWriter(w)
	streamed := h.feedEntriesCounter(t.ID())
	for {
		e, err := cur.Next()
		if errors.Is(err, io.EOF) || errors.Is(err, store.ErrJournalTruncated) {
			break
		}
		if err != nil {
			// Headers are long sent; ending without the EOS frame is the
			// in-band error signal (the reader reports ErrFeedInterrupted).
			return
		}
		if fw.WriteEntry(e) != nil {
			return // client gone
		}
		streamed.Inc()
		if rc.Flush() != nil {
			return
		}
	}
	if fw.WriteEOS(t.Server().Iteration()) == nil {
		_ = rc.Flush()
	}
}

// ContentTypeFrame is the media type of a checkpoint reply: one
// wirecodec checkpoint frame, the bytes the leader's store holds.
const ContentTypeFrame = "application/x-crowdml-frame"

// handleCheckpoint serves GET /v1/tasks/{task}/checkpoint — the latest
// snapshot of the task's learning state, the bootstrap artifact a
// follower starts from when journal retention has pruned the range its
// cursor would need. 204 No Content when the task has not checkpointed
// yet (a fresh follower then simply tails the journal from iteration 0).
func (h *Handler) handleCheckpoint(w http.ResponseWriter, r *http.Request) {
	t, st, ok := h.lineage(w, r)
	if !ok {
		return
	}
	cp, err := st.Load(r.Context())
	if errors.Is(err, store.ErrNoCheckpoint) {
		w.WriteHeader(http.StatusNoContent)
		return
	}
	if err != nil {
		writeError(w, fmt.Errorf("task %q: load checkpoint: %w", t.ID(), err))
		return
	}
	frame, err := store.EncodeCheckpoint(cp)
	if err != nil {
		writeError(w, fmt.Errorf("task %q: %w", t.ID(), err))
		return
	}
	w.Header().Set("Content-Type", ContentTypeFrame)
	w.Header().Set("Content-Length", strconv.Itoa(len(frame)))
	_, _ = w.Write(frame) // headers are already sent; nothing more to do
}

// JournalFeed is an open streaming read of a leader's journal feed — the
// follower side of one GET /v1/tasks/{task}/journal response. Next
// yields entries in stream order; io.EOF marks the complete response
// (LeaderIteration is then valid) and store.ErrFeedInterrupted a cut
// connection — resume by opening a new feed after the last applied
// iteration. Close must always be called.
type JournalFeed struct {
	body io.ReadCloser
	fr   *store.FeedReader
}

// Next returns the next journal entry from the feed.
func (f *JournalFeed) Next() (store.JournalEntry, error) { return f.fr.Next() }

// LeaderIteration reports the leader's iteration counter from the
// end-of-stream frame; meaningful only after Next returned io.EOF.
func (f *JournalFeed) LeaderIteration() int { return f.fr.LeaderIteration() }

// Close releases the underlying response body.
func (f *JournalFeed) Close() error { return f.body.Close() }

// OpenJournalFeed opens a streaming read of the bound task's journal on
// the server, starting after the given iteration. Opening retries per the
// client's retry policy; mid-stream failures surface from Next instead.
func (c *HTTPClient) OpenJournalFeed(ctx context.Context, after int) (*JournalFeed, error) {
	u, err := c.endpoint("journal")
	if err != nil {
		return nil, err
	}
	if after > 0 {
		u += "?after=" + strconv.Itoa(after)
	}
	resp, err := c.doGET(ctx, u, nil)
	if err != nil {
		return nil, fmt.Errorf("transport: open journal feed: %w", err)
	}
	if err := checkStatus(resp); err != nil {
		resp.Body.Close()
		return nil, err
	}
	// A leader from before the binary feed answers 200 with JSON lines;
	// say so instead of reporting its first line as a corrupt frame.
	if ct := resp.Header.Get("Content-Type"); !isBinaryContentType(ct) {
		resp.Body.Close()
		return nil, fmt.Errorf("transport: journal feed is %q, want %s (is the leader an older release?)", ct, ContentTypeBinary)
	}
	return &JournalFeed{body: resp.Body, fr: store.NewFeedReader(resp.Body)}, nil
}

// FetchCheckpoint retrieves the bound task's latest checkpoint from the
// server, or store.ErrNoCheckpoint when the task has not checkpointed
// yet.
func (c *HTTPClient) FetchCheckpoint(ctx context.Context) (*store.Checkpoint, error) {
	u, err := c.endpoint("checkpoint")
	if err != nil {
		return nil, err
	}
	resp, err := c.doGET(ctx, u, nil)
	if err != nil {
		return nil, fmt.Errorf("transport: fetch checkpoint: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusNoContent {
		return nil, store.ErrNoCheckpoint
	}
	if err := checkStatus(resp); err != nil {
		return nil, err
	}
	// A leader from before the checkpoint frame answers with the JSON
	// document, which this release does not read: when a reply that is
	// not a frame fails to decode, say what it was instead of only
	// reporting a corrupt frame.
	cp, err := store.DecodeCheckpoint(resp.Body)
	if ct := resp.Header.Get("Content-Type"); err != nil && ct != ContentTypeFrame {
		return nil, fmt.Errorf("transport: checkpoint reply is %q, want %s (is the leader an older release?): %w", ct, ContentTypeFrame, err)
	}
	if err != nil {
		return nil, fmt.Errorf("transport: fetch checkpoint: %w", err)
	}
	return cp, nil
}

// AuthProbe verifies device credentials against the server without
// transferring parameters: a HEAD on the checkout endpoint, which
// authenticates exactly like a checkout but discards the body. nil means
// the server vouches for the credentials — this is the leader-side check
// behind a follower replica's core.ServerConfig.AuthFallback, paid once
// per unknown device and then cached locally.
func (c *HTTPClient) AuthProbe(ctx context.Context, deviceID, token string) error {
	u, err := c.endpoint("checkout")
	if err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodHead, u, nil)
	if err != nil {
		return fmt.Errorf("transport: build auth probe: %w", err)
	}
	req.Header.Set(headerDeviceID, deviceID)
	req.Header.Set(headerToken, token)
	resp, err := c.client.Do(req)
	if err != nil {
		return fmt.Errorf("transport: auth probe: %w", err)
	}
	defer resp.Body.Close()
	return checkStatus(resp)
}
