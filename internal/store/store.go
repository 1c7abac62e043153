// Package store defines the pluggable durability layer for Crowd-ML
// server state. The paper's prototype kept this state in MySQL
// (Section V-A) so a restarted server resumes the crowd's task with the
// accumulated contributions intact; Store is the abstraction of that
// role, with one implementation: FileStore, a checkpoint frame + a journal
// of wirecodec frames under a directory, on disk (NewFileStore) or in
// memory (NewMemStore, for tests, benchmarks and embedding). Both run the
// same code; only the file system under it differs.
//
// Two artifacts are managed per task:
//
//   - Checkpoints: atomic snapshots of core.ServerState. A crash never
//     leaves a torn checkpoint (FileStore writes to a temp file and
//     renames).
//   - A write-ahead checkin journal: an append-only log with one entry
//     per applied checkin, carrying the full sanitized contribution
//     (device, iteration, perturbed gradient, counters). Recovery loads
//     the latest checkpoint and deterministically replays the journal
//     tail (core.Server.Replay), so no acknowledged checkin is ever
//     lost — a checkin's journal entry is durable before the Checkin
//     call that produced it returns.
//
// The journal is segmented: Journal.Rotate seals the live segment and
// begins a fresh one (the hub's checkpointer rotates after each
// successful checkpoint), sealed segments are retained as the audit
// trail, and OpenCursor streams entries back one at a time — starting
// at the trailing segments a recovery needs — so both restart time AND
// resident memory are bounded by checkpoint cadence, not total checkin
// volume; a full audit scan (OpenCursor with afterIteration 0) holds
// one decoded entry at a time however large the history is. Stores
// implementing SegmentRetainer additionally support automated retention
// of sealed segments the latest checkpoint fully covers.
//
// The journal only ever sees sanitized quantities — raw device data
// never reaches the server, so it cannot reach the store; persisting the
// noise-perturbed gradient weakens nothing the paper's local-privacy
// analysis grants (the server already holds it in memory).
package store

import (
	"context"
	"errors"
	"fmt"
	"io"
	"time"

	"github.com/crowdml/crowdml/internal/core"
	"github.com/crowdml/crowdml/internal/wirecodec"
)

var (
	// ErrNoCheckpoint is returned by Store.Load when no checkpoint has
	// been saved yet.
	ErrNoCheckpoint = errors.New("store: no checkpoint")

	// ErrJournalTruncated is returned by JournalCursor.Next in place of
	// io.EOF when the journal's final record is torn or corrupt — the
	// expected artifact of a crash mid-append. Every valid entry has been
	// yielded by then; callers recovering state should treat it as a
	// clean end of stream: the torn record was never durable, so its
	// checkin was never acknowledged.
	ErrJournalTruncated = errors.New("store: journal truncated mid-record")

	// ErrStoreLocked is returned by FileStore.OpenJournal when another
	// process (or another open journal in this one) holds the store
	// directory's advisory lock. Opening a journal repairs (truncates) a
	// crash-torn tail, so a second opener racing a live journal could
	// destroy a half-flushed record; the lock turns that misdeployment
	// into a clean error. A store in memory (NewMemStore) does not lock —
	// simulating a crash by dropping a hub while keeping the store is
	// exactly what it is for.
	ErrStoreLocked = errors.New("store: store directory locked by a live journal")

	// ErrLegacyJournal is returned by FileStore's journal operations when
	// the directory still holds a format this release does not read:
	// *.jsonl segments from a release that journaled JSON lines, or the
	// checkpoint.json of a release before the checkpoint frame. The
	// wrapping error names the file and the upgrade step; no converter is
	// needed (docs/OPERATIONS.md).
	ErrLegacyJournal = errors.New("store: directory holds a pre-binary format this release does not read")
)

// Checkpoint wraps a server state with bookkeeping metadata.
type Checkpoint struct {
	// SavedAtUnixMillis records the wall-clock save time.
	SavedAtUnixMillis int64 `json:"savedAtUnixMillis"`
	// State is the server's learning state.
	State *core.ServerState `json:"state"`
}

// EncodeCheckpoint returns cp in the checkpoint format: one wirecodec
// KindCheckpoint frame (docs/WIRE.md), the bytes FileStore.Save writes.
// FileStore's checkpoint.ckpt, on disk or in memory, and the replication
// checkpoint endpoint are both this frame, and DecodeCheckpoint reads it.
func EncodeCheckpoint(cp *Checkpoint) ([]byte, error) {
	frame, err := wirecodec.AppendCheckpoint(nil, cp.State, cp.SavedAtUnixMillis)
	if err != nil {
		return nil, fmt.Errorf("store: encode checkpoint: %w", err)
	}
	return frame, nil
}

// DecodeCheckpoint reads one checkpoint from r: the frame EncodeCheckpoint
// writes. Anything else — the JSON document releases before the frame
// wrote included — and input longer than wirecodec.MaxPayload (refused
// before it is held in memory) fail with an error wrapping
// wirecodec.ErrFrame.
func DecodeCheckpoint(r io.Reader) (*Checkpoint, error) {
	payload, err := io.ReadAll(io.LimitReader(r, wirecodec.MaxPayload+1))
	if err != nil {
		return nil, fmt.Errorf("store: read checkpoint: %w", err)
	}
	if len(payload) > wirecodec.MaxPayload {
		return nil, errCheckpointTooLong
	}
	return decodeCheckpointFrame(payload)
}

// errCheckpointTooLong refuses a checkpoint longer than any frame.
var errCheckpointTooLong = fmt.Errorf("store: checkpoint is longer than %d bytes: %w", wirecodec.MaxPayload, wirecodec.ErrFrame)

// decodeCheckpointFrame decodes one whole checkpoint frame.
func decodeCheckpointFrame(payload []byte) (*Checkpoint, error) {
	st, savedAt, err := wirecodec.DecodeCheckpoint(payload)
	if err != nil {
		return nil, fmt.Errorf("store: decode checkpoint: %w", err)
	}
	return &Checkpoint{SavedAtUnixMillis: savedAt, State: st}, nil
}

// JournalEntry is one write-ahead record: the complete sanitized checkin
// a device contributed at one server iteration. Together with the
// checkpoint it replays from, the entry fully determines the server's
// next state — Grad, NumSamples, ErrCount, LabelCounts and Version are
// exactly the applied core.CheckinRequest, and Iteration pins where in
// the SGD sequence it lands.
type JournalEntry struct {
	AtUnixMillis int64  `json:"atUnixMillis"`
	DeviceID     string `json:"deviceId"`
	Iteration    int    `json:"iteration"`
	NumSamples   int    `json:"numSamples"`
	ErrCount     int    `json:"errCount"`
	// GradNorm1 is the L1 norm of Grad, kept for cheap auditing (spotting
	// outlier contributions without decoding the full gradient).
	GradNorm1 float64 `json:"gradNorm1"`
	// Grad is the flattened sanitized gradient ĝ that was applied.
	Grad []float64 `json:"grad,omitempty"`
	// LabelCounts are the sanitized per-class counts n̂^k_y.
	LabelCounts []int `json:"labelCounts,omitempty"`
	// Version echoes the checkout version the device computed against,
	// so replay reproduces the staleness accounting exactly.
	Version int `json:"version"`
}

// ReplayRecord is the entry as core.Server.Replay consumes it. The request
// aliases the entry's slices: a cursor or feed allocates them fresh per
// entry, so handing them on is safe.
func (e JournalEntry) ReplayRecord() core.ReplayRecord {
	return core.ReplayRecord{
		DeviceID:  e.DeviceID,
		Iteration: e.Iteration,
		Req: &core.CheckinRequest{
			Grad:        e.Grad,
			NumSamples:  e.NumSamples,
			ErrCount:    e.ErrCount,
			LabelCounts: e.LabelCounts,
			Version:     e.Version,
		},
	}
}

// Journal is an append-only, segmented checkin log. Implementations
// must be safe for concurrent use and must make each entry durable
// before Append returns (that ordering is what turns the journal into a
// write-ahead log: Append runs before the originating Checkin is
// acknowledged). "Durable" means surviving a crash of THIS process:
// FileStore hands each entry to the OS per append but does not fsync it
// — a kernel panic or power loss may lose the newest entries unless the
// caller pays for Sync (the hub's SyncPolicy group-commits one Sync per
// applied batch). Append must not retain e's slices after returning —
// callers may reuse the backing arrays.
type Journal interface {
	Append(ctx context.Context, e JournalEntry) error
	// Rotate seals the live segment and begins a fresh empty one; later
	// Appends land in the new segment. Sealed segments are never written
	// again and remain readable (OpenCursor) as the audit trail. The
	// hub's checkpointer calls Rotate after each successful checkpoint,
	// so the live segment holds only entries the latest checkpoint may
	// not cover — which is what bounds a recovery cursor, and therefore
	// restart time, by checkpoint cadence. Rotation is bookkeeping, not
	// durability: a failed Rotate leaves the journal appending to the old
	// segment, fully recoverable, just less tightly bounded.
	Rotate(ctx context.Context) error
	// Sync forces everything appended so far onto stable storage
	// (fsync), upgrading those entries from process-crash durability to
	// power-loss durability. A no-op in memory.
	Sync(ctx context.Context) error
	Close() error
}

// JournalCursor streams journal entries in append order, one at a time.
// Next returns io.EOF after the final entry (the clean end of the
// stream) and ErrJournalTruncated — possibly wrapped with the torn
// segment's context — in io.EOF's place when the live segment's final
// record is torn by a crash: every valid entry has been yielded by
// then, and the torn record was never durable, so recovery treats the
// sentinel as a clean end. Any other error is real corruption or I/O
// failure. After the first non-nil error the cursor is exhausted and
// Next keeps returning the same error. Cursors are not safe for
// concurrent use; Close releases the cursor's resources and must be
// called exactly as for any io.Closer, whether or not the stream was
// drained.
//
// Each entry's slices (Grad, LabelCounts) are the cursor's own memory,
// valid until the next Next or Close — the bufio.Scanner.Bytes rule — so
// a scan keeps resident memory at O(one entry) however long the journal
// is and allocates no model-sized gradient per entry; a caller that keeps
// an entry past that copies its slices. DeviceID is a fresh string
// (Replay may make it a registry key).
type JournalCursor interface {
	Next() (JournalEntry, error)
	Close() error
}

// Store persists one task's learning state: atomic checkpoints plus the
// write-ahead checkin journal. Implementations must be safe for
// concurrent use; Save, Load and open cursors may race an open
// journal's Appends.
type Store interface {
	// Save atomically replaces the checkpoint with the given state. It
	// must not retain state (or anything state references) after
	// returning: the hub's checkpointer exports into one buffer it reuses.
	Save(ctx context.Context, state *core.ServerState, now time.Time) error
	// Load reads the most recent checkpoint, or ErrNoCheckpoint.
	Load(ctx context.Context) (*Checkpoint, error)
	// OpenJournal opens (creating if needed) the task's journal for
	// appending. Entries appended across opens accumulate.
	OpenJournal(ctx context.Context) (Journal, error)
	// OpenCursor opens a streaming read over the journal suffix a
	// recovery already holding a checkpoint at afterIteration needs:
	// every entry with Iteration > afterIteration, reading only the
	// trailing segments required. FileStore yields exactly those; another
	// implementation may still lead the stream with covered entries
	// (core.Server.Replay skips them). OpenCursor(ctx, 0)
	// streams the full journal, oldest entry first — the audit scan. A
	// missing journal yields a cursor whose first Next returns io.EOF.
	// Covered segments and entries are ruled out on frame headers, never
	// decoded; the cursor holds O(one entry) of decoded state at a time.
	OpenCursor(ctx context.Context, afterIteration int) (JournalCursor, error)
}

// SegmentRetainer is implemented by stores whose journal supports
// automated retention of sealed segments (FileStore does). The
// hub's checkpointer calls PruneSegments after each successful
// checkpoint-and-rotate cycle when a retention policy is attached.
type SegmentRetainer interface {
	// PruneSegments removes sealed journal segments that the checkpoint
	// at coveredIteration fully covers: a segment is eligible only if it
	// is not the live (newest) segment and its LAST entry's iteration is
	// at or below coveredIteration (journal iterations are monotone, so
	// every entry in it is then covered; an empty sealed segment is
	// trivially covered). Segments are pruned oldest-first and the walk
	// stops at the first ineligible one, so an interrupted prune leaves
	// exactly the state of a smaller completed prune — a contiguous
	// suffix of the journal, always recoverable.
	//
	// With archiveDir == "", eligible segments are deleted. Otherwise
	// they are moved into archiveDir (created if needed), keeping their
	// segment file names — the audit trail lives on, readable by opening
	// a FileStore on archiveDir (what crowdml-server -dump-journal does).
	// Returns the names of the segments pruned or archived.
	PruneSegments(ctx context.Context, coveredIteration int, archiveDir string) ([]string, error)
}

// SegmentInfo describes one journal segment for auditing and retention
// tooling.
type SegmentInfo struct {
	// Name is the segment's file name within the store directory.
	Name string
	// Seq is the segment's position in the chain, numbered from 1.
	Seq int
	// Sealed reports whether the segment has been sealed by a rotation:
	// immutable, fsynced, eligible for retention once a checkpoint
	// covers it. The newest segment is the live one (Sealed == false).
	Sealed bool
}

// Root is a namespace of per-task stores — the store-side counterpart of
// a Hub. A restarted process lists the tasks that have persisted state
// and opens each task's Store to restore it (see hub.Hub.Restore).
type Root interface {
	// List returns the task IDs with persisted state, sorted.
	List(ctx context.Context) ([]string, error)
	// Open returns the store for one task, creating it if needed.
	Open(ctx context.Context, taskID string) (Store, error)
}
