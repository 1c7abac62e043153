package store

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"github.com/crowdml/crowdml/internal/core"
)

// MemStore is an in-memory Store for tests, benchmarks and embedded use.
// It provides the same semantics as FileStore — atomic checkpoint
// replacement, a segmented append-only journal that survives journal
// reopens and rotations — without touching the filesystem, so a "crash"
// is simulated by dropping the server while keeping the MemStore. For
// the same reason it does NOT enforce FileStore's one-live-journal lock:
// reopening after a simulated crash is the point.
type MemStore struct {
	mu       sync.Mutex
	cp       *Checkpoint
	segments [][]JournalEntry // oldest first; the last is the live segment
	// seqBase is segments[0]'s chain sequence number; it advances as
	// retention prunes leading segments, so archived segment names stay
	// aligned with the positions FileStore would have used.
	seqBase int
}

var _ Store = (*MemStore)(nil)

// NewMemStore returns an empty in-memory store.
func NewMemStore() *MemStore {
	return &MemStore{segments: make([][]JournalEntry, 1), seqBase: 1}
}

// Save replaces the checkpoint with a deep copy of the given state, so
// later mutations of the live server never reach back into the snapshot.
func (m *MemStore) Save(ctx context.Context, state *core.ServerState, now time.Time) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if state == nil {
		return errors.New("store: nil state")
	}
	cp, err := deepCopyCheckpoint(&Checkpoint{SavedAtUnixMillis: now.UnixMilli(), State: state})
	if err != nil {
		return err
	}
	m.mu.Lock()
	m.cp = cp
	m.mu.Unlock()
	return nil
}

// Load returns a deep copy of the most recent checkpoint, or
// ErrNoCheckpoint.
func (m *MemStore) Load(ctx context.Context) (*Checkpoint, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	m.mu.Lock()
	cp := m.cp
	m.mu.Unlock()
	if cp == nil {
		return nil, ErrNoCheckpoint
	}
	return deepCopyCheckpoint(cp)
}

// deepCopyCheckpoint clones a checkpoint through its JSON form — the
// same round-trip a FileStore checkpoint takes, so the two backends
// cannot drift in what survives persistence.
func deepCopyCheckpoint(cp *Checkpoint) (*Checkpoint, error) {
	payload, err := json.Marshal(cp)
	if err != nil {
		return nil, fmt.Errorf("store: encode checkpoint: %w", err)
	}
	var out Checkpoint
	if err := json.Unmarshal(payload, &out); err != nil {
		return nil, fmt.Errorf("store: decode checkpoint: %w", err)
	}
	if out.State == nil {
		return nil, errors.New("store: checkpoint missing state")
	}
	return &out, nil
}

// memJournal appends into its MemStore's shared segment log; entries
// survive Close and journal reopens, like files on disk.
type memJournal struct {
	m *MemStore
}

// OpenJournal opens the store's journal for appending.
func (m *MemStore) OpenJournal(ctx context.Context) (Journal, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return &memJournal{m: m}, nil
}

// Append records a deep copy of the entry in the live segment (the
// Journal contract lets callers reuse e's slices after Append returns).
func (j *memJournal) Append(ctx context.Context, e JournalEntry) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if e.Grad != nil {
		e.Grad = append([]float64(nil), e.Grad...)
	}
	if e.LabelCounts != nil {
		e.LabelCounts = append([]int(nil), e.LabelCounts...)
	}
	j.m.mu.Lock()
	live := len(j.m.segments) - 1
	j.m.segments[live] = append(j.m.segments[live], e)
	j.m.mu.Unlock()
	return nil
}

// Rotate seals the live segment and begins a fresh one, mirroring
// FileStore's segment semantics so the conformance suite (and the hub's
// bounded-recovery behavior) holds on both backends.
func (j *memJournal) Rotate(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	j.m.mu.Lock()
	j.m.segments = append(j.m.segments, nil)
	j.m.mu.Unlock()
	return nil
}

// Sync is a no-op: every Append is already "durable" in memory.
func (j *memJournal) Sync(ctx context.Context) error { return ctx.Err() }

// Close is a no-op: every Append is already "durable" in memory.
func (j *memJournal) Close() error { return nil }

// SegmentCount reports the number of journal segments (sealed + live) —
// the quick probe tests use for rotation behavior; Segments is the full
// FileStore-parity listing.
func (m *MemStore) SegmentCount() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.segments)
}

// Segments mirrors FileStore.Segments: the segment chain oldest first,
// with synthesized FileStore-style names (aligned with what PruneSegments
// archives them as) and sealed-vs-live status.
func (m *MemStore) Segments(ctx context.Context) ([]SegmentInfo, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	segs := make([]SegmentInfo, len(m.segments))
	for i := range m.segments {
		seq := m.seqBase + i
		segs[i] = SegmentInfo{
			Name:   fmt.Sprintf(segmentPattern, seq),
			Seq:    seq,
			Sealed: i < len(m.segments)-1,
		}
	}
	return segs, nil
}

// OpenCursor mirrors FileStore's streaming read: the cursor yields the
// entries past afterIteration oldest-first, deep-copying one entry per
// Next (covered ones cost a comparison, not a copy), over a point-in-time
// snapshot of the segment chain that racing appends, rotations and
// prunes never disturb.
func (m *MemStore) OpenCursor(ctx context.Context, afterIteration int) (JournalCursor, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	// Copy the outer slice only: the inner segment slices are append-only
	// (a racing Append may grow the live segment's backing array, but the
	// snapshot's header pins the entries visible at open time).
	return &memCursor{segs: append([][]JournalEntry(nil), m.segments...), after: afterIteration}, nil
}

// memCursor iterates a snapshot of the segment chain. Its terminal
// states mirror fileCursor's exactly — io.EOF latched at the drained
// end, a "cursor closed" error latched by a mid-stream Close — so a
// use-after-close bug fails the same way on both backends instead of
// reading as a clean-but-truncated stream here.
type memCursor struct {
	segs  [][]JournalEntry
	i, j  int
	after int   // skip iterations at or below this
	err   error // latched terminal state
}

var _ JournalCursor = (*memCursor)(nil)

func (c *memCursor) Next() (JournalEntry, error) {
	if c.err != nil {
		return JournalEntry{}, c.err
	}
	for c.i < len(c.segs) {
		if c.j < len(c.segs[c.i]) {
			e := c.segs[c.i][c.j]
			c.j++
			if e.Iteration <= c.after {
				continue
			}
			if e.Grad != nil {
				e.Grad = append([]float64(nil), e.Grad...)
			}
			if e.LabelCounts != nil {
				e.LabelCounts = append([]int(nil), e.LabelCounts...)
			}
			return e, nil
		}
		c.i, c.j = c.i+1, 0
	}
	c.err = io.EOF
	return JournalEntry{}, io.EOF
}

func (c *memCursor) Close() error {
	if c.err == nil {
		c.err = errors.New("store: cursor closed")
	}
	return nil
}

var _ SegmentRetainer = (*MemStore)(nil)

// PruneSegments mirrors FileStore's retention semantics: sealed
// segments (every segment but the last) whose last entry is at or below
// coveredIteration are dropped oldest-first, stopping at the first
// uncovered one; the live segment is never touched. With archiveDir
// set, each pruned segment is first written out as the segment file
// FileStore would have held under the same name, so the archived audit
// trail is the same artifact on both backends.
func (m *MemStore) PruneSegments(ctx context.Context, coveredIteration int, archiveDir string) ([]string, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if archiveDir != "" {
		if err := os.MkdirAll(archiveDir, 0o755); err != nil {
			return nil, fmt.Errorf("store: create archive dir: %w", err)
		}
	}
	// The whole walk holds the store lock — including the archive file
	// writes — so a concurrent PruneSegments (or a racing Rotate) can
	// never re-check a segment this call is mid-way through removing.
	// MemStore is the test/embedded backend; briefly blocking an Append
	// behind an archive write is a fair price for the check-then-remove
	// atomicity.
	m.mu.Lock()
	defer m.mu.Unlock()
	var pruned []string
	for len(m.segments) > 1 {
		seg, seq := m.segments[0], m.seqBase
		if len(seg) > 0 && seg[len(seg)-1].Iteration > coveredIteration {
			break
		}
		name := fmt.Sprintf(segmentPattern, seq)
		if archiveDir != "" {
			if err := writeSegmentFile(filepath.Join(archiveDir, name), seg); err != nil {
				return pruned, err
			}
		}
		m.segments = m.segments[1:]
		m.seqBase++
		pruned = append(pruned, name)
	}
	return pruned, nil
}

// writeSegmentFile renders one archived segment through the encoder
// FileStore appends with. O_EXCL: archived segments are the audit trail,
// and a name collision (two tasks sharing one archive directory) must
// surface as an error, never silently truncate earlier history.
func writeSegmentFile(path string, seg []JournalEntry) error {
	var buf []byte
	for i := range seg {
		var err error
		if buf, err = appendEntry(buf, &seg[i]); err != nil {
			return fmt.Errorf("store: encode archived entry: %w", err)
		}
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("store: archive segment: %w", err)
	}
	if _, err := f.Write(buf); err != nil {
		f.Close()
		return fmt.Errorf("store: write archived segment: %w", err)
	}
	return f.Close()
}

// MemRoot is an in-memory Root: a process-lifetime namespace of
// MemStores. Opening the same task ID twice returns the same store, so a
// hub "restarted" against the same MemRoot sees the previous instance's
// state — the crash-recovery tests are built on exactly that.
type MemRoot struct {
	mu     sync.Mutex
	stores map[string]*MemStore
}

var _ Root = (*MemRoot)(nil)

// NewMemRoot returns an empty in-memory root.
func NewMemRoot() *MemRoot {
	return &MemRoot{stores: make(map[string]*MemStore)}
}

// List returns the task IDs opened so far, sorted.
func (r *MemRoot) List(ctx context.Context) ([]string, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	ids := make([]string, 0, len(r.stores))
	for id := range r.stores {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids, nil
}

// Open returns the task's MemStore, creating it on first open.
func (r *MemRoot) Open(ctx context.Context, taskID string) (Store, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	st, ok := r.stores[taskID]
	if !ok {
		st = NewMemStore()
		r.stores[taskID] = st
	}
	return st, nil
}
