package store

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io/fs"
	"slices"
	"sort"
	"sync"
	"syscall"
	"time"

	"github.com/crowdml/crowdml/internal/core"
)

// MemStore is an in-memory Store for tests, benchmarks and embedded use.
// It holds what FileStore holds — the encoded checkpoint frame and a
// chain of segments of journal frames — as byte slices instead of files,
// and reads them through the same cursor and retention code, so a "crash"
// is simulated by dropping the server while keeping the MemStore. For the
// same reason it does NOT enforce FileStore's one-live-journal lock:
// reopening after a simulated crash is the point.
type MemStore struct {
	mu    sync.Mutex
	cp    []byte // the checkpoint frame, nil before the first Save
	chain memChain

	saveMu sync.Mutex        // serializes Save, which owns enc
	enc    checkpointEncoder // its buffer and cp trade places on every Save
}

var _ Store = (*MemStore)(nil)

// NewMemStore returns an empty in-memory store.
func NewMemStore() *MemStore {
	return &MemStore{chain: memChain{segs: make([][]byte, 1), seqBase: 1}}
}

// Save replaces the checkpoint with the encoding of the given state, so
// later mutations of the live server never reach back into the snapshot.
// The previous checkpoint's bytes become the next Save's buffer.
func (m *MemStore) Save(ctx context.Context, state *core.ServerState, now time.Time) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if state == nil {
		return errors.New("store: nil state")
	}
	m.saveMu.Lock()
	defer m.saveMu.Unlock()
	frame, err := m.enc.encode(state, now.UnixMilli())
	if err != nil {
		return err
	}
	m.mu.Lock()
	m.cp, m.enc.buf = frame, m.cp
	m.mu.Unlock()
	return nil
}

// Load decodes the most recent checkpoint, or returns ErrNoCheckpoint. It
// decodes under the store lock: a later Save encodes over these bytes.
func (m *MemStore) Load(ctx context.Context) (*Checkpoint, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.cp == nil {
		return nil, ErrNoCheckpoint
	}
	return decodeCheckpoint(m.cp)
}

// memChain is MemStore's segmentChain: each segment is its frames in one
// byte slice, appended to and never rewritten, so any prefix of it — in
// particular the one a value copy of the chain pins — is immutable. It
// does no locking of its own: the store's chain is used under MemStore.mu,
// a cursor's private copy needs none.
type memChain struct {
	segs [][]byte // oldest first; the last is the live segment
	// seqBase is segs[0]'s sequence number; it advances as retention
	// prunes leading segments.
	seqBase int
}

func (c *memChain) Segments(ctx context.Context) ([]SegmentInfo, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	segs := make([]SegmentInfo, len(c.segs))
	for i := range segs {
		segs[i] = SegmentInfo{Name: segmentName(c.seqBase + i), Seq: c.seqBase + i, Sealed: i < len(segs)-1}
	}
	return segs, nil
}

// memImage is an open in-memory segment; there is nothing to release.
type memImage struct{ *bytes.Reader }

func (memImage) Close() error { return nil }

func (c *memChain) openSegment(name string) (segmentImage, int64, error) {
	seq, _ := segmentSeq(name)
	if i := seq - c.seqBase; i >= 0 && i < len(c.segs) {
		return memImage{bytes.NewReader(c.segs[i])}, int64(len(c.segs[i])), nil
	}
	return nil, 0, fmt.Errorf("segment %s: %w", name, fs.ErrNotExist)
}

// removeSegment drops the oldest sealed segment — the only one the
// oldest-first prune walk ever takes.
func (c *memChain) removeSegment(name string) error {
	if name != segmentName(c.seqBase) || len(c.segs) < 2 {
		return fmt.Errorf("segment %s is not the oldest sealed segment", name)
	}
	c.segs, c.seqBase = c.segs[1:], c.seqBase+1
	return nil
}

// renameSegment: memory is on no volume a rename could reach, so archiving
// always takes the copy path a FileStore takes across filesystems.
func (c *memChain) renameSegment(name, dst string) error { return syscall.EXDEV }

// memJournal appends into its MemStore's live segment; entries survive
// Close and journal reopens, like files on disk.
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

// Append encodes the entry's frame onto the live segment, retaining
// nothing of e. Bytes already in the segment are never touched — growing
// it either writes past them or moves to a new array — which is what
// keeps an open cursor's image stable without a lock.
func (j *memJournal) Append(ctx context.Context, e JournalEntry) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	j.m.mu.Lock()
	defer j.m.mu.Unlock()
	segs := j.m.chain.segs
	seg, err := appendEntry(segs[len(segs)-1], &e)
	if err != nil {
		return fmt.Errorf("store: encode journal entry: %w", err)
	}
	segs[len(segs)-1] = seg
	return nil
}

// Rotate seals the live segment and begins a fresh one.
func (j *memJournal) Rotate(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	j.m.mu.Lock()
	j.m.chain.segs = append(j.m.chain.segs, nil)
	j.m.mu.Unlock()
	return nil
}

// Sync is a no-op: every Append is already "durable" in memory.
func (j *memJournal) Sync(ctx context.Context) error { return ctx.Err() }

// Close is a no-op: every Append is already "durable" in memory.
func (j *memJournal) Close() error { return nil }

// SegmentCount reports the number of journal segments (sealed + live) —
// the quick probe tests use for rotation behavior.
func (m *MemStore) SegmentCount() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.chain.segs)
}

// Segments lists the segment chain oldest first, under the names
// PruneSegments archives them as, with sealed-vs-live status.
func (m *MemStore) Segments(ctx context.Context) ([]SegmentInfo, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.chain.Segments(ctx)
}

// OpenCursor opens the streaming journal read (see openCursor) over a
// point-in-time copy of the chain, which racing appends, rotations and
// prunes never disturb.
func (m *MemStore) OpenCursor(ctx context.Context, afterIteration int) (JournalCursor, error) {
	m.mu.Lock()
	snapshot := memChain{segs: slices.Clone(m.chain.segs), seqBase: m.chain.seqBase}
	m.mu.Unlock()
	return openCursor(ctx, &snapshot, afterIteration)
}

var _ SegmentRetainer = (*MemStore)(nil)

// PruneSegments implements automated retention (see pruneChain). The
// whole walk holds the store lock — including the archive file writes —
// so a concurrent PruneSegments (or a racing Rotate) can never re-check a
// segment this call is mid-way through removing. MemStore is the
// test/embedded backend; briefly blocking an Append behind an archive
// write is a fair price for the check-then-remove atomicity.
func (m *MemStore) PruneSegments(ctx context.Context, coveredIteration int, archiveDir string) ([]string, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return pruneChain(ctx, &m.chain, coveredIteration, archiveDir)
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
