package store

import (
	"context"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/crowdml/crowdml/internal/core"
	"github.com/crowdml/crowdml/internal/wirecodec"
)

const lockFileName = "LOCK"

// FileStore persists checkpoints and journals under a directory:
// checkpoint.ckpt (one wirecodec checkpoint frame, atomic write-to-temp +
// rename) and a segmented journal-*.wal write-ahead log (append-only, one
// write per entry). A directory still holding a pre-frame release's
// checkpoint.json or *.jsonl segments is refused (ErrLegacyJournal).
//
// A store directory belongs to ONE live journal at a time: OpenJournal
// repairs (truncates) a crash-torn journal tail, so a second process
// opening the same directory while the first is appending could destroy
// a half-flushed live record. OpenJournal therefore takes an advisory
// flock on the directory's LOCK file, held until the journal is closed;
// a conflicting open fails with ErrStoreLocked instead of racing. (The
// kernel releases the lock when a crashed holder dies, so recovery is
// never blocked by a stale lock file.)
//
// Every file operation goes through the store's fileSystem: the disk for
// NewFileStore, memory for NewMemStore.
type FileStore struct {
	fsys fileSystem
	dir  string

	saveMu sync.Mutex // serializes Save, which owns frame
	frame  []byte     // the checkpoint frame, its memory reused by every Save

	ix atomic.Pointer[chainIndex] // the open journal's index of the chain; nil while none is open
}

var _ Store = (*FileStore)(nil)

const (
	checkpointName       = "checkpoint.ckpt"
	legacyCheckpointName = "checkpoint.json"
)

// NewFileStore creates (if necessary) and opens a store directory.
func NewFileStore(dir string) (*FileStore, error) { return newFileStore(osFS{}, dir) }

func newFileStore(fsys fileSystem, dir string) (*FileStore, error) {
	if err := fsys.MkdirAll(dir); err != nil {
		return nil, fmt.Errorf("store: create dir: %w", err)
	}
	return &FileStore{fsys: fsys, dir: dir}, nil
}

// HasCheckpoint cheaply reports whether a checkpoint has been saved —
// an existence probe, without decoding the state (callers that need the
// contents use Load).
func (f *FileStore) HasCheckpoint(ctx context.Context) (bool, error) {
	if err := ctx.Err(); err != nil {
		return false, err
	}
	_, err := f.fsys.Stat(filepath.Join(f.dir, checkpointName))
	if errors.Is(err, fs.ErrNotExist) {
		return false, nil
	}
	return err == nil, err
}

// Save atomically writes a checkpoint of the given state: the frame is
// encoded into the store's own buffer and reaches the temp file in one
// write, so a steady-state Save of a warm export (rows already sorted)
// allocates nothing of the state's size; a state keyed by ID is first
// sorted into rows of its own.
func (f *FileStore) Save(ctx context.Context, state *core.ServerState, now time.Time) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if state == nil {
		return errors.New("store: nil state")
	}
	f.saveMu.Lock()
	defer f.saveMu.Unlock()
	frame, err := wirecodec.AppendCheckpoint(f.frame[:0], state, now.UnixMilli())
	if err != nil {
		return fmt.Errorf("store: encode checkpoint: %w", err)
	}
	f.frame = frame
	err = f.writeFileAtomic(filepath.Join(f.dir, checkpointName), func(w io.Writer) error {
		_, err := w.Write(frame)
		return err
	})
	if err != nil {
		return fmt.Errorf("store: save checkpoint: %w", err)
	}
	// Sync the directory so the rename itself survives a machine crash.
	// Best-effort HERE only: a checkpoint whose rename is lost to power
	// failure costs a longer journal replay, never data — the journal
	// covers every acknowledged checkin regardless.
	_ = f.fsys.SyncDir(f.dir)
	return nil
}

// writeFileAtomic is the package's one temp → write → fsync → close →
// rename sequence: path either keeps what it held or holds everything
// write produced, never a prefix, and a failure at any step leaves no
// temp file behind. Making the rename itself durable (SyncDir) is left to
// the caller, because callers differ in whether a lost rename loses data.
func (f *FileStore) writeFileAtomic(path string, write func(w io.Writer) error) error {
	// Every failing call below returns an error (or write's own) that
	// already names the step and the file.
	tmp, err := f.fsys.CreateTemp(path)
	if err != nil {
		return err
	}
	err = write(tmp)
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = f.fsys.Rename(tmp.Name(), path)
	}
	if err != nil {
		_ = f.fsys.Remove(tmp.Name())
	}
	return err
}

// Load reads the most recent checkpoint. It returns ErrNoCheckpoint when
// none has been saved.
func (f *FileStore) Load(ctx context.Context) (*Checkpoint, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	image, size, err := f.fsys.Open(filepath.Join(f.dir, checkpointName))
	if errors.Is(err, fs.ErrNotExist) {
		return nil, ErrNoCheckpoint
	}
	if err != nil {
		return nil, fmt.Errorf("store: read checkpoint: %w", err)
	}
	defer image.Close()
	// The size is known, so the frame is read once into a buffer of
	// exactly its length, and a file longer than any frame is refused
	// before a byte of it is held.
	if size > wirecodec.MaxPayload {
		return nil, fmt.Errorf("store: checkpoint is longer than %d bytes: %w", wirecodec.MaxPayload, wirecodec.ErrFrame)
	}
	frame := make([]byte, size)
	if n, err := image.ReadAt(frame, 0); n < len(frame) {
		return nil, fmt.Errorf("store: read checkpoint: %w", err)
	}
	st, savedAt, err := wirecodec.DecodeCheckpoint(frame)
	if err != nil {
		return nil, fmt.Errorf("store: decode checkpoint: %w", err)
	}
	return &Checkpoint{SavedAtUnixMillis: savedAt, State: st}, nil
}

// Segments returns the journal's segments, oldest first, with their
// sealed-vs-live status: every segment except the newest is sealed (a
// rotation sealed it when it created its successor), and the newest is
// the live one. Empty when no journal exists yet. An open journal's index
// answers; otherwise a directory holding a *.jsonl segment or a
// checkpoint.json is refused with ErrLegacyJournal — every journal
// operation without that index, OpenJournal included, lists segments
// first, so none half-reads a mixed directory, and a task is never
// created over one.
func (f *FileStore) Segments(ctx context.Context) ([]SegmentInfo, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if x := f.ix.Load(); x != nil {
		x.mu.Lock()
		defer x.mu.Unlock()
		return x.infos(0, len(x.segs)), nil
	}
	_, segs, err := f.list()
	return segs, err
}

// SegmentCount is len(Segments) without the copy: an open journal's index
// answers under its lock, and a store without one lists the directory.
func (f *FileStore) SegmentCount(ctx context.Context) (int, error) {
	if x := f.ix.Load(); x != nil && ctx.Err() == nil {
		x.mu.Lock()
		defer x.mu.Unlock()
		return len(x.segs), nil
	}
	segs, err := f.Segments(ctx)
	return len(segs), err
}

// list reads the store directory once: its entries, and the journal's
// segments among them as Segments reports them, legacy refusal included.
func (f *FileStore) list() ([]fs.DirEntry, []SegmentInfo, error) {
	entries, err := f.fsys.ReadDir(f.dir)
	if err != nil {
		return nil, nil, fmt.Errorf("store: list segments: %w", err)
	}
	var segs []SegmentInfo
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		switch name := e.Name(); {
		case strings.HasSuffix(name, ".jsonl"):
			return nil, nil, fmt.Errorf("%w: found %s: stop the old binary cleanly (its final checkpoint then covers "+
				"the whole journal), move the .jsonl files to the archive, then start this binary", ErrLegacyJournal, filepath.Join(f.dir, name))
		case name == legacyCheckpointName:
			return nil, nil, fmt.Errorf("%w: found %s: run a PR 18-20 release on this directory until its first "+
				"checkpoint replaces the file with %s, then start this binary", ErrLegacyJournal, filepath.Join(f.dir, name), checkpointName)
		}
		// Names are zero-padded, so name order is sequence order.
		if seq, ok := segmentSeq(e.Name()); ok {
			segs = append(segs, SegmentInfo{Name: e.Name(), Seq: seq, Sealed: true})
		}
	}
	if n := len(segs); n > 0 {
		segs[n-1].Sealed = false
	}
	return entries, segs, nil
}

// fileJournal is the append-only segmented journal behind a FileStore.
// It is safe for concurrent use; a shutdown-path Close can race in-flight
// Appends and Rotates.
type fileJournal struct {
	f *FileStore

	mu     sync.Mutex
	file   file        // live segment
	buf    []byte      // frame staging, reused by every Append under mu
	seq    int         // live segment's sequence number
	ix     *chainIndex // this journal's index, published on f until Close
	lock   io.Closer   // the LOCK file's lock, held until Close
	closed bool
	// refused, once set, fails every later Append and Rotate: a failed
	// Rotate left a successor segment behind that it could not remove.
	refused error
}

// OpenJournal opens the journal for appending: it takes the store
// directory's advisory lock (ErrStoreLocked if a live journal already
// holds it), opens the newest segment — creating journal-0000000001.wal
// for a fresh store — removes checkpoint temp files a killed process left
// behind, and repairs a crash-torn tail first. The live
// segment ends at the last frame whose CRC verifies: a final frame cut
// short or failing its CRC was never durable, so its checkin was never
// acknowledged, and it is truncated away — appending after it would
// strand unreadable bytes mid-file and poison every later read. The
// repair removes EXACTLY what a cursor reports as ErrJournalTruncated;
// damage with a valid frame after it is corruption no crash produces,
// and OpenJournal refuses to touch it. One listing (refusing a legacy
// journal first) and the repair's walk build the chainIndex reads use.
func (f *FileStore) OpenJournal(ctx context.Context) (Journal, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	lock, err := f.fsys.Lock(filepath.Join(f.dir, lockFileName))
	if err != nil {
		return nil, err
	}
	ok := false
	defer func() {
		if !ok {
			lock.Close()
		}
	}()
	f.ix.Store(nil) // a journal a store in memory left open (a simulated crash) keeps its index to itself
	entries, segs, err := f.list()
	if err != nil {
		return nil, err
	}
	f.removeOrphanedTemps(entries)
	if len(segs) == 0 {
		segs = []SegmentInfo{{Name: segmentName(1), Seq: 1}}
	}
	x, bound := &chainIndex{segs: make([]chainSeg, len(segs))}, math.MaxInt
	for i := len(segs) - 1; i >= 0; i-- { // a sealed segment ends before the first frame after it
		x.segs[i] = chainSeg{name: segs[i].Name, seq: segs[i].Seq, last: bound}
		if first, ok := f.firstIteration(segs[i].Name); ok {
			bound = min(bound, first-1)
		}
	}
	live := &x.segs[len(segs)-1]
	file, err := f.fsys.OpenAppend(filepath.Join(f.dir, live.name))
	if err != nil {
		return nil, fmt.Errorf("store: open journal: %w", err)
	}
	if live.last, err = f.repairTornTail(live.name); err != nil {
		file.Close()
		return nil, fmt.Errorf("store: repair journal tail: %w", err)
	}
	f.ix.Store(x)
	ok = true
	return &fileJournal{f: f, file: file, seq: live.seq, ix: x, lock: lock}, nil
}

// removeOrphanedTemps deletes, from OpenJournal's listing, the checkpoint
// temp files a process killed between writeFileAtomic's CreateTemp and its
// rename left behind — each a whole checkpoint in size, and nothing else
// ever looks at them. Called under the directory lock, before this
// process's checkpointer can have a temp file of its own. Best-effort: a
// leftover costs disk, never correctness, and the next open tries again.
func (f *FileStore) removeOrphanedTemps(entries []fs.DirEntry) {
	for _, e := range entries {
		if name := e.Name(); strings.HasPrefix(name, "checkpoint") && strings.HasSuffix(name, ".tmp") {
			_ = f.fsys.Remove(filepath.Join(f.dir, name))
		}
	}
}

// repairTornTail truncates the live segment back to its last valid frame
// when (and only when) a scan classifies its tail as torn. The scan
// repeats after each cut: it CRC-checks only the final frame, and a power
// loss can leave several bad frames at the end — the frame a cut exposes
// must verify too, or the next append (O_APPEND: at the new end) would
// bury it mid-segment. It returns the repaired segment's last iteration
// (-1 if it has no frame).
func (f *FileStore) repairTornTail(name string) (int, error) {
	for {
		file, sr, err := readSegment(f, name, 0, nil)
		if err != nil {
			return 0, err
		}
		last, err := sr.lastIteration()
		file.Close()
		if !errors.Is(err, errTorn) {
			return last, err
		}
		if err := f.fsys.Truncate(filepath.Join(f.dir, name), sr.off); err != nil {
			return 0, fmt.Errorf("truncate torn tail: %w", err)
		}
	}
}

// Append encodes the entry into the journal's own buffer and hands the
// whole frame to the OS in one write, so a crashed server process loses
// at most the entry being written — the torn tail ErrJournalTruncated
// tolerates. The write runs before the originating Checkin is
// acknowledged (write-ahead ordering). There is no per-entry fsync:
// durability is against process crashes, not power loss, unless the
// caller follows up with Sync (the hub's SyncBatch group commit).
func (j *fileJournal) Append(ctx context.Context, e JournalEntry) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if err := j.usable("append to"); err != nil {
		return err
	}
	buf, err := appendEntry(j.buf[:0], &e)
	if err != nil {
		return fmt.Errorf("store: encode journal entry: %w", err)
	}
	j.buf = buf
	_, err = j.file.Write(buf)
	j.ix.appended(e.Iteration)
	if err != nil {
		return fmt.Errorf("store: append journal: %w", err)
	}
	return nil
}

// Sync fsyncs the live segment, upgrading everything appended so far to
// power-loss durability.
func (j *fileJournal) Sync(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return errors.New("store: sync on closed journal")
	}
	if err := j.file.Sync(); err != nil {
		return fmt.Errorf("store: sync journal: %w", err)
	}
	return nil
}

// Rotate seals the live segment — fsynced, closed, never written again —
// and starts appending to a fresh numbered segment. The new segment is
// created (and the directory synced) BEFORE the old file is closed, so a
// failure at any step leaves the journal appending where it was:
// rotation can be retried on the next checkpoint, and no failure path
// loses the append handle.
func (j *fileJournal) Rotate(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if err := j.usable("rotate on"); err != nil {
		return err
	}
	// Seal durably: everything in the old segment reaches stable storage
	// before the rotation is visible. The checkpoint that triggered this
	// rotation was itself fsynced, so after a rotation the sealed chain +
	// checkpoint survive power loss regardless of SyncPolicy.
	if err := j.file.Sync(); err != nil {
		return fmt.Errorf("store: sync before rotate: %w", err)
	}
	name := segmentName(j.seq + 1)
	path := filepath.Join(j.f.dir, name)
	next, err := j.f.fsys.OpenAppend(path)
	if err != nil {
		return fmt.Errorf("store: create next segment: %w", err)
	}
	// The new segment's directory entry must be durable BEFORE appends
	// move into it: under a fsyncing SyncPolicy, Journal.Sync fsyncs
	// file contents only, so a dirent lost to power failure would take
	// every post-rotation "synced" entry with it. A failed directory
	// sync therefore fails the rotation (appends stay in the old, known-
	// durable segment, and the checkpointer retries next time) instead
	// of being quietly dropped — and takes the new file with it: left in
	// place, it would be the newest segment, so Segments would call the
	// segment still being appended to sealed, and a crash tearing its tail
	// would make it unrecoverable. If even the removal fails, the journal
	// refuses to go on, and the hub fail-stops the task.
	if err := j.f.fsys.SyncDir(j.f.dir); err != nil {
		next.Close()
		err = fmt.Errorf("store: sync dir for next segment: %w", err)
		if rmErr := j.f.fsys.Remove(path); rmErr != nil {
			j.refused = fmt.Errorf("store: journal refuses appends after a failed rotation left %s: %w", path, rmErr)
			return errors.Join(err, j.refused)
		}
		return err
	}
	old := j.file
	j.file, j.seq = next, j.seq+1
	j.ix.mu.Lock()
	if n := len(j.ix.segs); n > 1 { // a segment sealed empty keeps the bound before it
		j.ix.segs[n-1].last = max(j.ix.segs[n-1].last, j.ix.segs[n-2].last)
	}
	j.ix.segs = append(j.ix.segs, chainSeg{name: name, seq: j.seq, last: -1})
	j.ix.mu.Unlock()
	if err := old.Close(); err != nil {
		return fmt.Errorf("store: close sealed segment: %w", err)
	}
	return nil
}

// usable reports why the journal takes no more appends or rotations.
func (j *fileJournal) usable(op string) error {
	if j.closed {
		return fmt.Errorf("store: %s closed journal", op)
	}
	return j.refused
}

// Close closes the journal, then releases the store directory's advisory
// lock. Idempotent: later calls return nil (a retried durability flush
// re-runs Close after a failed checkpoint save).
func (j *fileJournal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return nil
	}
	j.closed = true
	j.f.ix.CompareAndSwap(j.ix, nil)
	defer j.lock.Close()
	return j.file.Close()
}

var _ SegmentRetainer = (*FileStore)(nil)

// PruneSegments implements automated retention (see pruneChain).
func (f *FileStore) PruneSegments(ctx context.Context, coveredIteration int, archiveDir string) ([]string, error) {
	pruned, err := f.pruneChain(ctx, coveredIteration, archiveDir)
	if len(pruned) > 0 {
		// Make the removals durable so a machine crash cannot resurrect a
		// pruned dirent. Best-effort: a resurrected segment only lengthens
		// the audit trail, it cannot affect recovery (its entries are all
		// covered by the checkpoint).
		_ = f.fsys.SyncDir(f.dir)
	}
	return pruned, err
}

// FileRoot exposes a directory of per-task FileStores: each immediate
// subdirectory is one task's store, named by task ID — the layout
// cmd/crowdml-server's -state-dir produces.
type FileRoot struct {
	fsys fileSystem
	dir  string
}

var _ Root = (*FileRoot)(nil)

// NewFileRoot creates (if necessary) and opens a root directory.
func NewFileRoot(dir string) (*FileRoot, error) {
	if err := (osFS{}).MkdirAll(dir); err != nil {
		return nil, fmt.Errorf("store: create root dir: %w", err)
	}
	return &FileRoot{fsys: osFS{}, dir: dir}, nil
}

// List returns the task IDs with a store subdirectory, sorted.
func (r *FileRoot) List(ctx context.Context) ([]string, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	entries, err := r.fsys.ReadDir(r.dir)
	if err != nil {
		return nil, fmt.Errorf("store: list root: %w", err)
	}
	var ids []string
	for _, e := range entries {
		if e.IsDir() {
			ids = append(ids, e.Name())
		}
	}
	return ids, nil
}

// Open returns the FileStore for one task, creating its directory if
// needed. The task ID must be a single clean path element — no
// separators or dot paths — so a config-supplied ID can never place a
// store outside the root.
func (r *FileRoot) Open(ctx context.Context, taskID string) (Store, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if taskID == "" || taskID == "." || taskID == ".." ||
		strings.ContainsAny(taskID, `/\`) {
		return nil, fmt.Errorf("store: task ID %q is not a valid store name", taskID)
	}
	return newFileStore(r.fsys, filepath.Join(r.dir, taskID))
}
