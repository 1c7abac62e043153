package store

import (
	"context"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"

	"github.com/crowdml/crowdml/internal/core"
)

const lockFileName = "LOCK"

// FileStore persists checkpoints and journals under a directory:
// checkpoint.ckpt (one wirecodec checkpoint frame, atomic write-to-temp +
// rename) and a segmented journal-*.wal write-ahead log (append-only, one
// write per entry). A directory written by a release that kept the
// checkpoint as checkpoint.json is read as it is; the first Save replaces
// that file with checkpoint.ckpt.
//
// A store directory belongs to ONE live journal at a time: OpenJournal
// repairs (truncates) a crash-torn journal tail, so a second process
// opening the same directory while the first is appending could destroy
// a half-flushed live record. OpenJournal therefore takes an advisory
// flock on the directory's LOCK file, held until the journal is closed;
// a conflicting open fails with ErrStoreLocked instead of racing. (The
// kernel releases the lock when a crashed holder dies, so recovery is
// never blocked by a stale lock file.)
type FileStore struct {
	dir string

	saveMu sync.Mutex        // serializes Save, which owns enc
	enc    checkpointEncoder // reused by every Save
}

var _ Store = (*FileStore)(nil)

const (
	checkpointName       = "checkpoint.ckpt"
	legacyCheckpointName = "checkpoint.json"
)

// NewFileStore creates (if necessary) and opens a store directory.
func NewFileStore(dir string) (*FileStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: create dir: %w", err)
	}
	return &FileStore{dir: dir}, nil
}

// Dir returns the store directory.
func (f *FileStore) Dir() string { return f.dir }

// openCheckpoint opens the checkpoint: checkpoint.ckpt, or the legacy
// checkpoint.json when there is no frame yet (a crash between a first
// Save's rename and its removal of the legacy file leaves both, and the
// frame is the newer). fs.ErrNotExist means neither exists.
func (f *FileStore) openCheckpoint() (*os.File, error) {
	file, err := os.Open(filepath.Join(f.dir, checkpointName))
	if errors.Is(err, fs.ErrNotExist) {
		file, err = os.Open(filepath.Join(f.dir, legacyCheckpointName))
	}
	return file, err
}

// HasCheckpoint cheaply reports whether a checkpoint has been saved —
// an existence probe, without decoding the state (callers that need the
// contents use Load).
func (f *FileStore) HasCheckpoint(ctx context.Context) (bool, error) {
	if err := ctx.Err(); err != nil {
		return false, err
	}
	file, err := f.openCheckpoint()
	if errors.Is(err, fs.ErrNotExist) {
		return false, nil
	}
	if err != nil {
		return false, err
	}
	file.Close()
	return true, nil
}

// Save atomically writes a checkpoint of the given state: the frame is
// encoded into the store's own buffer and reaches the temp file in one
// write, so a steady-state Save allocates nothing of the state's size.
func (f *FileStore) Save(ctx context.Context, state *core.ServerState, now time.Time) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if state == nil {
		return errors.New("store: nil state")
	}
	f.saveMu.Lock()
	defer f.saveMu.Unlock()
	frame, err := f.enc.encode(state, now.UnixMilli())
	if err != nil {
		return err
	}
	err = writeFileAtomic(filepath.Join(f.dir, checkpointName), func(w io.Writer) error {
		_, err := w.Write(frame)
		return err
	})
	if err != nil {
		return fmt.Errorf("store: save checkpoint: %w", err)
	}
	// A legacy document goes only now that the frame is in place: until
	// then it was the checkpoint. Usually there is none to remove; a failed
	// removal is retried by the next Save, and Load prefers the frame.
	_ = os.Remove(filepath.Join(f.dir, legacyCheckpointName))
	// Sync the directory so the rename itself survives a machine crash.
	// Best-effort HERE only: a checkpoint whose rename is lost to power
	// failure costs a longer journal replay, never data — the journal
	// covers every acknowledged checkin regardless.
	_ = syncDir(f.dir)
	return nil
}

// writeFileAtomic is the package's one temp → write → fsync → close →
// rename sequence: path either keeps what it held or holds everything
// write produced, never a prefix, and a failure at any step leaves no
// temp file behind. Making the rename itself durable (syncDir) is left to
// the caller, because callers differ in whether a lost rename loses data.
func writeFileAtomic(path string, write func(w io.Writer) error) error {
	// Every failing call below is an *os.PathError (or write's own error)
	// that already names the step and the file.
	tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".*.tmp")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // no-op after the successful rename
	if err := write(tmp); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// syncDir fsyncs a directory, making file creates and renames inside it
// durable against machine crashes. Filesystems that refuse directory
// fsync (EINVAL) are tolerated — on those there is nothing stronger to
// offer; any other failure is reported so callers for whom the dirent's
// durability is load-bearing (Rotate under a fsyncing SyncPolicy) can
// treat it as fatal.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	if err := d.Sync(); err != nil && !errors.Is(err, syscall.EINVAL) {
		return err
	}
	return nil
}

// Load reads the most recent checkpoint. It returns ErrNoCheckpoint when
// none has been saved.
func (f *FileStore) Load(ctx context.Context) (*Checkpoint, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	file, err := f.openCheckpoint()
	if errors.Is(err, fs.ErrNotExist) {
		return nil, ErrNoCheckpoint
	}
	if err != nil {
		return nil, fmt.Errorf("store: read checkpoint: %w", err)
	}
	defer file.Close()
	return DecodeCheckpoint(file)
}

// Segments returns the journal's segments, oldest first, with their
// sealed-vs-live status: every segment except the newest is sealed (a
// rotation sealed it when it created its successor), and the newest is
// the live one. Empty when no journal exists yet. A directory holding a
// *.jsonl segment is refused with ErrLegacyJournal — every journal
// operation lists segments first, so none half-reads a mixed directory.
func (f *FileStore) Segments(ctx context.Context) ([]SegmentInfo, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	entries, err := os.ReadDir(f.dir)
	if err != nil {
		return nil, fmt.Errorf("store: list segments: %w", err)
	}
	var segs []SegmentInfo
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		if strings.HasSuffix(e.Name(), ".jsonl") {
			return nil, fmt.Errorf("%w (found %s)", ErrLegacyJournal, filepath.Join(f.dir, e.Name()))
		}
		if seq, ok := segmentSeq(e.Name()); ok {
			segs = append(segs, SegmentInfo{Name: e.Name(), Seq: seq, Sealed: true})
		}
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].Seq < segs[j].Seq })
	if n := len(segs); n > 0 {
		segs[n-1].Sealed = false
	}
	return segs, nil
}

// The rest of segmentChain: a segment is a file in the store directory.

func (f *FileStore) openSegment(name string) (segmentImage, int64, error) {
	file, err := os.Open(filepath.Join(f.dir, name))
	if err != nil {
		return nil, 0, err
	}
	info, err := file.Stat()
	if err != nil {
		file.Close()
		return nil, 0, err
	}
	return file, info.Size(), nil
}

func (f *FileStore) removeSegment(name string) error {
	return os.Remove(filepath.Join(f.dir, name))
}

func (f *FileStore) renameSegment(name, dst string) error {
	return os.Rename(filepath.Join(f.dir, name), dst)
}

// fileJournal is the append-only segmented journal behind a FileStore.
// It is safe for concurrent use; a shutdown-path Close can race in-flight
// Appends and Rotates.
type fileJournal struct {
	dir string

	mu     sync.Mutex
	file   *os.File // live segment
	buf    []byte   // frame staging, reused by every Append under mu
	seq    int      // live segment's sequence number
	lock   *os.File // flock'd LOCK file, held until Close
	closed bool
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
// and OpenJournal refuses to touch it.
func (f *FileStore) OpenJournal(ctx context.Context) (Journal, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	lock, err := acquireDirLock(filepath.Join(f.dir, lockFileName))
	if err != nil {
		return nil, err
	}
	ok := false
	defer func() {
		if !ok {
			releaseDirLock(lock)
		}
	}()
	f.removeOrphanedTemps()
	segs, err := f.Segments(ctx)
	if err != nil {
		return nil, err
	}
	seq := 1
	if len(segs) > 0 {
		seq = segs[len(segs)-1].Seq
	}
	file, err := os.OpenFile(filepath.Join(f.dir, segmentName(seq)), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: open journal: %w", err)
	}
	if err := f.repairTornTail(segmentName(seq)); err != nil {
		file.Close()
		return nil, fmt.Errorf("store: repair journal tail: %w", err)
	}
	ok = true
	return &fileJournal{dir: f.dir, file: file, seq: seq, lock: lock}, nil
}

// removeOrphanedTemps deletes the checkpoint temp files a process killed
// between writeFileAtomic's CreateTemp and its rename left behind — each a
// whole checkpoint in size, and nothing else ever looks at them. Called
// under the directory lock, before this process's checkpointer can have a
// temp file of its own. Best-effort: a leftover costs disk, never
// correctness, and the next open tries again.
func (f *FileStore) removeOrphanedTemps() {
	entries, _ := os.ReadDir(f.dir) // Segments reports a directory that cannot be read
	for _, e := range entries {
		if name := e.Name(); strings.HasPrefix(name, "checkpoint") && strings.HasSuffix(name, ".tmp") {
			_ = os.Remove(filepath.Join(f.dir, name))
		}
	}
}

// acquireDirLock takes the store directory's lock on its LOCK file,
// creating it if needed; lockFile and unlockFile are the platform's.
func acquireDirLock(path string) (*os.File, error) {
	lock, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: open lock file: %w", err)
	}
	if err := lockFile(lock); err != nil {
		lock.Close()
		if errors.Is(err, errLockHeld) {
			return nil, fmt.Errorf("%s: %w", path, ErrStoreLocked)
		}
		return nil, fmt.Errorf("store: lock %s: %w", path, err)
	}
	return lock, nil
}

func releaseDirLock(lock *os.File) {
	unlockFile(lock)
	_ = lock.Close()
}

// repairTornTail truncates the live segment back to its last valid frame
// when (and only when) a scan classifies its tail as torn. The scan
// repeats after each cut: it CRC-checks only the final frame, and a power
// loss can leave several bad frames at the end — the frame a cut exposes
// must verify too, or the next append (O_APPEND: at the new end) would
// bury it mid-segment.
func (f *FileStore) repairTornTail(name string) error {
	for {
		file, sr, err := readSegment(f, name, 0, nil)
		if err != nil {
			return err
		}
		_, err = sr.lastIteration()
		file.Close()
		if !errors.Is(err, errTorn) {
			return err
		}
		if err := os.Truncate(filepath.Join(f.dir, name), sr.off); err != nil {
			return fmt.Errorf("truncate torn tail: %w", err)
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
	if j.closed {
		return errors.New("store: append to closed journal")
	}
	buf, err := appendEntry(j.buf[:0], &e)
	if err != nil {
		return fmt.Errorf("store: encode journal entry: %w", err)
	}
	j.buf = buf
	if _, err := j.file.Write(buf); err != nil {
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
	if j.closed {
		return errors.New("store: rotate on closed journal")
	}
	// Seal durably: everything in the old segment reaches stable storage
	// before the rotation is visible. The checkpoint that triggered this
	// rotation was itself fsynced, so after a rotation the sealed chain +
	// checkpoint survive power loss regardless of SyncPolicy.
	if err := j.file.Sync(); err != nil {
		return fmt.Errorf("store: sync before rotate: %w", err)
	}
	next, err := os.OpenFile(filepath.Join(j.dir, segmentName(j.seq+1)), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("store: create next segment: %w", err)
	}
	// The new segment's directory entry must be durable BEFORE appends
	// move into it: under a fsyncing SyncPolicy, Journal.Sync fsyncs
	// file contents only, so a dirent lost to power failure would take
	// every post-rotation "synced" entry with it. A failed directory
	// sync therefore fails the rotation (appends stay in the old, known-
	// durable segment, and the checkpointer retries next time) instead
	// of being quietly dropped.
	if err := syncDir(j.dir); err != nil {
		next.Close()
		return fmt.Errorf("store: sync dir for next segment: %w", err)
	}
	old := j.file
	j.file, j.seq = next, j.seq+1
	if err := old.Close(); err != nil {
		return fmt.Errorf("store: close sealed segment: %w", err)
	}
	return nil
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
	defer releaseDirLock(j.lock)
	return j.file.Close()
}

// OpenCursor opens the streaming journal read (see openCursor).
func (f *FileStore) OpenCursor(ctx context.Context, afterIteration int) (JournalCursor, error) {
	return openCursor(ctx, f, afterIteration)
}

var _ SegmentRetainer = (*FileStore)(nil)

// PruneSegments implements automated retention (see pruneChain).
func (f *FileStore) PruneSegments(ctx context.Context, coveredIteration int, archiveDir string) ([]string, error) {
	pruned, err := pruneChain(ctx, f, coveredIteration, archiveDir)
	if len(pruned) > 0 {
		// Make the removals durable so a machine crash cannot resurrect a
		// pruned dirent. Best-effort: a resurrected segment only lengthens
		// the audit trail, it cannot affect recovery (its entries are all
		// covered by the checkpoint).
		_ = syncDir(f.dir)
	}
	return pruned, err
}

// FileRoot exposes a directory of per-task FileStores: each immediate
// subdirectory is one task's store, named by task ID — the layout
// cmd/crowdml-server's -state-dir produces.
type FileRoot struct {
	dir string
}

var _ Root = (*FileRoot)(nil)

// NewFileRoot creates (if necessary) and opens a root directory.
func NewFileRoot(dir string) (*FileRoot, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: create root dir: %w", err)
	}
	return &FileRoot{dir: dir}, nil
}

// Dir returns the root directory.
func (r *FileRoot) Dir() string { return r.dir }

// List returns the task IDs with a store subdirectory, sorted.
func (r *FileRoot) List(ctx context.Context) ([]string, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	entries, err := os.ReadDir(r.dir)
	if err != nil {
		return nil, fmt.Errorf("store: list root: %w", err)
	}
	var ids []string
	for _, e := range entries {
		if e.IsDir() {
			ids = append(ids, e.Name())
		}
	}
	sort.Strings(ids)
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
	return NewFileStore(filepath.Join(r.dir, taskID))
}
