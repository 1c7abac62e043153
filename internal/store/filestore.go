package store

import (
	"bytes"
	"context"
	"encoding/json"
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

// Journal segment naming. The journal is a sequence of segment files,
// journal-0000000001.wal, journal-0000000002.wal, …, each a run of
// wirecodec journal frames (see segment.go); the highest sequence number
// is the live (appended-to) segment and every lower one is sealed. The
// suffix differs from earlier releases' JSONL segments so the formats
// cannot be confused: *.jsonl files are refused with ErrLegacyJournal.
const (
	segmentPrefix  = "journal-"
	segmentSuffix  = ".wal"
	segmentPattern = segmentPrefix + "%010d" + segmentSuffix
	lockFileName   = "LOCK"
)

// FileStore persists checkpoints and journals under a directory:
// checkpoint.json (atomic write-to-temp + rename) and a segmented
// journal-*.wal write-ahead log (append-only, one write per entry).
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
}

var _ Store = (*FileStore)(nil)

// NewFileStore creates (if necessary) and opens a store directory.
func NewFileStore(dir string) (*FileStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: create dir: %w", err)
	}
	return &FileStore{dir: dir}, nil
}

// Dir returns the store directory.
func (f *FileStore) Dir() string { return f.dir }

// HasCheckpoint cheaply reports whether a checkpoint has been saved —
// an existence probe, without decoding the state (callers that need the
// contents use Load).
func (f *FileStore) HasCheckpoint(ctx context.Context) (bool, error) {
	if err := ctx.Err(); err != nil {
		return false, err
	}
	_, err := os.Stat(f.checkpointPath())
	if errors.Is(err, fs.ErrNotExist) {
		return false, nil
	}
	if err != nil {
		return false, err
	}
	return true, nil
}

func (f *FileStore) checkpointPath() string {
	return filepath.Join(f.dir, "checkpoint.json")
}

// Save atomically writes a checkpoint of the given state.
func (f *FileStore) Save(ctx context.Context, state *core.ServerState, now time.Time) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if state == nil {
		return errors.New("store: nil state")
	}
	tmp, err := os.CreateTemp(f.dir, "checkpoint-*.tmp")
	if err != nil {
		return fmt.Errorf("store: temp file: %w", err)
	}
	tmpName := tmp.Name()
	defer os.Remove(tmpName) // no-op after successful rename
	// Compact JSON out of the encoder's pooled buffer in one write: no
	// indented second copy of the whole document.
	cp := Checkpoint{SavedAtUnixMillis: now.UnixMilli(), State: state}
	if err := json.NewEncoder(tmp).Encode(&cp); err != nil {
		tmp.Close()
		return fmt.Errorf("store: write checkpoint: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("store: sync checkpoint: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("store: close checkpoint: %w", err)
	}
	if err := os.Rename(tmpName, f.checkpointPath()); err != nil {
		return fmt.Errorf("store: publish checkpoint: %w", err)
	}
	// Sync the directory so the rename itself survives a machine crash
	// (the temp file's contents were already synced above). Best-effort
	// HERE only: a checkpoint whose rename is lost to power failure
	// costs a longer journal replay, never data — the journal covers
	// every acknowledged checkin regardless.
	_ = syncDir(f.dir)
	return nil
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
	payload, err := os.ReadFile(f.checkpointPath())
	if errors.Is(err, fs.ErrNotExist) {
		return nil, ErrNoCheckpoint
	}
	if err != nil {
		return nil, fmt.Errorf("store: read checkpoint: %w", err)
	}
	var cp Checkpoint
	if err := json.Unmarshal(payload, &cp); err != nil {
		return nil, fmt.Errorf("store: decode checkpoint: %w", err)
	}
	if cp.State == nil {
		return nil, errors.New("store: checkpoint missing state")
	}
	return &cp, nil
}

// segmentSeq parses a segment file name into its sequence number (≥ 1).
func segmentSeq(name string) (int, bool) {
	var seq int
	if _, err := fmt.Sscanf(name, segmentPattern, &seq); err != nil || seq < 1 {
		return 0, false
	}
	return seq, name == fmt.Sprintf(segmentPattern, seq)
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
// for a fresh store — and repairs a crash-torn tail first. The live
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
	segs, err := f.Segments(ctx)
	if err != nil {
		return nil, err
	}
	seq := 1
	if len(segs) > 0 {
		seq = segs[len(segs)-1].Seq
	}
	path := filepath.Join(f.dir, fmt.Sprintf(segmentPattern, seq))
	file, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: open journal: %w", err)
	}
	if err := repairTornTail(path); err != nil {
		file.Close()
		return nil, fmt.Errorf("store: repair journal tail: %w", err)
	}
	ok = true
	return &fileJournal{dir: f.dir, file: file, seq: seq, lock: lock}, nil
}

// repairTornTail truncates the live segment back to its last valid frame
// when (and only when) a scan classifies its tail as torn. The scan
// repeats after each cut: it CRC-checks only the final frame, and a power
// loss can leave several bad frames at the end — the frame a cut exposes
// must verify too, or the next append (O_APPEND: at the new end) would
// bury it mid-segment.
func repairTornTail(path string) error {
	for {
		file, sr, err := openSegment(path, 0, nil)
		if err != nil {
			return err
		}
		_, err = sr.lastIteration()
		file.Close()
		if !errors.Is(err, errTorn) {
			return err
		}
		if err := os.Truncate(path, sr.off); err != nil {
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
	next, err := os.OpenFile(filepath.Join(j.dir, fmt.Sprintf(segmentPattern, j.seq+1)),
		os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
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

// OpenCursor opens the streaming journal read. Segment selection walks
// the chain newest-first reading only each segment's FIRST frame header:
// the walk stops at the first segment whose first iteration is at or
// below afterIteration+1, because every earlier segment then holds only
// iterations the checkpoint already covers (journal iterations strictly
// increase) — recovery cost tracks rotation cadence, not journal size. A
// segment with no readable first header cannot prove coverage, so the
// walk keeps going — erring toward streaming more, never less. Within the
// chosen segments, covered frames are skipped on their headers.
func (f *FileStore) OpenCursor(ctx context.Context, afterIteration int) (JournalCursor, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	segs, err := f.Segments(ctx)
	if err != nil {
		return nil, err
	}
	start := 0
	if afterIteration > 0 {
		for i := len(segs) - 1; i >= 0; i-- {
			if first, ok := f.firstIterationOf(segs[i].Name); ok && first <= afterIteration+1 {
				start = i
				break
			}
		}
	}
	return &fileCursor{dir: f.dir, segs: segs[start:], after: afterIteration}, nil
}

// firstIterationOf reads a segment's first frame header; ok is false when
// there is none to trust (empty, torn, just pruned, unreadable — the
// cursor that then covers the segment will say which).
func (f *FileStore) firstIterationOf(name string) (first int, ok bool) {
	file, sr, err := openSegment(filepath.Join(f.dir, name), 0, nil)
	if err != nil {
		return 0, false
	}
	defer file.Close()
	first, _, err = sr.frameAt(0)
	return first, err == nil
}

// fileCursor streams journal segments oldest-first, frame by frame,
// holding one open file and one decoded entry at a time. A torn tail on
// the LIVE (newest) segment — the expected artifact of a crash
// mid-append — ends the stream with ErrJournalTruncated after every valid
// entry has been yielded; in a sealed segment (which no crash can tear),
// or with valid frames after it, damage is corruption and a hard error.
type fileCursor struct {
	dir   string
	segs  []SegmentInfo // remaining + current, oldest first
	idx   int           // the open segment, or the next to open once file is nil
	after int           // skip iterations at or below this

	file *os.File
	sr   segmentReader

	err error // latched terminal state (io.EOF, ErrJournalTruncated, or a hard error)
}

var _ JournalCursor = (*fileCursor)(nil)

// fail latches a terminal error and returns it.
func (c *fileCursor) fail(err error) (JournalEntry, error) {
	c.Close()
	c.err = err
	return JournalEntry{}, err
}

// Next returns the next journal entry, io.EOF at the clean end of the
// chain, or ErrJournalTruncated (wrapped with the segment context) in
// io.EOF's place when the live segment ends in a crash-torn frame.
func (c *fileCursor) Next() (JournalEntry, error) {
	if c.err != nil {
		return JournalEntry{}, c.err
	}
	for {
		if c.idx >= len(c.segs) {
			return c.fail(io.EOF)
		}
		name := c.segs[c.idx].Name
		if c.file == nil {
			// The buffer and the floor carry over: ordering spans segments.
			file, sr, err := openSegment(filepath.Join(c.dir, name), c.sr.floor, c.sr.buf)
			if errors.Is(err, fs.ErrNotExist) {
				c.idx++ // raced a concurrent prune; nothing to read here
				continue
			}
			if err != nil {
				return c.fail(fmt.Errorf("store: open journal segment %s: %w", name, err))
			}
			c.file, c.sr = file, sr
		}
		e, err := c.sr.next(c.after)
		switch {
		case err == nil:
			return e, nil
		case errors.Is(err, io.EOF):
			c.file.Close()
			c.file = nil
			c.idx++
		case errors.Is(err, errTorn) && c.idx == len(c.segs)-1:
			return c.fail(fmt.Errorf("store: journal segment %s: %v: %w", name, err, ErrJournalTruncated))
		default:
			return c.fail(fmt.Errorf("store: journal segment %s: %w", name, err))
		}
	}
}

// Close releases the cursor's open segment file, if any.
func (c *fileCursor) Close() error {
	if c.err == nil {
		c.err = errors.New("store: cursor closed")
	}
	if c.file != nil {
		err := c.file.Close()
		c.file = nil
		return err
	}
	return nil
}

var _ SegmentRetainer = (*FileStore)(nil)

// PruneSegments implements automated retention: sealed segments whose
// last record's iteration is at or below coveredIteration are removed
// (archiveDir == "") or moved into archiveDir, oldest first, stopping
// at the first segment a checkpoint at coveredIteration does not fully
// cover. The live segment is never touched. Pruning oldest-first means
// an interruption at any point (crash mid-prune) leaves exactly the
// state of a smaller completed prune: a contiguous journal suffix, fully
// recoverable.
func (f *FileStore) PruneSegments(ctx context.Context, coveredIteration int, archiveDir string) ([]string, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	segs, err := f.Segments(ctx)
	if err != nil {
		return nil, err
	}
	if archiveDir != "" {
		if err := os.MkdirAll(archiveDir, 0o755); err != nil {
			return nil, fmt.Errorf("store: create archive dir: %w", err)
		}
	}
	var pruned []string
	for _, seg := range segs {
		if !seg.Sealed {
			break // the live segment (always last) is never pruned
		}
		last, err := f.lastIterationOf(seg.Name)
		if err != nil {
			return pruned, fmt.Errorf("store: journal segment %s: %w", seg.Name, err)
		}
		// Journal iterations are monotone, so a sealed segment whose last
		// entry the checkpoint covers is covered in full (an empty one,
		// reporting -1, trivially); the first uncovered one ends the walk.
		if last > coveredIteration {
			break
		}
		path := filepath.Join(f.dir, seg.Name)
		if archiveDir != "" {
			if err := moveFile(path, filepath.Join(archiveDir, seg.Name)); err != nil {
				return pruned, fmt.Errorf("store: archive segment %s: %w", seg.Name, err)
			}
		} else if err := os.Remove(path); err != nil {
			return pruned, fmt.Errorf("store: prune segment %s: %w", seg.Name, err)
		}
		pruned = append(pruned, seg.Name)
	}
	if len(pruned) > 0 {
		// Make the removals durable so a machine crash cannot resurrect a
		// pruned dirent. Best-effort: a resurrected segment only lengthens
		// the audit trail, it cannot affect recovery (its entries are all
		// covered by the checkpoint).
		_ = syncDir(f.dir)
	}
	return pruned, nil
}

// moveFile moves src to dst, preferring a plain rename and falling back
// to copy-then-remove when the two sit on different filesystems (EXDEV)
// — an archive directory on a separate audit volume is the natural
// deployment, and rename alone would fail every retention cycle there.
// The copy lands via a temp file + rename inside the destination
// directory, so a crash mid-copy never leaves a half-written file under
// the segment's name, and the source is removed only after the copy is
// fsynced — a crash between the two leaves a duplicate, never a loss.
//
// An EXISTING dst is never overwritten: archived segments are the audit
// trail, and a name collision means either a misconfiguration (two
// tasks sharing one archive directory, a store restored from backup
// re-issuing sequence numbers) — refused with an error — or the
// crash-duplicate this function's own copy path can leave, recognized
// by identical contents and resolved by just removing the source.
func moveFile(src, dst string) error {
	if _, err := os.Lstat(dst); err == nil {
		same, err := sameContents(src, dst)
		if err != nil {
			return err
		}
		if !same {
			return fmt.Errorf("archive destination %s already exists with different contents", dst)
		}
		return os.Remove(src) // duplicate from an interrupted earlier move
	} else if !errors.Is(err, fs.ErrNotExist) {
		return err
	}
	renameErr := os.Rename(src, dst)
	if renameErr == nil {
		return nil
	}
	if !errors.Is(renameErr, syscall.EXDEV) {
		// Only a cross-device rename earns the copy fallback; any other
		// failure (permissions, read-only volume) surfaces as itself so
		// the recorded retention error names the real cause. (Windows
		// reports cross-volume renames with its own error code, not
		// EXDEV — archiving across volumes there surfaces that error
		// rather than silently copying.)
		return renameErr
	}
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	tmp, err := os.CreateTemp(filepath.Dir(dst), filepath.Base(dst)+".tmp-*")
	if err != nil {
		return err
	}
	tmpName := tmp.Name()
	defer os.Remove(tmpName) // no-op after the successful rename
	if _, err := io.Copy(tmp, in); err != nil {
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
	if err := os.Rename(tmpName, dst); err != nil {
		return err
	}
	// The destination dirent must be durable BEFORE the source unlink:
	// otherwise a machine crash could make the unlink durable while the
	// never-synced archive dirent is not, losing the segment from both
	// directories. (The plain-rename path above has no such window —
	// rename is atomic, so the segment is always in exactly one place.)
	if err := syncDir(filepath.Dir(dst)); err != nil {
		return err
	}
	return os.Remove(src)
}

// sameContents streams two files side by side, reporting whether their
// bytes are identical — O(one buffer) memory, like every other read in
// this package.
func sameContents(a, b string) (bool, error) {
	fa, err := os.Open(a)
	if err != nil {
		return false, err
	}
	defer fa.Close()
	fb, err := os.Open(b)
	if err != nil {
		return false, err
	}
	defer fb.Close()
	bufA, bufB := make([]byte, 64*1024), make([]byte, 64*1024)
	for {
		na, errA := io.ReadFull(fa, bufA)
		nb, errB := io.ReadFull(fb, bufB)
		if na != nb || !bytes.Equal(bufA[:na], bufB[:nb]) {
			return false, nil
		}
		endA := errors.Is(errA, io.EOF) || errors.Is(errA, io.ErrUnexpectedEOF)
		endB := errors.Is(errB, io.EOF) || errors.Is(errB, io.ErrUnexpectedEOF)
		switch {
		case errA == nil && errB == nil:
			continue
		case endA && endB:
			return true, nil
		case endA != endB:
			return false, nil
		default:
			if errA != nil && !endA {
				return false, errA
			}
			return false, errB
		}
	}
}

// lastIterationOf finds a sealed segment's final iteration by hopping
// its frame headers (-1 when it is empty). A sealed segment whose tail
// does not verify is damage (sealing fsyncs the file) and an error.
func (f *FileStore) lastIterationOf(name string) (int, error) {
	file, sr, err := openSegment(filepath.Join(f.dir, name), 0, nil)
	if err != nil {
		return 0, err
	}
	defer file.Close()
	return sr.lastIteration()
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
