package store

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math"
	"path/filepath"
	"syscall"

	"github.com/crowdml/crowdml/internal/wirecodec"
)

// A journal segment is wirecodec.KindJournal frames laid end to end, the
// same frames the replication feed ships (docs/WIRE.md), and a journal is
// a chain of named segments, journal-0000000001.wal,
// journal-0000000002.wal, …: the highest sequence number is the live
// (appended-to) segment and every lower one is sealed. This file is the
// one place entries turn into frames and back and the one implementation
// of reading, pruning and archiving a chain, all of it through the
// FileStore's fileSystem. The suffix differs from earlier releases' JSONL
// segments so the formats cannot be confused: *.jsonl files are refused
// with ErrLegacyJournal.
const (
	segmentPrefix  = "journal-"
	segmentSuffix  = ".wal"
	segmentPattern = segmentPrefix + "%010d" + segmentSuffix
)

// segmentName names the segment at a chain position (numbered from 1).
func segmentName(seq int) string { return fmt.Sprintf(segmentPattern, seq) }

// segmentSeq parses a segment name into its sequence number (≥ 1).
func segmentSeq(name string) (int, bool) {
	var seq int
	if _, err := fmt.Sscanf(name, segmentPattern, &seq); err != nil || seq < 1 {
		return 0, false
	}
	return seq, name == segmentName(seq)
}

// appendEntry appends e's frame to dst. It retains nothing of e.
func appendEntry(dst []byte, e *JournalEntry) ([]byte, error) {
	return wirecodec.AppendJournal(dst, &wirecodec.Frame{
		Iteration: e.Iteration, DeviceID: e.DeviceID, AtUnixMillis: e.AtUnixMillis,
		GradNorm1: e.GradNorm1, Version: e.Version, Values: e.Grad,
		NumSamples: e.NumSamples, ErrCount: e.ErrCount, LabelCounts: e.LabelCounts,
	})
}

// entryOf moves a decoded journal frame's fields into an entry. Decode
// allocated the frame's slices, so the entry owns them; empty ones become
// nil, which is what an entry without them was written from.
func entryOf(fr *wirecodec.Frame) JournalEntry {
	e := JournalEntry{
		AtUnixMillis: fr.AtUnixMillis, DeviceID: fr.DeviceID, Iteration: fr.Iteration,
		NumSamples: fr.NumSamples, ErrCount: fr.ErrCount, GradNorm1: fr.GradNorm1,
		Version: fr.Version,
	}
	if len(fr.Values) > 0 {
		e.Grad = fr.Values
	}
	if len(fr.LabelCounts) > 0 {
		e.LabelCounts = fr.LabelCounts
	}
	return e
}

// errTorn reports that a segment's frames stop verifying at the reader's
// offset and nothing after it verifies either: what a crash mid-append
// (or a power loss under SyncNone) leaves. Only a live segment can be
// torn, so the reader reports it and its callers decide.
var errTorn = errors.New("torn tail")

// segmentReader walks the frames of one segment image: the first size
// bytes behind ra, fixed when the segment is opened, so a scan racing
// live appends sees a point-in-time prefix.
type segmentReader struct {
	ra   io.ReaderAt
	size int64
	off  int64 // the next frame's offset; where the damage starts, after errTorn
	// floor is the lowest iteration the next frame may carry: iterations
	// strictly increase (what makes skipping on the header sound), so a
	// frame below the floor is corruption.
	floor int
	// hopped is the offset of the frame just before off when it was
	// passed on its header alone, else -1: the one frame nothing has
	// checked, until the next header parses and vouches for its length.
	hopped int64
	hdr    [wirecodec.HeaderLen]byte
	buf    []byte // frame staging, reused
}

// readSegment opens a segment for reading as it is now, accepting
// iterations from floor up and staging frames in buf.
func readSegment(f *FileStore, name string, floor int, buf []byte) (fileImage, segmentReader, error) {
	image, size, err := f.fsys.Open(filepath.Join(f.dir, name))
	if err != nil {
		return nil, segmentReader{}, err
	}
	return image, segmentReader{ra: image, size: size, floor: floor, hopped: -1, buf: buf}, nil
}

// next returns the next entry whose iteration exceeds after, or io.EOF
// once the image is exhausted. Frames at or below after are hopped over
// on their header alone: no payload read, no decode, no allocation. Where
// the frames stop verifying, the error wraps errTorn if nothing valid
// follows and is plain corruption if something does (see settle).
func (s *segmentReader) next(after int) (JournalEntry, error) {
	for s.off < s.size {
		iter, n, err := s.frameAt(s.off)
		if err != nil {
			return JournalEntry{}, s.settle(err)
		}
		if iter < s.floor {
			return JournalEntry{}, fmt.Errorf("offset %d: iteration %d follows iteration %d", s.off, iter, s.floor-1)
		}
		if iter <= after {
			s.hopped, s.off, s.floor = s.off, s.off+int64(n), iter+1
			continue
		}
		fr, err := s.decodeAt(s.off, n)
		if err != nil {
			return JournalEntry{}, s.settle(err)
		}
		s.hopped, s.off, s.floor = -1, s.off+int64(n), iter+1
		return entryOf(fr), nil
	}
	return JournalEntry{}, s.settle(nil)
}

// lastIteration hops to the image's end and returns the last iteration
// seen (-1 for an empty segment).
func (s *segmentReader) lastIteration() (int, error) {
	if _, err := s.next(math.MaxInt); !errors.Is(err, io.EOF) {
		return 0, err
	}
	return s.floor - 1, nil
}

// frameAt reads the header at off and returns the frame's iteration and
// total length, refusing a frame that would pass the end of the image
// (which bounds what decodeAt stages by the image's size).
func (s *segmentReader) frameAt(off int64) (iter, n int, err error) {
	if s.size-off < wirecodec.HeaderLen {
		return 0, 0, fmt.Errorf("%w: %d trailing bytes are shorter than a header", wirecodec.ErrFrame, s.size-off)
	}
	if _, err := s.ra.ReadAt(s.hdr[:], off); err != nil {
		return 0, 0, fmt.Errorf("read frame header at offset %d: %w", off, err)
	}
	if iter, n, err = wirecodec.JournalFrameLen(s.hdr[:]); err != nil {
		return 0, 0, err
	}
	if int64(n) > s.size-off {
		return 0, 0, fmt.Errorf("%w: frame of %d bytes is cut short at %d", wirecodec.ErrFrame, n, s.size)
	}
	return iter, n, nil
}

// decodeAt reads, verifies and decodes the n-byte frame at off.
func (s *segmentReader) decodeAt(off int64, n int) (*wirecodec.Frame, error) {
	if cap(s.buf) < n {
		s.buf = make([]byte, n)
	}
	if _, err := s.ra.ReadAt(s.buf[:n], off); err != nil {
		return nil, fmt.Errorf("read frame at offset %d: %w", off, err)
	}
	fr, err := wirecodec.Decode(s.buf[:n])
	if err == nil && fr.EOS {
		err = errors.New("feed end-of-stream marker inside a segment")
	}
	return fr, err
}

// settle ends a walk that cannot go on: at the image's end (cause nil),
// or at a frame that does not verify. Either way a frame hopped just
// before was never vouched for, so it is CRC-checked now — the final
// frame is the one a crash tears, and a hop that lands on damage may have
// been sent astray by the hopped frame's own header; if it fails, the
// damage starts there. The image then ends at its last valid frame only
// if NOTHING valid follows the damage: a torn append leaves a prefix of
// one frame (or, after a power loss, zeros) at the very end, while a
// valid frame after it means records were lost mid-segment — bit rot in a
// header would otherwise pass for a tail and get acknowledged checkins
// truncated away — and that is corruption wherever it sits.
func (s *segmentReader) settle(cause error) error {
	if cause != nil && !errors.Is(cause, wirecodec.ErrFrame) {
		return cause
	}
	if s.hopped >= 0 {
		_, n, _ := s.frameAt(s.hopped) // it parsed when it was hopped
		if _, err := s.decodeAt(s.hopped, n); errors.Is(err, wirecodec.ErrFrame) {
			s.off, cause = s.hopped, err
		} else if err != nil {
			return err
		}
		s.hopped = -1
	}
	if cause == nil {
		return io.EOF
	}
	// Scan on for any frame that verifies, a bounded chunk at a time,
	// stepping so a magic straddling two chunks is seen by the next.
	const overlap = int64(len(wirecodec.Magic) - 1)
	chunk := make([]byte, 64<<10)
	for off := s.off + 1; s.size-off > overlap; {
		window := chunk[:min(int64(len(chunk)), s.size-off)]
		if _, err := s.ra.ReadAt(window, off); err != nil {
			return fmt.Errorf("scan past damage at offset %d: %w", s.off, err)
		}
		for i := 0; ; i++ {
			k := bytes.Index(window[i:], []byte(wirecodec.Magic))
			if k < 0 {
				break
			}
			i += k
			if _, n, err := s.frameAt(off + int64(i)); err == nil {
				if _, err := s.decodeAt(off+int64(i), n); err == nil {
					return fmt.Errorf("offset %d: %v, with a valid frame after it at %d", s.off, cause, off+int64(i))
				}
			}
		}
		off += int64(len(window)) - overlap
	}
	return fmt.Errorf("%w from offset %d on: %v", errTorn, s.off, cause)
}

// OpenCursor opens the streaming journal read. Segment selection walks
// the chain newest-first reading only each segment's FIRST frame header:
// the walk stops at the first segment whose first iteration is at or
// below afterIteration+1, because every earlier segment then holds only
// iterations the checkpoint already covers — recovery cost tracks rotation
// cadence, not journal size. A segment with no readable first header
// (empty, torn, just pruned — the cursor that then covers it will say
// which) cannot prove coverage, so the walk keeps going — erring toward
// streaming more, never less.
func (f *FileStore) OpenCursor(ctx context.Context, afterIteration int) (JournalCursor, error) {
	segs, err := f.Segments(ctx)
	if err != nil {
		return nil, err
	}
	start := 0
	if afterIteration > 0 {
		for i := len(segs) - 1; i >= 0; i-- {
			image, sr, err := readSegment(f, segs[i].Name, 0, nil)
			if err != nil {
				continue
			}
			first, _, err := sr.frameAt(0)
			image.Close()
			if err == nil && first <= afterIteration+1 {
				start = i
				break
			}
		}
	}
	return &cursor{f: f, segs: segs[start:], after: afterIteration}, nil
}

// cursor streams a store's segments oldest-first, frame by frame, holding
// one open segment and one decoded entry at a time. A torn tail on the
// LIVE (newest) segment — the expected artifact of a crash mid-append —
// ends the stream with ErrJournalTruncated after every valid entry has
// been yielded; in a sealed segment (which no crash can tear), or with
// valid frames after it, damage is corruption and a hard error.
type cursor struct {
	f     *FileStore
	segs  []SegmentInfo // remaining + current, oldest first
	idx   int           // the open segment, or the next to open once image is nil
	after int           // skip iterations at or below this

	image fileImage
	sr    segmentReader

	err error // latched terminal state (io.EOF, ErrJournalTruncated, or a hard error)
}

// fail latches a terminal error and returns it.
func (c *cursor) fail(err error) (JournalEntry, error) {
	c.Close()
	c.err = err
	return JournalEntry{}, err
}

// Next returns the next journal entry, io.EOF at the clean end of the
// chain, or ErrJournalTruncated (wrapped with the segment context) in
// io.EOF's place when the live segment ends in a crash-torn frame.
func (c *cursor) Next() (JournalEntry, error) {
	if c.err != nil {
		return JournalEntry{}, c.err
	}
	for {
		if c.idx >= len(c.segs) {
			return c.fail(io.EOF)
		}
		name := c.segs[c.idx].Name
		if c.image == nil {
			// The buffer and the floor carry over: ordering spans segments.
			image, sr, err := readSegment(c.f, name, c.sr.floor, c.sr.buf)
			if errors.Is(err, fs.ErrNotExist) {
				c.idx++ // raced a concurrent prune; nothing to read here
				continue
			}
			if err != nil {
				return c.fail(fmt.Errorf("store: open journal segment %s: %w", name, err))
			}
			c.image, c.sr = image, sr
		}
		e, err := c.sr.next(c.after)
		switch {
		case err == nil:
			return e, nil
		case errors.Is(err, io.EOF):
			c.image.Close()
			c.image = nil
			c.idx++
		case errors.Is(err, errTorn) && c.idx == len(c.segs)-1:
			return c.fail(fmt.Errorf("store: journal segment %s: %v: %w", name, err, ErrJournalTruncated))
		default:
			return c.fail(fmt.Errorf("store: journal segment %s: %w", name, err))
		}
	}
}

// Close releases the cursor's open segment, if any.
func (c *cursor) Close() error {
	if c.err == nil {
		c.err = errors.New("store: cursor closed")
	}
	if c.image != nil {
		err := c.image.Close()
		c.image = nil
		return err
	}
	return nil
}

// pruneChain is SegmentRetainer.PruneSegments, which states the contract,
// without the closing directory sync.
func (f *FileStore) pruneChain(ctx context.Context, coveredIteration int, archiveDir string) ([]string, error) {
	segs, err := f.Segments(ctx)
	if err != nil {
		return nil, err
	}
	if archiveDir != "" {
		if err := f.fsys.MkdirAll(archiveDir); err != nil {
			return nil, fmt.Errorf("store: create archive dir: %w", err)
		}
	}
	var pruned []string
	for _, seg := range segs {
		if !seg.Sealed {
			break // the live segment (always last) is never pruned
		}
		// A sealed segment whose tail does not verify is damage (sealing
		// fsyncs the file) and an error, not a torn tail.
		image, sr, err := readSegment(f, seg.Name, 0, nil)
		if err != nil {
			return pruned, fmt.Errorf("store: journal segment %s: %w", seg.Name, err)
		}
		last, err := sr.lastIteration()
		image.Close()
		if err != nil {
			return pruned, fmt.Errorf("store: journal segment %s: %w", seg.Name, err)
		}
		// Journal iterations are monotone, so a sealed segment whose last
		// entry the checkpoint covers is covered in full (an empty one,
		// reporting -1, trivially); the first uncovered one ends the walk.
		if last > coveredIteration {
			break
		}
		if archiveDir != "" {
			if err := f.archiveSegment(seg.Name, filepath.Join(archiveDir, seg.Name)); err != nil {
				return pruned, fmt.Errorf("store: archive segment %s: %w", seg.Name, err)
			}
		} else if err := f.fsys.Remove(filepath.Join(f.dir, seg.Name)); err != nil {
			return pruned, fmt.Errorf("store: prune segment %s: %w", seg.Name, err)
		}
		pruned = append(pruned, seg.Name)
	}
	return pruned, nil
}

// archiveSegment moves a sealed segment to the file dst, preferring a
// plain rename and falling back to copy-then-remove when the rename
// reports EXDEV: the two sit on different filesystems — an archive
// directory on a separate audit volume is the natural deployment, and
// rename alone would fail every retention cycle there. The copy lands through writeFileAtomic, so a crash
// mid-copy never leaves a half-written file under the segment's name, and
// the source is removed only after the copy and its directory entry are
// fsynced: a machine crash could otherwise make the unlink durable while
// the never-synced archive dirent is not, losing the segment from both
// places. A crash between the two leaves a duplicate, never a loss. (The
// rename path has no such window — the segment is always in exactly one
// place. Windows reports cross-volume renames with its own error code, not
// EXDEV — archiving across volumes there surfaces that error rather than
// silently copying.)
//
// An EXISTING dst is never overwritten: archived segments are the audit
// trail, and a name collision means either a misconfiguration (two tasks
// sharing one archive directory, a store restored from backup re-issuing
// sequence numbers) — refused with an error — or the crash-duplicate the
// copy path can leave, recognized by identical contents and resolved by
// just removing the source.
func (f *FileStore) archiveSegment(name, dst string) error {
	src := filepath.Join(f.dir, name)
	if _, err := f.fsys.Stat(dst); err == nil {
		same, err := f.segmentEquals(src, dst)
		if err != nil {
			return err
		}
		if !same {
			return fmt.Errorf("archive destination %s already exists with different contents", dst)
		}
		return f.fsys.Remove(src)
	} else if !errors.Is(err, fs.ErrNotExist) {
		return err
	}
	// Only EXDEV earns the copy fallback; any other failure (permissions,
	// read-only volume) surfaces as itself so the recorded retention error
	// names the real cause.
	if err := f.fsys.Rename(src, dst); !errors.Is(err, syscall.EXDEV) {
		return err
	}
	image, size, err := f.fsys.Open(src)
	if err != nil {
		return err
	}
	err = f.writeFileAtomic(dst, func(w io.Writer) error {
		_, err := io.Copy(w, io.NewSectionReader(image, 0, size))
		return err
	})
	image.Close()
	if err != nil {
		return err
	}
	if err := f.fsys.SyncDir(filepath.Dir(dst)); err != nil {
		return err
	}
	return f.fsys.Remove(src)
}

// segmentEquals reports whether the files at a and b hold the same bytes,
// streaming both side by side — O(one buffer) memory, like every other
// read in this package.
func (f *FileStore) segmentEquals(a, b string) (bool, error) {
	ia, size, err := f.fsys.Open(a)
	if err != nil {
		return false, err
	}
	defer ia.Close()
	ib, sizeB, err := f.fsys.Open(b)
	if err != nil {
		return false, err
	}
	defer ib.Close()
	if sizeB != size {
		return false, nil
	}
	bufA, bufB := make([]byte, 64<<10), make([]byte, 64<<10)
	for off := int64(0); off < size; off += int64(len(bufA)) {
		n := min(int64(len(bufA)), size-off)
		if _, err := io.ReadFull(io.NewSectionReader(ia, off, n), bufA[:n]); err != nil {
			return false, err
		}
		if _, err := io.ReadFull(io.NewSectionReader(ib, off, n), bufB[:n]); err != nil {
			return false, err
		}
		if !bytes.Equal(bufA[:n], bufB[:n]) {
			return false, nil
		}
	}
	return true, nil
}
