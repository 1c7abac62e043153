package store

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"os"

	"github.com/crowdml/crowdml/internal/wirecodec"
)

// A journal segment is wirecodec.KindJournal frames laid end to end, the
// same frames the replication feed ships (docs/WIRE.md). This file is the
// one place entries turn into frames and back; FileStore's segments,
// MemStore's archive writer and the feed all go through it.

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

// openSegment opens a segment file for reading as it is now, accepting
// iterations from floor up and staging frames in buf.
func openSegment(path string, floor int, buf []byte) (*os.File, segmentReader, error) {
	file, err := os.Open(path)
	if err != nil {
		return nil, segmentReader{}, err
	}
	info, err := file.Stat()
	if err != nil {
		file.Close()
		return nil, segmentReader{}, err
	}
	return file, segmentReader{ra: file, size: info.Size(), floor: floor, hopped: -1, buf: buf}, nil
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
