package store

import (
	"errors"
	"fmt"
	"io"

	"github.com/crowdml/crowdml/internal/wirecodec"
)

// ErrFeedInterrupted is returned by FeedReader.Next when the byte stream
// stops being a feed before the end-of-stream marker the sender always
// writes last: the connection was cut (a crashed leader, a dropped TCP
// stream, a proxy timeout) or a frame failed its CRC on the way. Every
// entry yielded before that verified, so a follower treats the sentinel
// as "resume after the last iteration I applied", not as corruption.
var ErrFeedInterrupted = errors.New("store: journal feed interrupted before end-of-stream")

// FeedWriter encodes a journal cursor onto a wire stream — the leader
// side of WAL shipping. Entries travel as the wirecodec journal frames
// the store's segments hold, one write per frame out of a pooled buffer
// it takes on the first write and gives back on WriteEOS, so the feed
// holds O(one entry) in memory however long the journal is, and the
// stream doubles as a remote audit scan. A complete response always ends
// with a header-only EOS frame; its absence tells the reader the
// connection died mid-stream (ErrFeedInterrupted).
type FeedWriter struct {
	w  io.Writer
	sc *scratch
}

// NewFeedWriter returns a writer encoding frames onto w. The caller owns
// any flushing (an HTTP handler flushes after each entry so a live tail
// reaches the follower without buffering delay).
func NewFeedWriter(w io.Writer) *FeedWriter {
	return &FeedWriter{w: w}
}

// staging returns the writer's scratch, taking one from the pool first
// if it holds none.
func (fw *FeedWriter) staging() *scratch {
	if fw.sc == nil {
		fw.sc = scratches.Get().(*scratch)
	}
	return fw.sc
}

// WriteEntry encodes one journal entry as a feed frame.
func (fw *FeedWriter) WriteEntry(e JournalEntry) error {
	sc := fw.staging()
	buf, err := appendEntry(sc.buf[:0], &e)
	if err == nil {
		sc.buf = buf
		_, err = fw.w.Write(buf)
	}
	if err != nil {
		return fmt.Errorf("store: write feed entry at iteration %d: %w", e.Iteration, err)
	}
	return nil
}

// WriteEOS terminates the feed with the end-of-stream frame carrying the
// sender's current iteration counter — it can exceed the last streamed
// entry's iteration (checkins applied while the feed drained), never
// trail it — so a follower measures its lag without a second round trip.
// It gives the writer's buffer back to the pool.
func (fw *FeedWriter) WriteEOS(leaderIteration int) error {
	sc := fw.staging()
	sc.buf = wirecodec.AppendJournalEOS(sc.buf[:0], leaderIteration)
	_, err := fw.w.Write(sc.buf)
	scratches.Put(sc)
	fw.sc = nil
	if err != nil {
		return fmt.Errorf("store: write feed EOS: %w", err)
	}
	return nil
}

// FeedReader decodes a journal wire feed — the follower side of WAL
// shipping. Next yields entries in stream order and returns io.EOF after
// the EOS frame (the clean end: LeaderIteration then reports the
// sender's iteration counter), or ErrFeedInterrupted when the stream
// ends, or stops verifying, without one. Like a JournalCursor, after the
// first non-nil error the reader is exhausted and keeps returning it, and
// an entry's Grad and LabelCounts are the reader's own memory, valid
// until the next Next or Close: a caller that keeps them copies them.
type FeedReader struct {
	r               io.Reader
	sc              *scratch // frame staging and decoding, pooled until Close
	err             error
	leaderIteration int
}

// NewFeedReader returns a reader decoding frames from r.
func NewFeedReader(r io.Reader) *FeedReader {
	return &FeedReader{r: r, sc: scratches.Get().(*scratch)}
}

// Next returns the next journal entry from the feed. io.EOF marks the
// clean end of a complete response; ErrFeedInterrupted a cut or garbled
// stream.
func (fr *FeedReader) Next() (JournalEntry, error) {
	if fr.err != nil {
		return JournalEntry{}, fr.err
	}
	frame := &fr.sc.fr
	buf, err := wirecodec.ReadJournal(fr.r, fr.sc.buf, frame)
	fr.sc.buf = buf
	switch {
	case errors.Is(err, io.EOF), errors.Is(err, io.ErrUnexpectedEOF):
		// Raw end of bytes without an EOS frame — between frames or
		// inside one.
		fr.err = ErrFeedInterrupted
	case errors.Is(err, wirecodec.ErrFrame):
		fr.err = fmt.Errorf("%w: %v", ErrFeedInterrupted, err)
	case err != nil:
		fr.err = fmt.Errorf("store: read feed frame: %w", err)
	case frame.EOS:
		fr.leaderIteration = frame.Iteration
		fr.err = io.EOF
	default:
		return entryOf(frame), nil
	}
	return JournalEntry{}, fr.err
}

// LeaderIteration reports the sender's iteration counter from the EOS
// frame; it is meaningful only after Next has returned io.EOF.
func (fr *FeedReader) LeaderIteration() int { return fr.leaderIteration }

// Close gives the reader's scratch back to the pool and closes the
// underlying reader when it is an io.Closer (an HTTP response body). A
// Next after Close returns an error.
func (fr *FeedReader) Close() error {
	if fr.err == nil {
		fr.err = errClosed
	}
	if fr.sc != nil {
		scratches.Put(fr.sc)
		fr.sc = nil
	}
	if c, ok := fr.r.(io.Closer); ok {
		return c.Close()
	}
	return nil
}
