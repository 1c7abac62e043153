package store

import (
	"bytes"
	"errors"
	"io"
	"reflect"
	"strings"
	"testing"
)

func feedEntries(t testing.TB, n int) []JournalEntry {
	t.Helper()
	out := make([]JournalEntry, 0, n)
	for i := 1; i <= n; i++ {
		out = append(out, JournalEntry{
			DeviceID:    "dev",
			Iteration:   i,
			NumSamples:  2 * i,
			ErrCount:    i % 3,
			Grad:        []float64{float64(i), -float64(i)},
			LabelCounts: []int{i, 0},
			Version:     i - 1,
		})
	}
	return out
}

func TestFeedRoundTrip(t *testing.T) {
	entries := feedEntries(t, 5)
	var buf bytes.Buffer
	fw := NewFeedWriter(&buf)
	for _, e := range entries {
		if err := fw.WriteEntry(e); err != nil {
			t.Fatalf("WriteEntry: %v", err)
		}
	}
	if err := fw.WriteEOS(42); err != nil {
		t.Fatalf("WriteEOS: %v", err)
	}

	fr := NewFeedReader(&buf)
	for i, want := range entries {
		got, err := fr.Next()
		if err != nil {
			t.Fatalf("Next %d: %v", i, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("entry %d mismatch: got %+v want %+v", i, got, want)
		}
	}
	if _, err := fr.Next(); !errors.Is(err, io.EOF) {
		t.Fatalf("want io.EOF at EOS, got %v", err)
	}
	if fr.LeaderIteration() != 42 {
		t.Fatalf("LeaderIteration = %d, want 42", fr.LeaderIteration())
	}
	// Exhausted readers keep returning the same error.
	if _, err := fr.Next(); !errors.Is(err, io.EOF) {
		t.Fatalf("want io.EOF again, got %v", err)
	}
}

// TestFeedInterrupted: a stream that stops being a feed before its EOS
// frame — cut between frames, cut inside one, or garbled on the way —
// yields every entry that verified and then ErrFeedInterrupted, the
// follower's cue to resume after the last iteration it applied.
func TestFeedInterrupted(t *testing.T) {
	entries := feedEntries(t, 3)
	var buf bytes.Buffer
	fw := NewFeedWriter(&buf)
	for _, e := range entries {
		if err := fw.WriteEntry(e); err != nil {
			t.Fatalf("WriteEntry: %v", err)
		}
	}
	noEOS := buf.Len()
	if err := fw.WriteEOS(3); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	flip := func(at int) []byte {
		b := bytes.Clone(raw)
		b[at] ^= 0x10
		return b
	}
	for name, tc := range map[string]struct {
		stream []byte
		intact int
	}{
		"cut before EOS":         {raw[:noEOS], 3},
		"cut inside last entry":  {raw[:noEOS-10], 2},
		"cut inside EOS":         {raw[:len(raw)-3], 3},
		"corrupt payload byte":   {flip(noEOS - 20), 2},
		"corrupt header of next": {flip(noEOS/3 + 1), 1},
	} {
		t.Run(name, func(t *testing.T) {
			fr := NewFeedReader(bytes.NewReader(tc.stream))
			n := 0
			for {
				_, err := fr.Next()
				if err != nil {
					if !errors.Is(err, ErrFeedInterrupted) {
						t.Fatalf("want ErrFeedInterrupted, got %v", err)
					}
					break
				}
				n++
			}
			if n != tc.intact {
				t.Fatalf("yielded %d intact entries, want %d", n, tc.intact)
			}
			if _, err := fr.Next(); !errors.Is(err, ErrFeedInterrupted) {
				t.Fatalf("exhausted reader should repeat ErrFeedInterrupted, got %v", err)
			}
		})
	}
}

func TestFeedEmptyStreamInterrupted(t *testing.T) {
	fr := NewFeedReader(strings.NewReader(""))
	if _, err := fr.Next(); !errors.Is(err, ErrFeedInterrupted) {
		t.Fatalf("empty stream: want ErrFeedInterrupted, got %v", err)
	}
}

func TestFeedEOSOnly(t *testing.T) {
	var buf bytes.Buffer
	if err := NewFeedWriter(&buf).WriteEOS(7); err != nil {
		t.Fatalf("WriteEOS: %v", err)
	}
	fr := NewFeedReader(&buf)
	if _, err := fr.Next(); !errors.Is(err, io.EOF) {
		t.Fatalf("want io.EOF, got %v", err)
	}
	if fr.LeaderIteration() != 7 {
		t.Fatalf("LeaderIteration = %d, want 7", fr.LeaderIteration())
	}
}

// closeCounter is an io.ReadCloser that counts its Close calls.
type closeCounter struct {
	io.Reader
	closed int
}

func (c *closeCounter) Close() error { c.closed++; return nil }

// TestFeedReaderClose: Close reaches a reader that can be closed (an HTTP
// response body) and is a no-op over one that cannot (a bytes.Buffer).
func TestFeedReaderClose(t *testing.T) {
	body := &closeCounter{Reader: strings.NewReader("")}
	if err := NewFeedReader(body).Close(); err != nil || body.closed != 1 {
		t.Fatalf("Close over an io.Closer: err %v, closed %d times, want nil and 1", err, body.closed)
	}
	if err := NewFeedReader(&bytes.Buffer{}).Close(); err != nil {
		t.Fatalf("Close over a plain reader: %v", err)
	}
}

// TestFeedWriterGrowsOnce: a feed writer that finds the scratch pool
// empty (these writers never reach WriteEOS, so none gives its scratch
// back) starts from a nil buffer, and a frame's length is known before it
// is encoded — so the first entry sizes the buffer in one allocation (not
// a run of append doublings) and every further entry of that shape
// allocates nothing.
func TestFeedWriterGrowsOnce(t *testing.T) {
	e := JournalEntry{
		DeviceID: "device-0042", Iteration: 7, NumSamples: 20, Version: 6,
		Grad: make([]float64, 1960), LabelCounts: make([]int, 10),
	}
	if n := testing.AllocsPerRun(20, func() {
		if err := NewFeedWriter(io.Discard).WriteEntry(e); err != nil {
			t.Fatal(err)
		}
	}); n > 2 { // the scratch and its buffer
		t.Errorf("a fresh writer's first entry allocated %v times", n)
	}
	fw := NewFeedWriter(io.Discard)
	if n := testing.AllocsPerRun(20, func() {
		if err := fw.WriteEntry(e); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("a further entry of the same shape allocated %v times", n)
	}
}

// TestFeedReaderEntryAllocatesNothing: a follower decodes each shipped
// entry into its reader's pooled frame, so once the pool is warm a poll
// over a 10×196 model allocates a few bytes per entry (the device ID),
// not a fresh 15.7 KB gradient.
func TestFeedReaderEntryAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's own allocations are counted too")
	}
	const n = 32
	var feed bytes.Buffer
	fw := NewFeedWriter(&feed)
	for _, e := range modelEntries(n) {
		if err := fw.WriteEntry(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := fw.WriteEOS(n); err != nil {
		t.Fatal(err)
	}
	poll := func() {
		fr := NewFeedReader(bytes.NewReader(feed.Bytes()))
		defer fr.Close()
		for i := 1; ; i++ {
			e, err := fr.Next()
			if errors.Is(err, io.EOF) && i == n+1 {
				return
			}
			if err != nil || e.Iteration != i || len(e.Grad) != modelClasses*modelDim {
				t.Fatalf("entry %d: iteration %d, %d coordinates, %v", i, e.Iteration, len(e.Grad), err)
			}
		}
	}
	if per := bytesPerRun(20, poll) / n; per >= 256 {
		t.Errorf("a warm feed reader allocates %.0f B per entry, want under 256", per)
	} else {
		t.Logf("%.0f B per entry", per)
	}
}

// TestNextAfterCloseIsRefused: Close gives a reader's scratch back to the
// pool, where the next reader takes it, so a Next after Close must fail
// without reading — on a journal cursor and on a feed reader alike.
func TestNextAfterCloseIsRefused(t *testing.T) {
	entries := feedEntries(t, 3)
	st := NewMemStore()
	j, err := st.OpenJournal(ctx)
	if err != nil {
		t.Fatal(err)
	}
	var feed bytes.Buffer
	fw := NewFeedWriter(&feed)
	for _, e := range entries {
		if err := j.Append(ctx, e); err != nil {
			t.Fatal(err)
		}
		if err := fw.WriteEntry(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := fw.WriteEOS(len(entries)); err != nil {
		t.Fatal(err)
	}
	cur, err := st.OpenCursor(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	for name, r := range map[string]JournalCursor{"cursor": cur, "feed reader": NewFeedReader(&feed)} {
		if _, err := r.Next(); err != nil {
			t.Fatalf("%s: first Next: %v", name, err)
		}
		if err := r.Close(); err != nil {
			t.Fatalf("%s: Close: %v", name, err)
		}
		for range 2 {
			if e, err := r.Next(); err == nil || errors.Is(err, io.EOF) {
				t.Errorf("%s: Next after Close = %+v, %v; want an error", name, e, err)
			}
		}
	}
}
