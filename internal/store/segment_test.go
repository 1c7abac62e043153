package store

import (
	"bytes"
	"errors"
	"io"
	"math"
	"reflect"
	"testing"
)

// FuzzSegmentCursor feeds arbitrary bytes to the segment reader as a
// live segment. Whatever they are, the reader must not panic, must not
// stage more than the image holds, and must yield a strictly increasing
// run of entries that is exactly what the image's valid prefix holds: a
// reported torn tail, cut away, leaves a segment that reads clean to the
// same entries. OpenJournal's repair finds that cut with the cheaper
// header-hopping scan, repeated until the tail verifies; when it goes
// through (it may instead refuse damage the full read would tolerate,
// never the reverse) it must arrive at the length the full read reports,
// and never cut an image the full read finds clean.
func FuzzSegmentCursor(f *testing.F) {
	var seg []byte
	for _, e := range feedEntries(f, 3) {
		var err error
		if seg, err = appendEntry(seg, &e); err != nil {
			f.Fatal(err)
		}
	}
	f.Add(seg)
	// The same frames as a MemStore holds them: its live segment's bytes.
	mem := NewMemStore()
	j, _ := mem.OpenJournal(ctx)
	for _, e := range goldenEntries {
		if err := j.Append(ctx, e); err != nil {
			f.Fatal(err)
		}
	}
	f.Add(bytes.Clone(mem.chain.segs[0]))
	f.Add(seg[:len(seg)-7])
	f.Add(append(bytes.Clone(seg), make([]byte, 100)...))
	f.Add(append(bytes.Clone(seg[:40]), seg...))
	f.Add([]byte{})

	// drain reads an image to its end, returning the iterations yielded,
	// the terminal error and, for a torn tail, where the damage starts.
	drain := func(t *testing.T, image []byte, after int) (iters []int, tornAt int, err error) {
		sr := segmentReader{ra: bytes.NewReader(image), size: int64(len(image)), hopped: -1}
		for {
			e, err := sr.next(after)
			if err != nil {
				if cap(sr.buf) > len(image) {
					t.Fatalf("staged %d bytes for a %d-byte image", cap(sr.buf), len(image))
				}
				if errors.Is(err, errTorn) && (sr.off < 0 || sr.off >= int64(len(image))) {
					t.Fatalf("torn offset %d outside the %d-byte image", sr.off, len(image))
				}
				return iters, int(sr.off), err
			}
			if n := len(iters); n > 0 && e.Iteration <= iters[n-1] {
				t.Fatalf("iteration %d yielded after %d", e.Iteration, iters[n-1])
			}
			iters = append(iters, e.Iteration)
		}
	}
	f.Fuzz(func(t *testing.T, image []byte) {
		iters, tornAt, err := drain(t, image, -1)
		repaired := image
		_, cut, hopErr := drain(t, repaired, math.MaxInt)
		for errors.Is(hopErr, errTorn) {
			repaired = repaired[:cut]
			_, cut, hopErr = drain(t, repaired, math.MaxInt)
		}
		switch {
		case errors.Is(err, io.EOF) && len(repaired) != len(image):
			t.Fatalf("repair cut a clean %d-byte image to %d", len(image), len(repaired))
		case errors.Is(hopErr, io.EOF) && errors.Is(err, errTorn) && len(repaired) != tornAt:
			t.Fatalf("repair cut to %d; the full read reports %v", len(repaired), err)
		}
		if !errors.Is(err, errTorn) {
			return // clean EOF or hard corruption: the full read repairs nothing
		}
		again, _, err := drain(t, image[:tornAt], -1)
		if !errors.Is(err, io.EOF) || !reflect.DeepEqual(again, iters) {
			t.Fatalf("image cut at its torn offset %d reads %v, %v; want %v and a clean end",
				tornAt, again, err, iters)
		}
	})
}
