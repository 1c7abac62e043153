package store

import (
	"bytes"
	"errors"
	"io"
	"math"
	"reflect"
	"runtime"
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
	// The same frames as a store in memory holds them: its live segment.
	mem := NewMemStore()
	j, _ := mem.OpenJournal(ctx)
	for _, e := range goldenEntries {
		if err := j.Append(ctx, e); err != nil {
			f.Fatal(err)
		}
	}
	f.Add(fileBytes(f, mem, segmentName(1)))
	f.Add(seg[:len(seg)-7])
	f.Add(append(bytes.Clone(seg), make([]byte, 100)...))
	f.Add(append(bytes.Clone(seg[:40]), seg...))
	f.Add([]byte{})

	// drain reads an image to its end, returning the iterations yielded,
	// the terminal error and, for a torn tail, where the damage starts.
	drain := func(t *testing.T, image []byte, after int) (iters []int, tornAt int, err error) {
		sr := segmentReader{ra: bytes.NewReader(image), size: int64(len(image)), hopped: -1, sc: new(scratch)}
		for {
			e, err := sr.next(after)
			if err != nil {
				if cap(sr.sc.buf) > len(image) {
					t.Fatalf("staged %d bytes for a %d-byte image", cap(sr.sc.buf), len(image))
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

// TestSegmentSeq: a segment name is the prefix, exactly ten digits and
// the suffix — what segmentName writes, and nothing else. Segments parses
// every directory entry on every call, so the parse allocates nothing.
func TestSegmentSeq(t *testing.T) {
	for _, tc := range []struct {
		name string
		seq  int
		ok   bool
	}{
		{"journal-0000000001.wal", 1, true},
		{"journal-0000000042.wal", 42, true},
		{"journal-9999999999.wal", 9999999999, true},
		{"journal-0000000000.wal", 0, false}, // chains number from 1
		{"journal-000000001.wal", 0, false},  // nine digits
		{"journal-00000000001.wal", 0, false},
		{"journal-+000000001.wal", 0, false},
		{"journal--000000001.wal", 0, false},
		{"journal- 000000001.wal", 0, false},
		{"journal-000000001 .wal", 0, false},
		{" journal-0000000001.wal", 0, false},
		{"journal-0000000001.wal ", 0, false},
		{"journal-0000000001.WAL", 0, false},
		{"journal-0000000001.jsonl", 0, false},
		{"journal-0000000001.wal.tmp", 0, false},
		{"journal-.wal", 0, false},
		{"0000000001.wal", 0, false},
		{"journal-0000000001", 0, false},
		{"segment-0000000001.wal", 0, false},
		{"checkpoint.ckpt", 0, false},
	} {
		if seq, ok := segmentSeq(tc.name); ok != tc.ok || (ok && seq != tc.seq) {
			t.Errorf("segmentSeq(%q) = %d, %v; want %d, %v", tc.name, seq, ok, tc.seq, tc.ok)
		}
	}
	if n := testing.AllocsPerRun(100, func() { segmentSeq("journal-0000000042.wal") }); n != 0 {
		t.Errorf("segmentSeq allocates %v times, want 0", n)
	}
}

// The shape of the follower_reads model: 10 classes × 196 features.
const modelClasses, modelDim = 10, 196

// modelEntries returns n journal entries of a 10×196 model.
func modelEntries(n int) []JournalEntry {
	grad := make([]float64, modelClasses*modelDim)
	for i := range grad {
		grad[i] = 0.001 * float64(i%17)
	}
	out := make([]JournalEntry, n)
	for i := range out {
		out[i] = JournalEntry{
			DeviceID: "device-0042", Iteration: i + 1, NumSamples: 20, Version: i,
			Grad: grad, LabelCounts: make([]int, modelClasses),
		}
	}
	return out
}

// bytesPerRun is the heap bytes one call of f allocates, averaged over
// runs after a warm-up call, on one P so f's pooled memory stays where
// the next call looks for it.
func bytesPerRun(runs int, f func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}

// TestCursorEntryAllocatesNothing: a cursor decodes each entry into its
// pooled frame, so once the pool is warm a scan of a 10×196 journal —
// a restore, a feed the leader serves — allocates a few bytes per entry
// (the device ID) on either file system, not a fresh 15.7 KB gradient.
func TestCursorEntryAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's own allocations are counted too")
	}
	const n = 32
	disk, err := NewFileStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for name, st := range map[string]Store{"FileStore": disk, "MemStore": NewMemStore()} {
		j, err := st.OpenJournal(ctx)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range modelEntries(n) {
			if err := j.Append(ctx, e); err != nil {
				t.Fatal(err)
			}
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		scan := func() {
			cur, err := st.OpenCursor(ctx, 0)
			if err != nil {
				t.Fatal(err)
			}
			defer cur.Close()
			for i := 1; ; i++ {
				e, err := cur.Next()
				if errors.Is(err, io.EOF) && i == n+1 {
					return
				}
				if err != nil || e.Iteration != i || len(e.Grad) != modelClasses*modelDim {
					t.Fatalf("%s: entry %d: iteration %d, %d coordinates, %v", name, i, e.Iteration, len(e.Grad), err)
				}
			}
		}
		if per := bytesPerRun(20, scan) / n; per >= 256 {
			t.Errorf("%s: a warm cursor allocates %.0f B per entry, want under 256", name, per)
		} else {
			t.Logf("%s: %.0f B per entry", name, per)
		}
	}
}
