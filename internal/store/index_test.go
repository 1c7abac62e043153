package store

import (
	"errors"
	"io"
	"io/fs"
	"math/rand"
	"path/filepath"
	"reflect"
	"slices"
	"sync/atomic"
	"testing"
	"time"
)

// countingFS counts the listings, the opened images and the reads from
// them that pass through the file system it wraps. Not safe for
// concurrent use.
type countingFS struct {
	fileSystem
	readDirs int
	opened   []string // base names, in open order
	reads    int      // ReadAt calls on opened images
}

func (c *countingFS) ReadDir(dir string) ([]fs.DirEntry, error) {
	c.readDirs++
	return c.fileSystem.ReadDir(dir)
}

func (c *countingFS) Open(path string) (fileImage, int64, error) {
	image, size, err := c.fileSystem.Open(path)
	if err == nil {
		c.opened = append(c.opened, filepath.Base(path))
		image = countedImage{image, &c.reads}
	}
	return image, size, err
}

type countedImage struct {
	fileImage
	reads *int
}

func (i countedImage) ReadAt(p []byte, off int64) (int, error) {
	*i.reads++
	return i.fileImage.ReadAt(p, off)
}

// iterations drains a cursor after `after` into its entries' iterations.
func iterations(t *testing.T, st Store, after int) []int {
	t.Helper()
	cur, err := st.OpenCursor(ctx, after)
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Close()
	var iters []int
	for {
		e, err := cur.Next()
		if errors.Is(err, io.EOF) {
			return iters
		}
		if err != nil {
			t.Fatalf("read after %d: %v", after, err)
		}
		iters = append(iters, e.Iteration)
	}
}

// TestFeedPollListsNothing: once the journal is open, appends, rotations,
// prunes, cursors and Segments never list the directory, and a cursor
// opens only the segments it streams — none when it is caught up — also
// over segments that were sealed before the journal was reopened.
func TestFeedPollListsNothing(t *testing.T) {
	cfs := &countingFS{fileSystem: newMemFS()}
	st, err := newFileStore(cfs, "/task")
	if err != nil {
		t.Fatal(err)
	}
	j, err := st.OpenJournal(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { j.Close() }()
	cfs.readDirs = 0
	for _, n := range []int{10, 10, 10} { // segments 1-3: iterations 1-30
		appendIters(t, j, len(iterations(t, st, 0))+1, n)
		if err := j.Rotate(ctx); err != nil {
			t.Fatal(err)
		}
	}
	appendIters(t, j, 31, 300) // the live segment 4: iterations 31-330
	if _, err := st.PruneSegments(ctx, 10, ""); err != nil {
		t.Fatal(err)
	}
	segs, err := st.Segments(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != 3 || segs[0].Seq != 2 {
		t.Fatalf("segments after the prune: %+v, want 2-4", segs)
	}
	type pollCase struct {
		after  int
		opened []string // the segments the cursor opens
	}
	polls := []pollCase{
		{0, []string{segmentName(2), segmentName(3), segmentName(4)}},
		{15, []string{segmentName(2), segmentName(3), segmentName(4)}},
		{25, []string{segmentName(3), segmentName(4)}},
		{30, []string{segmentName(4)}},
		{200, []string{segmentName(4)}},
		{330, nil},
	}
	poll := func(last int) {
		t.Helper()
		for _, tc := range polls {
			cfs.opened = nil
			iters := iterations(t, st, tc.after)
			if from := max(tc.after+1, 11); len(iters) != last-from+1 || len(iters) > 0 && (iters[0] != from || iters[len(iters)-1] != last) {
				t.Errorf("after %d: %d iterations, want %d…%d", tc.after, len(iters), from, last)
			}
			if !slices.Equal(cfs.opened, tc.opened) {
				t.Errorf("after %d: opened %v, want the streamed %v", tc.after, cfs.opened, tc.opened)
			}
		}
	}
	poll(330)
	// Reopened over an empty live segment, the index bounds the sealed
	// ones by the first frame appended after them.
	if err := j.Rotate(ctx); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if j, err = st.OpenJournal(ctx); err != nil {
		t.Fatal(err)
	}
	cfs.readDirs = 0
	appendIters(t, j, 331, 10)
	polls[5].opened = []string{segmentName(5)}
	polls = append(polls, pollCase{340, nil})
	for i := range polls[:5] {
		polls[i].opened = append(polls[i].opened, segmentName(5))
	}
	poll(340)
	if cfs.readDirs != 0 {
		t.Errorf("%d directory listings after OpenJournal, want 0", cfs.readDirs)
	}
	// Without an open journal a store lists, as an offline audit does.
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if iters := iterations(t, st, 300); len(iters) != 40 || cfs.readDirs != 1 {
		t.Errorf("closed journal: %d entries after 300 with %d listings, want 40 with 1", len(iters), cfs.readDirs)
	}
}

// blockingFS holds the first Open after it is armed until released,
// announcing it on entered.
type blockingFS struct {
	fileSystem
	armed   atomic.Bool
	entered chan struct{}
	release chan struct{}
}

func (b *blockingFS) Open(path string) (fileImage, int64, error) {
	if b.armed.CompareAndSwap(true, false) {
		b.entered <- struct{}{}
		<-b.release
	}
	return b.fileSystem.Open(path)
}

// TestAppendNeverWaitsOnAPoll: a poll stuck in the file system, over
// segments sealed before the journal was reopened, holds up no append,
// rotation or other poll.
func TestAppendNeverWaitsOnAPoll(t *testing.T) {
	bfs := &blockingFS{fileSystem: newMemFS(), entered: make(chan struct{}), release: make(chan struct{})}
	st, err := newFileStore(bfs, "/task")
	if err != nil {
		t.Fatal(err)
	}
	j, err := st.OpenJournal(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 3; i++ {
		appendIters(t, j, 10*i-9, 10)
		if err := j.Rotate(ctx); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if j, err = st.OpenJournal(ctx); err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	bfs.armed.Store(true)
	polled := make(chan error, 1)
	go func() {
		cur, err := st.OpenCursor(ctx, 5)
		if err == nil {
			_, err = cur.Next()
			cur.Close()
		}
		polled <- err
	}()
	select {
	case <-bfs.entered:
	case err := <-polled:
		t.Fatalf("the poll ended without opening a segment: %v", err)
	}
	wrote := make(chan error, 1)
	go func() {
		err := j.Append(ctx, JournalEntry{DeviceID: "d", Iteration: 31})
		if err == nil {
			err = j.Rotate(ctx)
		}
		if err == nil {
			var cur JournalCursor
			if cur, err = st.OpenCursor(ctx, 31); err == nil {
				err = cur.Close()
			}
		}
		wrote <- err
	}()
	select {
	case err := <-wrote:
		if err != nil {
			t.Error(err)
		}
	case <-time.After(10 * time.Second):
		t.Error("an append, a rotation or a poll waited on a poll blocked in the file system")
	}
	close(bfs.release)
	if err := <-polled; err != nil {
		t.Error(err)
	}
}

// TestChainIndexMatchesListing drives a journal through a seeded random
// run of appends (iterations with gaps, frames of varying length),
// rotations, prunes, archives, rotations that fail on the directory sync,
// and reopens. After every step the open journal's index answers as a
// listing of the same directory does: the same Segments, and for every
// afterIteration the same entries from OpenCursor.
func TestChainIndexMatchesListing(t *testing.T) {
	rng := rand.New(rand.NewSource(40))
	ffs := &faultFS{fileSystem: newMemFS()}
	st, err := newFileStore(ffs, "/task")
	if err != nil {
		t.Fatal(err)
	}
	j, err := st.OpenJournal(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { j.Close() }()
	iter := 0
	for step := 0; step < 24; step++ {
		switch op := rng.Intn(10); {
		case op < 3:
			for n := rng.Intn(96); n > 0; n-- {
				iter += 1 + rng.Intn(3)
				e := JournalEntry{DeviceID: "d", Iteration: iter, Grad: make([]float64, rng.Intn(6))}
				if err := j.Append(ctx, e); err != nil {
					t.Fatal(err)
				}
			}
		case op < 6:
			if err := j.Rotate(ctx); err != nil {
				t.Fatal(err)
			}
		case op < 8:
			archive := []string{"", "/archive"}[rng.Intn(2)]
			if _, err := st.PruneSegments(ctx, iter-rng.Intn(64), archive); err != nil {
				t.Fatal(err)
			}
		case op == 8:
			ffs.failSyncDir = true
			if err := j.Rotate(ctx); err == nil {
				t.Fatal("a rotation whose directory sync failed succeeded")
			}
		default:
			if err := j.Close(); err != nil {
				t.Fatal(err)
			}
			if j, err = st.OpenJournal(ctx); err != nil {
				t.Fatal(err)
			}
		}
		listed, err := newFileStore(ffs, "/task")
		if err != nil {
			t.Fatal(err)
		}
		got, err := st.Segments(ctx)
		if err != nil {
			t.Fatal(err)
		}
		want, err := listed.Segments(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("step %d: the index holds %+v, the directory %+v", step, got, want)
		}
		// Every after below the oldest entry reads like 0.
		low := 0
		if all := iterations(t, listed, 0); len(all) > 0 {
			low = all[0] - 2
		}
		for after := 0; after <= iter+1; after = max(after+1, low) {
			if got, want := iterations(t, st, after), iterations(t, listed, after); !slices.Equal(got, want) {
				t.Fatalf("step %d, after %d: the index's cursor yields %v, the listing's %v", step, after, got, want)
			}
		}
	}
}

// TestPollsRacingAppendsMissNothing: a follower polling the index while
// the journal appends, rotates and prunes behind it sees every entry
// once, in order — each poll after the last iteration it holds yields
// exactly the iterations that follow it.
func TestPollsRacingAppendsMissNothing(t *testing.T) {
	st := NewMemStore()
	j, err := st.OpenJournal(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	const total, perSeg = 1000, 100
	var seen atomic.Int64 // the follower's position, which prunes stay behind
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 1; i <= total; i++ {
			if err := j.Append(ctx, JournalEntry{DeviceID: "d", Iteration: i}); err != nil {
				t.Error(err)
				return
			}
			if i%perSeg == 0 {
				if err := j.Rotate(ctx); err != nil {
					t.Error(err)
					return
				}
				if _, err := st.PruneSegments(ctx, int(seen.Load()), ""); err != nil {
					t.Error(err)
					return
				}
			}
		}
	}()
	for last := 0; last < total; {
		finished := false
		select {
		case <-done:
			finished = true // one more poll sees everything
		default:
		}
		cur, err := st.OpenCursor(ctx, last)
		if err != nil {
			t.Fatal(err)
		}
		for {
			e, err := cur.Next()
			if errors.Is(err, io.EOF) {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			if e.Iteration != last+1 {
				t.Fatalf("a poll after %d yielded %d", last, e.Iteration)
			}
			last = e.Iteration
		}
		cur.Close()
		seen.Store(int64(last))
		if finished && last < total {
			t.Fatalf("the writer is done; the follower holds %d of %d entries", last, total)
		}
	}
	<-done
}

// TestPruneReadsOnlyWhatItRemoves: with the journal open, retention stops
// at the first sealed segment the checkpoint does not cover without
// opening it — the index's bound says so — and reads each covered one
// once, to verify it, before removing it. The bounds are looked up by
// segment number while the prune drops segments from the index's front.
func TestPruneReadsOnlyWhatItRemoves(t *testing.T) {
	cfs := &countingFS{fileSystem: newMemFS()}
	st, err := newFileStore(cfs, "/task")
	if err != nil {
		t.Fatal(err)
	}
	j, err := st.OpenJournal(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	appendIters(t, j, 1, 4096) // segment 1, sealed: iterations 1-4096
	if err := j.Rotate(ctx); err != nil {
		t.Fatal(err)
	}
	cfs.opened, cfs.reads = nil, 0
	for i := 0; i < 3; i++ {
		if pruned, err := st.PruneSegments(ctx, 4090, ""); err != nil || len(pruned) != 0 {
			t.Fatalf("prune at 4090: removed %v (%v), want nothing", pruned, err)
		}
	}
	if cfs.reads != 0 || len(cfs.opened) != 0 {
		t.Errorf("three prunes of an uncovered segment opened %v and made %d reads, want none", cfs.opened, cfs.reads)
	}
	for _, from := range []int{4097, 4107} { // segments 2 and 3: 4097-4106, 4107-4116
		appendIters(t, j, from, 10)
		if err := j.Rotate(ctx); err != nil {
			t.Fatal(err)
		}
	}
	appendIters(t, j, 4117, 10) // the live segment 4
	cfs.opened = nil
	pruned, err := st.PruneSegments(ctx, 4106, "")
	if want := []string{segmentName(1), segmentName(2)}; err != nil || !slices.Equal(pruned, want) || !slices.Equal(cfs.opened, want) {
		t.Errorf("prune at 4106: removed %v and opened %v (%v), want both %v", pruned, cfs.opened, err, want)
	}
}

// TestOpenJournalListsOnce: one listing of the store directory serves all
// of OpenJournal — the legacy refusal, the removal of orphaned checkpoint
// temps and the chain index — and a legacy directory is refused before
// any segment is opened.
func TestOpenJournalListsOnce(t *testing.T) {
	cfs := &countingFS{fileSystem: newMemFS()}
	st, err := newFileStore(cfs, "/task")
	if err != nil {
		t.Fatal(err)
	}
	plant := func(name string) {
		t.Helper()
		if err := st.writeFileAtomic(filepath.Join("/task", name), func(w io.Writer) error {
			_, err := w.Write([]byte("half a checkpoint"))
			return err
		}); err != nil {
			t.Fatal(err)
		}
	}
	open := func(name string) (Journal, error) {
		t.Helper()
		cfs.readDirs, cfs.opened = 0, nil
		j, err := st.OpenJournal(ctx)
		if cfs.readDirs != 1 {
			t.Errorf("%s: OpenJournal listed the directory %d times, want 1", name, cfs.readDirs)
		}
		return j, err
	}
	j, err := open("fresh")
	if err != nil {
		t.Fatal(err)
	}
	appendIters(t, j, 1, 10)
	if err := j.Rotate(ctx); err != nil {
		t.Fatal(err)
	}
	appendIters(t, j, 11, 10)
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	orphan := checkpointName + ".7.tmp"
	plant(orphan)
	if j, err = open("populated"); err != nil {
		t.Fatal(err)
	}
	if _, err := cfs.Stat(filepath.Join("/task", orphan)); err == nil {
		t.Errorf("the orphaned %s survived OpenJournal", orphan)
	}
	if got := iterations(t, st, 0); len(got) != 20 {
		t.Errorf("the reopened journal holds %d entries, want 20", len(got))
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	plant(legacyCheckpointName)
	if _, err := open("legacy"); !errors.Is(err, ErrLegacyJournal) || len(cfs.opened) != 0 {
		t.Errorf("legacy directory: %v after opening %v, want ErrLegacyJournal before any segment", err, cfs.opened)
	}
}
