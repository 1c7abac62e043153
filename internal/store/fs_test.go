package store

import (
	"bytes"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"syscall"
	"testing"
)

// fileBytes reads a file of st's file system whole.
func fileBytes(t testing.TB, st *FileStore, name string) []byte {
	t.Helper()
	image, size, err := st.fsys.Open(filepath.Join(st.dir, name))
	if err != nil {
		t.Fatal(err)
	}
	defer image.Close()
	b := make([]byte, size)
	if _, err := image.ReadAt(b, 0); err != nil && size > 0 {
		t.Fatal(err)
	}
	return b
}

// faultFS fails the operations a test arms on the file system it wraps.
type faultFS struct {
	fileSystem
	failSyncDir bool // the next SyncDir fails
	failRemove  bool // every Remove fails
	exdev       bool // a Rename between two directories reports EXDEV
}

func (f *faultFS) SyncDir(dir string) error {
	if f.failSyncDir {
		f.failSyncDir = false
		return errors.New("injected: directory sync failed")
	}
	return f.fileSystem.SyncDir(dir)
}

func (f *faultFS) Remove(path string) error {
	if f.failRemove {
		return errors.New("injected: remove failed")
	}
	return f.fileSystem.Remove(path)
}

func (f *faultFS) Rename(from, to string) error {
	if f.exdev && filepath.Dir(from) != filepath.Dir(to) {
		return &os.LinkError{Op: "rename", Old: from, New: to, Err: syscall.EXDEV}
	}
	return f.fileSystem.Rename(from, to)
}

// TestMemFS: what an image holds never changes — not by later appends, a
// truncate followed by appends, a remove, or a checkpoint rename whose
// displaced bytes the next temp file would otherwise reuse. A reader
// races the writer throughout (run with -race).
func TestMemFS(t *testing.T) {
	read := func(image fileImage, size int64) []byte {
		b := make([]byte, size)
		if _, err := image.ReadAt(b, 0); err != nil {
			t.Error(err)
		}
		return b
	}
	// watch reads the image until stop closes, then once more, and reports
	// any read that differs from want.
	watch := func(image fileImage, size int64, want []byte) (stop func()) {
		quit, done := make(chan struct{}), make(chan struct{})
		go func() {
			defer close(done)
			for {
				if got := read(image, size); !bytes.Equal(got, want) {
					t.Errorf("the image reads %q, want %q", got, want)
					return
				}
				select {
				case <-quit:
					if got := read(image, size); !bytes.Equal(got, want) {
						t.Errorf("the image reads %q, want %q", got, want)
					}
					return
				default:
				}
			}
		}()
		return func() { close(quit); <-done }
	}

	t.Run("ImageNeverChanges", func(t *testing.T) {
		m := newMemFS()
		write := func(b string) {
			h, err := m.OpenAppend("f")
			if err != nil {
				t.Fatal(err)
			}
			if _, err := h.Write([]byte(b)); err != nil {
				t.Fatal(err)
			}
			h.Close()
		}
		write("0123456789")
		image, size, err := m.Open("f")
		if err != nil {
			t.Fatal(err)
		}
		stop := watch(image, size, []byte("0123456789"))
		write("abc") // within the slice's capacity, past the image
		if err := m.Truncate("f", 4); err != nil {
			t.Fatal(err)
		}
		write("XXXXXXXX") // over bytes the image reads, unless the truncate cut the capacity
		if err := m.Remove("f"); err != nil {
			t.Fatal(err)
		}
		write("a new file")
		stop()
		image.Close()
	})

	t.Run("DisplacedBufferNotReusedWhileOpen", func(t *testing.T) {
		m := newMemFS()
		save := func(b string) {
			tmp, err := m.CreateTemp("ckpt")
			if err != nil {
				t.Fatal(err)
			}
			if _, err := tmp.Write([]byte(b)); err != nil {
				t.Fatal(err)
			}
			tmp.Close()
			if err := m.Rename(tmp.Name(), "ckpt"); err != nil {
				t.Fatal(err)
			}
		}
		save("the first checkpoint")
		image, size, err := m.Open("ckpt")
		if err != nil {
			t.Fatal(err)
		}
		stop := watch(image, size, []byte("the first checkpoint"))
		save("the second checkpoint") // displaces the one the image holds
		save("the third checkpoint!") // must not write into it
		stop()
		image.Close()
		// Displaced with nothing open, a checkpoint's bytes become the next
		// temp file's: two checkpoints alternate between two buffers.
		held := m.files["ckpt"]
		save("a fourth")
		save("a fifth")
		if m.files["ckpt"] != held {
			t.Error("a checkpoint displaced with nothing open was not reused")
		}
		if got := string(fileBytes(t, &FileStore{fsys: m, dir: "."}, "ckpt")); got != "a fifth" {
			t.Errorf("the checkpoint reads %q", got)
		}
	})
}

// TestRotateFailureLeavesNoPhantomSegment: a Rotate whose directory sync
// fails removes the segment it created, so the segment appends stay in is
// still the live one — and a crash tearing its tail is the ordinary
// repairable artifact, not a torn sealed segment. If the removal fails
// too, the journal refuses appends and rotations from then on.
func TestRotateFailureLeavesNoPhantomSegment(t *testing.T) {
	fsys := &faultFS{fileSystem: newMemFS()}
	st, err := newFileStore(fsys, "s")
	if err != nil {
		t.Fatal(err)
	}
	j, err := st.OpenJournal(ctx)
	if err != nil {
		t.Fatal(err)
	}
	appendIters(t, j, 1, 2)
	fsys.failSyncDir = true
	if err := j.Rotate(ctx); err == nil {
		t.Fatal("Rotate succeeded with the directory sync failing")
	}
	segs, err := st.Segments(ctx)
	if err != nil || len(segs) != 1 || segs[0].Seq != 1 || segs[0].Sealed {
		t.Fatalf("after the failed Rotate, Segments = %+v, %v; want segment 1, live", segs, err)
	}
	appendIters(t, j, 3, 2)
	// Crash mid-append: the last entry is torn, and the journal is never
	// closed.
	live := filepath.Join(st.dir, segmentName(1))
	if err := fsys.Truncate(live, int64(len(fileBytes(t, st, segmentName(1))))-5); err != nil {
		t.Fatal(err)
	}
	entries, err := readJournal(st)
	if !errors.Is(err, ErrJournalTruncated) || len(entries) != 3 || entries[2].Iteration != 3 {
		t.Fatalf("after the crash the journal reads %+v, %v; want iterations 1-3, then ErrJournalTruncated", entries, err)
	}
	reopened, err := st.OpenJournal(ctx)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	reopened.Close()
	if entries, err := readJournal(st); err != nil || len(entries) != 3 {
		t.Fatalf("after the reopen's repair the journal reads %+v, %v; want iterations 1-3", entries, err)
	}

	fsys = &faultFS{fileSystem: newMemFS()}
	st, err = newFileStore(fsys, "s")
	if err != nil {
		t.Fatal(err)
	}
	if j, err = st.OpenJournal(ctx); err != nil {
		t.Fatal(err)
	}
	appendIters(t, j, 1, 1)
	fsys.failSyncDir, fsys.failRemove = true, true
	if err := j.Rotate(ctx); err == nil {
		t.Fatal("Rotate succeeded with the directory sync failing")
	}
	if err := j.Append(ctx, JournalEntry{Iteration: 2}); err == nil {
		t.Error("Append succeeded after a Rotate left a segment it could not remove")
	}
	if err := j.Rotate(ctx); err == nil {
		t.Error("Rotate succeeded after a Rotate left a segment it could not remove")
	}
}

// TestArchiveCopiesAcrossFileSystems: where the archive directory is on
// another file system (Rename reports EXDEV), a sealed segment is copied
// and then removed, and the duplicate a crash between the two leaves is
// resolved by the next prune.
func TestArchiveCopiesAcrossFileSystems(t *testing.T) {
	fsys := &faultFS{fileSystem: newMemFS(), exdev: true}
	st, err := newFileStore(fsys, "s")
	if err != nil {
		t.Fatal(err)
	}
	j, err := st.OpenJournal(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, from := range []int{1, 3} {
		appendIters(t, j, from, 2)
		if err := j.Rotate(ctx); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	first, second := fileBytes(t, st, segmentName(1)), fileBytes(t, st, segmentName(2))
	archive := &FileStore{fsys: fsys, dir: "archive"}

	if pruned, err := st.PruneSegments(ctx, 2, archive.dir); err != nil || len(pruned) != 1 {
		t.Fatalf("PruneSegments = %v, %v; want the first segment archived", pruned, err)
	}
	if got := fileBytes(t, archive, segmentName(1)); !bytes.Equal(got, first) {
		t.Errorf("the archived copy holds %d bytes that differ from the segment's %d", len(got), len(first))
	}
	if _, err := fsys.Stat(filepath.Join(st.dir, segmentName(1))); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("the archived segment is still in the store: %v", err)
	}

	// The crash-duplicate: the copy of the second segment landed, its
	// removal did not.
	dup, err := fsys.OpenAppend(filepath.Join(archive.dir, segmentName(2)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dup.Write(second); err != nil {
		t.Fatal(err)
	}
	dup.Close()
	if pruned, err := st.PruneSegments(ctx, 4, archive.dir); err != nil || len(pruned) != 1 {
		t.Fatalf("PruneSegments over the duplicate = %v, %v; want it resolved", pruned, err)
	}
	if entries, err := readJournal(archive); err != nil || len(entries) != 4 || entries[3].Iteration != 4 {
		t.Errorf("the archive reads %+v, %v; want iterations 1-4", entries, err)
	}
	if segs, err := st.Segments(ctx); err != nil || len(segs) != 1 || segs[0].Seq != 3 {
		t.Errorf("the store keeps %+v, %v; want only the live segment", segs, err)
	}
	if names, err := fsys.ReadDir(archive.dir); err != nil || len(names) != 2 {
		t.Errorf("the archive holds %v, %v; want the two segments and no temp file", names, err)
	}
}
