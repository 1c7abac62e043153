package store

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"github.com/crowdml/crowdml/internal/core"
	"github.com/crowdml/crowdml/internal/model"
	"github.com/crowdml/crowdml/internal/optimizer"
	"github.com/crowdml/crowdml/internal/wirecodec"
)

// ctx is the background context shared by the package's tests.
var ctx = context.Background()

func newServer(t *testing.T) *core.Server {
	t.Helper()
	s, err := core.NewServer(core.ServerConfig{
		Model:   model.NewLogisticRegression(3, 2),
		Updater: &optimizer.SGD{Schedule: optimizer.Constant{C: 0.5}},
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// ---- FileStore-specific behaviour (the conformance suite in
// conformance_test.go covers the shared Store semantics) ----

// TestJournalConcurrentAppendClose exercises the shutdown race: Close
// must serialize with in-flight Appends (run with -race).
func TestJournalConcurrentAppendClose(t *testing.T) {
	fs, err := NewFileStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	j, err := fs.OpenJournal(ctx)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 100; i++ {
			// Errors are expected once Close wins the race; the point is
			// that the race detector stays quiet.
			_ = j.Append(ctx, JournalEntry{DeviceID: "d", Iteration: i})
		}
	}()
	j.Close()
	<-done
}

func TestSaveOverwritesAtomically(t *testing.T) {
	fs, err := NewFileStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	srv := newServer(t)
	for i := 0; i < 3; i++ {
		if err := fs.Save(ctx, srv.ExportState(), time.Now()); err != nil {
			t.Fatalf("save %d: %v", i, err)
		}
	}
	// Exactly one checkpoint file, no leftover temp files.
	entries, err := os.ReadDir(fs.dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if filepath.Ext(e.Name()) == ".tmp" {
			t.Errorf("leftover temp file %s", e.Name())
		}
	}
	if _, err := fs.Load(ctx); err != nil {
		t.Errorf("Load after overwrites: %v", err)
	}
}

func TestLoadCorruptCheckpoint(t *testing.T) {
	for _, content := range []string{"{broken", wirecodec.Magic + "\x01\x05 not a frame"} {
		dir := t.TempDir()
		fs, err := NewFileStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, checkpointName), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := fs.Load(ctx); !errors.Is(err, wirecodec.ErrFrame) {
			t.Errorf("corrupt checkpoint %q: Load error = %v, want ErrFrame", content, err)
		}
	}
}

// TestOpenJournalRemovesOrphanedCheckpointTemps: a process killed between
// CreateTemp and the rename leaves a checkpoint-sized temp file nothing
// would ever remove; the next OpenJournal does, on a fresh directory and
// on a populated one, touching nothing else.
func TestOpenJournalRemovesOrphanedCheckpointTemps(t *testing.T) {
	orphans := []string{checkpointName + ".123456.tmp", legacyCheckpointName + ".9.tmp"}
	for _, populated := range []bool{false, true} {
		dir := t.TempDir()
		fs, err := NewFileStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		keep := []string{"notes.tmp", "checkpoint.bak"}
		if populated {
			if err := fs.Save(ctx, newServer(t).ExportState(), time.Now()); err != nil {
				t.Fatal(err)
			}
			j, err := fs.OpenJournal(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if err := j.Append(ctx, JournalEntry{DeviceID: "d", Iteration: 1}); err != nil {
				t.Fatal(err)
			}
			if err := j.Close(); err != nil {
				t.Fatal(err)
			}
			keep = append(keep, checkpointName, segmentName(1))
		}
		for _, name := range append(orphans, keep[:2]...) {
			if err := os.WriteFile(filepath.Join(dir, name), []byte("half a checkpoint"), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		j, err := fs.OpenJournal(ctx)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range orphans {
			if _, err := os.Stat(filepath.Join(dir, name)); !errors.Is(err, os.ErrNotExist) {
				t.Errorf("populated=%v: orphan %s survived OpenJournal: %v", populated, name, err)
			}
		}
		for _, name := range keep {
			if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
				t.Errorf("populated=%v: %s should have been left alone: %v", populated, name, err)
			}
		}
		if populated {
			if entries, err := readJournal(fs); err != nil || len(entries) != 1 {
				t.Errorf("journal after the cleanup reads %+v, %v", entries, err)
			}
			if _, err := fs.Load(ctx); err != nil {
				t.Errorf("checkpoint after the cleanup: %v", err)
			}
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestCheckpointSaveAllocations: a steady-state checkpoint — the export
// into the checkpointer's warm buffer, then Save — at the end-to-end
// benchmark's crowd (2,000 devices × 10 classes) costs no garbage to speak
// of on either backend: under 16 KB a cycle, where the JSON document cost
// about a megabyte.
func TestCheckpointSaveAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's own allocations are counted too")
	}
	const devices, classes, dim = 2000, 10, 196
	srv, err := core.NewServer(core.ServerConfig{
		Model:   model.NewLogisticRegression(classes, dim),
		Updater: &optimizer.SGD{Schedule: optimizer.Constant{C: 0.5}},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < devices; i++ {
		if _, err := srv.RegisterDevice(ctx, fmt.Sprintf("device-%04d", i)); err != nil {
			t.Fatal(err)
		}
	}
	fs, err := NewFileStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for name, st := range map[string]Store{"FileStore": fs, "MemStore": NewMemStore()} {
		var buf core.StateBuffer
		cycle := func() {
			if err := st.Save(ctx, srv.ExportStateInto(&buf), goldenSavedAt); err != nil {
				t.Fatal(err)
			}
		}
		cycle() // warm: the buffers are sized by the first two saves
		cycle()
		const cycles = 10
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < cycles; i++ {
			cycle()
		}
		runtime.ReadMemStats(&after)
		if perCycle := (after.TotalAlloc - before.TotalAlloc) / cycles; perCycle >= 16<<10 {
			t.Errorf("%s: a warm checkpoint allocates %d bytes, want under 16 KB", name, perCycle)
		} else {
			t.Logf("%s: %d bytes per warm checkpoint", name, perCycle)
		}
		if cp, err := st.Load(ctx); err != nil || len(cp.State.DeviceRows) != devices {
			t.Errorf("%s: Load after the cycles: %v", name, err)
		}
	}
}

// crowdState returns the state of a logreg 10×50 task with devices
// devices, every one of them with counters: the end-to-end benchmark's
// crowd at 2,000.
func crowdState(devices int) *core.ServerState {
	const classes, dim = 10, 50
	st := &core.ServerState{
		ModelName: model.NewLogisticRegression(classes, dim).Name(), Classes: classes, Dim: dim,
		Params:           make([]float64, classes*dim),
		TotalLabelCounts: make([]int, classes),
		DeviceRows:       make([]core.DeviceRow, devices),
	}
	for i := range st.DeviceRows {
		counts := make([]int, classes)
		for k := range counts {
			counts[k] = i%7 + k
		}
		st.DeviceRows[i] = core.DeviceRow{ID: fmt.Sprintf("dev-%05d", i), DeviceStats: core.DeviceStats{
			Samples: 20 * i, Errors: i, LabelCounts: counts, Checkins: i, StalenessSum: 3 * i,
		}}
	}
	return st
}

// TestLoadReadsTheFrameOnce: Load knows the checkpoint's size, so on
// either backend it reads the 2,000-device × 10-class frame into one
// buffer of exactly that size and decodes it there — the frame plus at
// most 200 B per device in all, where io.ReadAll's growth steps cost
// about 4.5 frames — and a file longer than any frame is refused with
// ErrFrame before its bytes are held.
func TestLoadReadsTheFrameOnce(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's own allocations are counted too")
	}
	const devices = 2000
	st := crowdState(devices)
	frame, err := wirecodec.AppendCheckpoint(nil, st, 1)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	fs, err := NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	for name, s := range map[string]Store{"FileStore": fs, "MemStore": NewMemStore()} {
		if err := s.Save(ctx, st, time.UnixMilli(1)); err != nil {
			t.Fatal(err)
		}
		got := bytesPerRun(10, func() {
			if cp, err := s.Load(ctx); err != nil || len(cp.State.DeviceRows) != devices {
				t.Fatalf("%s: Load: %v", name, err)
			}
		})
		limit := float64(len(frame) + 200*devices)
		t.Logf("%s: a Load allocates %.0f B for a %d-byte frame", name, got, len(frame))
		if got > limit {
			t.Errorf("%s: a Load allocates %.0f B, want at most the %d-byte frame plus 200 B per device (%.0f)", name, got, len(frame), limit)
		}
	}

	// A sparse file one byte longer than a frame may be: no disk, and no
	// 64 MiB buffer either.
	if err := os.Truncate(filepath.Join(dir, checkpointName), wirecodec.MaxPayload+1); err != nil {
		t.Fatal(err)
	}
	var loadErr error
	got := bytesPerRun(1, func() { _, loadErr = fs.Load(ctx) })
	if !errors.Is(loadErr, wirecodec.ErrFrame) {
		t.Errorf("Load of a %d-byte file: %v, want ErrFrame", wirecodec.MaxPayload+1, loadErr)
	}
	if got > 64<<10 {
		t.Errorf("refusing a %d-byte file allocated %.0f B", wirecodec.MaxPayload+1, got)
	}
}

// TestSaveRefusesUnsortedState: on either backend, a state whose device
// table the frame cannot hold in ID order — rows out of order, an ID
// twice, rows and the ID-keyed map both — fails Save and leaves the
// checkpoint as it was, byte for byte.
func TestSaveRefusesUnsortedState(t *testing.T) {
	srv := newServer(t)
	for _, id := range []string{"c", "a", "b"} {
		token, err := srv.RegisterDevice(ctx, id)
		if err != nil {
			t.Fatal(err)
		}
		req := &core.CheckinRequest{Grad: make([]float64, 6), NumSamples: 1, LabelCounts: []int{1, 0, 0}}
		if err := srv.Checkin(ctx, id, token, req); err != nil {
			t.Fatal(err)
		}
	}
	fs, err := NewFileStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for name, st := range map[string]*FileStore{"FileStore": fs, "MemStore": NewMemStore()} {
		if err := st.Save(ctx, srv.ExportStateInto(nil), goldenSavedAt); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		saved := fileBytes(t, st, checkpointName)
		for edit, fn := range map[string]func(bad *core.ServerState){
			"rows out of order": func(bad *core.ServerState) { r := bad.DeviceRows; r[0], r[1] = r[1], r[0] },
			"a duplicate ID":    func(bad *core.ServerState) { bad.DeviceRows[2].ID = bad.DeviceRows[1].ID },
			"both forms":        func(bad *core.ServerState) { bad.Devices = map[string]core.DeviceStats{"z": {}} },
		} {
			bad := srv.ExportStateInto(nil)
			fn(bad)
			if err := st.Save(ctx, bad, goldenSavedAt.Add(time.Second)); err == nil {
				t.Errorf("%s: Save of %s succeeded", name, edit)
			}
			if got := fileBytes(t, st, checkpointName); !bytes.Equal(got, saved) {
				t.Errorf("%s: Save of %s changed the checkpoint", name, edit)
			}
			cp, err := st.Load(ctx)
			if err != nil {
				t.Fatalf("%s: Load after a refused Save of %s: %v", name, edit, err)
			}
			if again, err := wirecodec.AppendCheckpoint(nil, cp.State, cp.SavedAtUnixMillis); err != nil || !bytes.Equal(again, saved) {
				t.Errorf("%s: Load after a refused Save of %s yields another state (%v)", name, edit, err)
			}
		}
	}
}

// segmentPath names a segment file by sequence number.
func segmentPath(fs *FileStore, seq int) string {
	return filepath.Join(fs.dir, fmt.Sprintf(segmentPattern, seq))
}

// frameOffsets hops a segment's frame headers and returns where each
// frame starts, plus the file's length as the final element.
func frameOffsets(t *testing.T, path string) []int64 {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var offs []int64
	for off := 0; off < len(b); {
		offs = append(offs, int64(off))
		_, n, err := wirecodec.JournalFrameLen(b[off:])
		if err != nil {
			t.Fatalf("frame at offset %d of %s: %v", off, path, err)
		}
		off += n
	}
	return append(offs, int64(len(b)))
}

// rewrite applies edit to a file's bytes in place.
func rewrite(t *testing.T, path string, edit func(b []byte) []byte) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, edit(b), 0o644); err != nil {
		t.Fatal(err)
	}
}

// tornStore builds a store with a sealed segment (iterations 1-2) and a
// live segment (3-5), closed, and returns the live segment's frame
// offsets.
func tornStore(t *testing.T) (*FileStore, []int64) {
	t.Helper()
	fs, err := NewFileStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	j, err := fs.OpenJournal(ctx)
	if err != nil {
		t.Fatal(err)
	}
	appendIters(t, j, 1, 2)
	if err := j.Rotate(ctx); err != nil {
		t.Fatal(err)
	}
	appendIters(t, j, 3, 3)
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	return fs, frameOffsets(t, segmentPath(fs, 2))
}

// damages is the torn-tail table: what a crash mid-append (a prefix of
// the frame) or a power loss (a full-length frame of wrong bytes) can do
// to the frame spanning [start, end).
var damages = map[string]func(b []byte, start, end int64) []byte{
	"cut inside header":  func(b []byte, start, _ int64) []byte { return b[:start+10] },
	"cut inside payload": func(b []byte, start, _ int64) []byte { return b[:start+wirecodec.HeaderLen+20] },
	"cut inside CRC":     func(b []byte, _, end int64) []byte { return b[:end-2] },
	"flipped payload byte": func(b []byte, start, _ int64) []byte {
		b[start+wirecodec.HeaderLen+3] ^= 0x40
		return b
	},
	"flipped length byte": func(b []byte, start, _ int64) []byte {
		b[start+24] ^= 0x01 // dims: the frame now claims another length
		return b
	},
	"zeroed": func(b []byte, start, end int64) []byte {
		clear(b[start:end])
		return b
	},
}

// TestTornFinalFrame: damage to the FINAL frame of the LIVE segment is
// the expected crash artifact. A read yields every valid entry and then
// ErrJournalTruncated; reopening the journal truncates exactly that
// frame, and an append made after the repair reads back — across a
// second open too (the restart-after-recovery path).
func TestTornFinalFrame(t *testing.T) {
	for name, damage := range damages {
		t.Run(name, func(t *testing.T) {
			fs, offs := tornStore(t)
			live := segmentPath(fs, 2)
			rewrite(t, live, func(b []byte) []byte { return damage(b, offs[2], offs[3]) })

			entries, err := readJournal(fs)
			if !errors.Is(err, ErrJournalTruncated) {
				t.Fatalf("read error = %v, want ErrJournalTruncated", err)
			}
			if len(entries) != 4 || entries[3].Iteration != 4 {
				t.Fatalf("valid prefix = %+v, want iterations 1-4", entries)
			}
			tail, err := readJournalTail(fs, 3)
			if !errors.Is(err, ErrJournalTruncated) || len(tail) != 1 || tail[0].Iteration != 4 {
				t.Fatalf("tail after 3 = %+v err=%v, want iteration 4 then ErrJournalTruncated", tail, err)
			}

			j, err := fs.OpenJournal(ctx)
			if err != nil {
				t.Fatalf("reopen: %v", err)
			}
			if info, err := os.Stat(live); err != nil || info.Size() != offs[2] {
				t.Fatalf("repaired segment is %d bytes (err=%v), want exactly the %d before the torn frame",
					info.Size(), err, offs[2])
			}
			appendIters(t, j, 5, 1)
			if err := j.Close(); err != nil {
				t.Fatal(err)
			}
			entries, err = readJournal(fs)
			if err != nil || len(entries) != 5 || entries[4].Iteration != 5 {
				t.Fatalf("after repair+append: %+v err=%v, want iterations 1-5", entries, err)
			}
			if j2, err := fs.OpenJournal(ctx); err != nil {
				t.Fatalf("second open: %v", err)
			} else if err := j2.Close(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestTornOnlyFrame is the crash-on-first-append case: no valid prefix,
// still the tolerant sentinel, and the repair truncates to empty.
func TestTornOnlyFrame(t *testing.T) {
	fs, err := NewFileStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(segmentPath(fs, 1), []byte(wirecodec.Magic+"\x01\x04"), 0o644); err != nil {
		t.Fatal(err)
	}
	if entries, err := readJournal(fs); !errors.Is(err, ErrJournalTruncated) || len(entries) != 0 {
		t.Fatalf("read = %+v, %v; want no entries and ErrJournalTruncated", entries, err)
	}
	j, err := fs.OpenJournal(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if entries, err := readJournal(fs); err != nil || len(entries) != 0 {
		t.Errorf("after repair: entries=%v err=%v, want none/nil", entries, err)
	}
}

// TestDamageBeforeValidFrameIsFatal: the same damage one frame EARLIER
// — a valid frame follows it — is not a torn tail. Reading past it would
// silently drop an acknowledged checkin and repairing it would truncate
// one away, so reads fail hard and the reopen never shortens the file.
func TestDamageBeforeValidFrameIsFatal(t *testing.T) {
	for name, damage := range damages {
		t.Run(name, func(t *testing.T) {
			fs, offs := tornStore(t)
			live := segmentPath(fs, 2)
			var size int64
			rewrite(t, live, func(b []byte) []byte {
				last := append([]byte(nil), b[offs[2]:]...)
				b = append(damage(b[:offs[2]], offs[1], offs[2]), last...)
				size = int64(len(b))
				return b
			})
			if _, err := readJournal(fs); err == nil || errors.Is(err, ErrJournalTruncated) {
				t.Errorf("read error = %v, want a hard (non-truncation) error", err)
			}
			// The reopen hops headers and verifies only the tail, so it may
			// or may not notice damage this deep — but it must not cut.
			if j, err := fs.OpenJournal(ctx); err == nil {
				j.Close()
			}
			if info, err := os.Stat(live); err != nil || info.Size() != size {
				t.Errorf("reopen changed the damaged segment's length to %d (err=%v), want %d untouched",
					info.Size(), err, size)
			}
		})
	}
}

// TestTornSealedSegmentIsFatal: a torn final frame in a SEALED segment
// is damage no crash produces (sealing fsyncs and closes the file), so
// reads and retention refuse it instead of silently dropping
// acknowledged checkins.
func TestTornSealedSegmentIsFatal(t *testing.T) {
	for name, damage := range damages {
		t.Run(name, func(t *testing.T) {
			fs, _ := tornStore(t)
			sealed := segmentPath(fs, 1)
			offs := frameOffsets(t, sealed)
			rewrite(t, sealed, func(b []byte) []byte { return damage(b, offs[1], offs[2]) })
			if _, err := readJournal(fs); err == nil || errors.Is(err, ErrJournalTruncated) {
				t.Errorf("read error = %v, want a hard sealed-segment error", err)
			}
			if pruned, err := fs.PruneSegments(ctx, 1<<30, ""); err == nil || len(pruned) != 0 {
				t.Errorf("PruneSegments = %v, %v; want an error and no removals", pruned, err)
			}
		})
	}
}

// TestOutOfOrderFrameIsFatal: skipping covered frames on their headers
// is only sound because iterations strictly increase, so a frame that
// breaks the order is reported, never yielded.
func TestOutOfOrderFrameIsFatal(t *testing.T) {
	fs, err := NewFileStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	j, err := fs.OpenJournal(ctx)
	if err != nil {
		t.Fatal(err)
	}
	appendIters(t, j, 7, 1)
	appendIters(t, j, 7, 1)
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	entries, err := readJournal(fs)
	if err == nil || errors.Is(err, ErrJournalTruncated) || len(entries) != 1 {
		t.Errorf("read = %d entries, %v; want the first entry then a hard ordering error", len(entries), err)
	}
}

// TestLegacyJournalRefused: a directory still holding a pre-binary
// release's files — JSONL segments, or the golden checkpoint.json a
// release before the checkpoint frame wrote — is refused with the upgrade
// recipe, and works once they are gone. A checkpoint.json is never read:
// Load does not see it.
func TestLegacyJournalRefused(t *testing.T) {
	legacyCheckpoint, err := os.ReadFile(filepath.Join("testdata", "golden", legacyCheckpointName))
	if err != nil {
		t.Fatal(err)
	}
	for name, content := range map[string][]byte{
		"checkins.jsonl":           []byte(`{"deviceId":"d1","iteration":1}` + "\n"),
		"journal-0000000003.jsonl": []byte(`{"deviceId":"d1","iteration":1}` + "\n"),
		legacyCheckpointName:       legacyCheckpoint,
	} {
		t.Run(name, func(t *testing.T) {
			fs, err := NewFileStore(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			legacy := filepath.Join(fs.dir, name)
			if err := os.WriteFile(legacy, content, 0o644); err != nil {
				t.Fatal(err)
			}
			if _, err := fs.Segments(ctx); !errors.Is(err, ErrLegacyJournal) || !strings.Contains(err.Error(), legacy) {
				t.Errorf("Segments error = %v, want ErrLegacyJournal naming %s", err, legacy)
			}
			if _, err := fs.Load(ctx); !errors.Is(err, ErrNoCheckpoint) {
				t.Errorf("Load error = %v, want ErrNoCheckpoint", err)
			}
			if _, err := fs.OpenJournal(ctx); !errors.Is(err, ErrLegacyJournal) {
				t.Errorf("OpenJournal error = %v, want ErrLegacyJournal", err)
			}
			if _, err := fs.OpenCursor(ctx, 0); !errors.Is(err, ErrLegacyJournal) {
				t.Errorf("OpenCursor error = %v, want ErrLegacyJournal", err)
			}
			if _, err := fs.PruneSegments(ctx, 1<<30, ""); !errors.Is(err, ErrLegacyJournal) {
				t.Errorf("PruneSegments error = %v, want ErrLegacyJournal", err)
			}
			archive := filepath.Join(fs.dir, "archive")
			if err := os.Mkdir(archive, 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.Rename(legacy, filepath.Join(archive, name)); err != nil {
				t.Fatal(err)
			}
			j, err := fs.OpenJournal(ctx)
			if err != nil {
				t.Fatalf("OpenJournal after the legacy segment moved out: %v", err)
			}
			j.Close()
		})
	}
}

func TestNewFileStoreFailsWhenPathIsFile(t *testing.T) {
	dir := t.TempDir()
	blocker := filepath.Join(dir, "blocker")
	if err := os.WriteFile(blocker, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := NewFileStore(blocker); err == nil {
		t.Error("expected error when store path is an existing file")
	}
}

func TestSaveFailsWhenDirRemoved(t *testing.T) {
	dir := t.TempDir()
	fs, err := NewFileStore(filepath.Join(dir, "sub"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.RemoveAll(fs.dir); err != nil {
		t.Fatal(err)
	}
	srv := newServer(t)
	if err := fs.Save(ctx, srv.ExportState(), time.Now()); err == nil {
		t.Error("expected error saving into a removed directory")
	}
}

func TestOpenJournalFailsWhenDirRemoved(t *testing.T) {
	dir := t.TempDir()
	fs, err := NewFileStore(filepath.Join(dir, "sub"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.RemoveAll(fs.dir); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.OpenJournal(ctx); err == nil {
		t.Error("expected error opening journal in removed directory")
	}
}

// TestLoadCheckpointMissingState: a frame cut off where the state begins
// fails to load.
func TestLoadCheckpointMissingState(t *testing.T) {
	dir := t.TempDir()
	fs, err := NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	frame, err := wirecodec.AppendCheckpoint(nil, newServer(t).ExportState(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, checkpointName), frame[:wirecodec.HeaderLen+8], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Load(ctx); !errors.Is(err, wirecodec.ErrFrame) {
		t.Errorf("checkpoint without state: Load error = %v, want ErrFrame", err)
	}
}

func TestJournalEntriesDurableWithoutClose(t *testing.T) {
	fs, err := NewFileStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	j, err := fs.OpenJournal(ctx)
	if err != nil {
		t.Fatal(err)
	}
	// Do NOT close: entries must already be on disk (crash durability —
	// the write-ahead property depends on it).
	if err := j.Append(ctx, JournalEntry{Iteration: 1}); err != nil {
		t.Fatal(err)
	}
	entries, err := readJournal(fs)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Errorf("%d entries visible before Close, want 1", len(entries))
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
}

// ---- Segmentation and locking (FileStore-specific) ----

// TestRotateCreatesNumberedSegments: rotation seals journal-0000000001
// and moves appends into journal-0000000002; the chain reads back as
// one ordered log.
func TestRotateCreatesNumberedSegments(t *testing.T) {
	fs, err := NewFileStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	j, err := fs.OpenJournal(ctx)
	if err != nil {
		t.Fatal(err)
	}
	appendIters(t, j, 1, 2)
	if err := j.Rotate(ctx); err != nil {
		t.Fatal(err)
	}
	appendIters(t, j, 3, 1)
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := fs.Segments(ctx)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"journal-0000000001.wal", "journal-0000000002.wal"}
	if len(segs) != 2 || segs[0].Name != want[0] || segs[1].Name != want[1] {
		t.Fatalf("Segments = %v, want %v", segs, want)
	}
	// Sealed-vs-live status: every segment but the newest was sealed by
	// the rotation that created its successor.
	if !segs[0].Sealed || segs[1].Sealed {
		t.Errorf("Segments status = %+v, want [sealed, live]", segs)
	}
	if segs[0].Seq != 1 || segs[1].Seq != 2 {
		t.Errorf("Segments seq = %+v, want 1, 2", segs)
	}
	entries, err := readJournal(fs)
	if err != nil || len(entries) != 3 {
		t.Fatalf("ReadJournal: %d entries, err=%v", len(entries), err)
	}
}

// ---- Retention (FileStore-specific; the conformance suite covers the
// shared PruneSegments semantics on both backends) ----

// TestPruneInterruptedMidwayLeavesRecoverableStore: pruning runs
// oldest-first, so a crash between two removals leaves exactly what a
// smaller completed prune leaves — a contiguous journal suffix. The
// simulated interruption removes only the oldest covered segment by
// hand; everything must still read, restore and re-prune cleanly.
func TestPruneInterruptedMidwayLeavesRecoverableStore(t *testing.T) {
	fs, err := NewFileStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	j, err := fs.OpenJournal(ctx)
	if err != nil {
		t.Fatal(err)
	}
	appendIters(t, j, 1, 2)
	if err := j.Rotate(ctx); err != nil {
		t.Fatal(err)
	}
	appendIters(t, j, 3, 2)
	if err := j.Rotate(ctx); err != nil {
		t.Fatal(err)
	}
	appendIters(t, j, 5, 2) // the live tail
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	// "Crash" after the first removal of a PruneSegments(4, "") run.
	if err := os.Remove(filepath.Join(fs.dir, "journal-0000000001.wal")); err != nil {
		t.Fatal(err)
	}
	// The restore read (checkpoint at 4) is untouched by the gap...
	tail, err := readJournalTail(fs, 4)
	if err != nil || len(tail) != 2 || tail[0].Iteration != 5 {
		t.Fatalf("tail after interrupted prune = %+v err=%v, want iterations 5..6", tail, err)
	}
	// ...the audit scan serves the surviving suffix...
	entries, err := readJournal(fs)
	if err != nil || len(entries) != 4 || entries[0].Iteration != 3 {
		t.Fatalf("audit after interrupted prune = %d entries err=%v, want 4 starting at 3", len(entries), err)
	}
	// ...and re-running the prune finishes the job.
	pruned, err := fs.PruneSegments(ctx, 4, "")
	if err != nil || len(pruned) != 1 || pruned[0] != "journal-0000000002.wal" {
		t.Fatalf("re-run pruned %v err=%v, want the second segment", pruned, err)
	}
}

// TestArchiveCollision: an existing same-named file in the archive
// directory is never overwritten — identical contents (the duplicate an
// interrupted earlier archive leaves) resolve by dropping the source,
// different contents (two tasks sharing an archive dir, a restored
// backup re-issuing sequence numbers) are refused.
func TestArchiveCollision(t *testing.T) {
	mkStore := func(t *testing.T) *FileStore {
		fs, err := NewFileStore(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		j, err := fs.OpenJournal(ctx)
		if err != nil {
			t.Fatal(err)
		}
		appendIters(t, j, 1, 2)
		if err := j.Rotate(ctx); err != nil {
			t.Fatal(err)
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		return fs
	}
	t.Run("duplicate resolves", func(t *testing.T) {
		fs := mkStore(t)
		archive := t.TempDir()
		src, err := os.ReadFile(filepath.Join(fs.dir, "journal-0000000001.wal"))
		if err != nil {
			t.Fatal(err)
		}
		// The leftover of an interrupted earlier archive: dst already
		// holds the identical bytes.
		if err := os.WriteFile(filepath.Join(archive, "journal-0000000001.wal"), src, 0o644); err != nil {
			t.Fatal(err)
		}
		pruned, err := fs.PruneSegments(ctx, 2, archive)
		if err != nil || len(pruned) != 1 {
			t.Fatalf("PruneSegments over a crash-duplicate = %v, %v; want it resolved", pruned, err)
		}
		if _, err := os.Stat(filepath.Join(fs.dir, "journal-0000000001.wal")); !errors.Is(err, os.ErrNotExist) {
			t.Error("source segment should be gone after the duplicate resolved")
		}
	})
	t.Run("conflict refused", func(t *testing.T) {
		fs := mkStore(t)
		archive := t.TempDir()
		foreign, err := appendEntry(nil, &JournalEntry{DeviceID: "someone-else", Iteration: 9})
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(archive, "journal-0000000001.wal"), foreign, 0o644); err != nil {
			t.Fatal(err)
		}
		if pruned, err := fs.PruneSegments(ctx, 2, archive); err == nil || len(pruned) != 0 {
			t.Fatalf("PruneSegments over a foreign archive file = %v, %v; want a refusal", pruned, err)
		}
		// The foreign file is untouched.
		got, err := os.ReadFile(filepath.Join(archive, "journal-0000000001.wal"))
		if err != nil || !bytes.Equal(got, foreign) {
			t.Errorf("archive file was disturbed: %q err=%v", got, err)
		}
	})
}

// ---- Root implementations ----

func TestFileRootListOpen(t *testing.T) {
	dir := t.TempDir()
	root, err := NewFileRoot(dir)
	if err != nil {
		t.Fatal(err)
	}
	if ids, err := root.List(ctx); err != nil || len(ids) != 0 {
		t.Fatalf("empty root: ids=%v err=%v", ids, err)
	}
	for _, id := range []string{"zebra", "alpha"} {
		if _, err := root.Open(ctx, id); err != nil {
			t.Fatal(err)
		}
	}
	// A stray file at the root is not a task store.
	if err := os.WriteFile(filepath.Join(dir, "notes.txt"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	ids, err := root.List(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 2 || ids[0] != "alpha" || ids[1] != "zebra" {
		t.Errorf("ids = %v, want [alpha zebra]", ids)
	}
}

// TestJournalLargeFrames: a frame far over the cursor's starting buffer
// reads back, and an entry too large for any reader to accept
// (wirecodec.MaxPayload) is refused at Append — before it is
// acknowledged — instead of being written unreadable.
func TestJournalLargeFrames(t *testing.T) {
	fs, err := NewFileStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	j, err := fs.OpenJournal(ctx)
	if err != nil {
		t.Fatal(err)
	}
	grad := make([]float64, 200_000) // a 1.6 MB frame
	for i := range grad {
		grad[i] = 0.123456789 + float64(i)
	}
	for iter := 1; iter <= 2; iter++ {
		if err := j.Append(ctx, JournalEntry{Iteration: iter, Grad: grad, LabelCounts: []int{1}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Append(ctx, JournalEntry{Iteration: 3, Grad: make([]float64, wirecodec.MaxPayload/8)}); err == nil {
		t.Error("Append accepted an entry over wirecodec.MaxPayload")
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	entries, err := readJournal(fs)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if len(entries) != 2 || len(entries[1].Grad) != len(grad) || entries[1].Grad[7] != grad[7] {
		t.Errorf("large entries did not round-trip: %d entries", len(entries))
	}
}

func TestFileRootOpenRejectsEscapingIDs(t *testing.T) {
	disk, err := NewFileRoot(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, root := range []*FileRoot{disk, NewMemRoot()} {
		for _, bad := range []string{"", ".", "..", "../escape", "a/b", `a\b`} {
			if _, err := root.Open(ctx, bad); err == nil {
				t.Errorf("Open(%q) should reject a non-clean store name", bad)
			}
		}
	}
}

func TestMemRootSharesStores(t *testing.T) {
	root := NewMemRoot()
	a, err := root.Open(ctx, "task")
	if err != nil {
		t.Fatal(err)
	}
	srv := newServer(t)
	if err := a.Save(ctx, srv.ExportState(), time.Now()); err != nil {
		t.Fatal(err)
	}
	// Re-opening the same ID must see the same state — that is what makes
	// a root in memory survive a simulated restart.
	b, err := root.Open(ctx, "task")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.Load(ctx); err != nil {
		t.Errorf("second open lost the checkpoint: %v", err)
	}
	ids, err := root.List(ctx)
	if err != nil || len(ids) != 1 || ids[0] != "task" {
		t.Errorf("List = %v, %v", ids, err)
	}
}

// TestAppendAllocatesNothing: an append encodes into the journal's own
// buffer and issues one write — once the buffer has grown to the entry
// size, the durable step of a checkin costs no allocation.
func TestAppendAllocatesNothing(t *testing.T) {
	fs, err := NewFileStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	j, err := fs.OpenJournal(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	e := JournalEntry{DeviceID: "d1", Grad: make([]float64, 500), LabelCounts: make([]int, 10)}
	allocs := testing.AllocsPerRun(50, func() {
		e.Iteration++
		if err := j.Append(ctx, e); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("Append allocates %.0f times per entry, want 0", allocs)
	}
}

// ---- The shared pieces: one atomic write, one format on both backends ----

// TestWriteFileAtomicFailsClean fails the temp → write → fsync → rename
// sequence at each step in turn: whichever step fails, nothing appears
// under the final name and no temp file is left behind.
func TestWriteFileAtomicFailsClean(t *testing.T) {
	disk := &FileStore{fsys: osFS{}}
	payload := func(w io.Writer) error {
		_, err := w.Write([]byte("payload"))
		return err
	}
	steps := map[string]struct {
		prepare func(t *testing.T, dir string) // breaks the step
		write   func(w io.Writer) error
	}{
		"create": {
			prepare: func(t *testing.T, dir string) {
				if err := os.RemoveAll(dir); err != nil {
					t.Fatal(err)
				}
			},
			write: payload,
		},
		"write": {
			write: func(w io.Writer) error {
				_, _ = w.Write([]byte("pay"))
				return errors.New("disk full")
			},
		},
		"sync": {
			// A temp file closed behind the helper's back cannot be fsynced.
			write: func(w io.Writer) error {
				if err := payload(w); err != nil {
					return err
				}
				return w.(*os.File).Close()
			},
		},
		"rename": {
			// The final name is taken by a non-empty directory.
			prepare: func(t *testing.T, dir string) {
				if err := os.MkdirAll(filepath.Join(dir, "final", "occupied"), 0o755); err != nil {
					t.Fatal(err)
				}
			},
			write: payload,
		},
	}
	for name, step := range steps {
		t.Run(name, func(t *testing.T) {
			dir := filepath.Join(t.TempDir(), "store")
			if err := os.Mkdir(dir, 0o755); err != nil {
				t.Fatal(err)
			}
			if step.prepare != nil {
				step.prepare(t, dir)
			}
			final := filepath.Join(dir, "final")
			if err := disk.writeFileAtomic(final, step.write); err == nil {
				t.Fatal("writeFileAtomic succeeded with the step broken")
			}
			if info, err := os.Stat(final); err == nil && !info.IsDir() {
				t.Errorf("a file appeared under the final name")
			}
			entries, err := os.ReadDir(dir)
			if err != nil && !errors.Is(err, os.ErrNotExist) {
				t.Fatal(err)
			}
			for _, e := range entries {
				if strings.HasSuffix(e.Name(), ".tmp") {
					t.Errorf("leftover temp file %s", e.Name())
				}
			}
		})
	}
	// And the sequence itself: the old contents, then all of the new.
	final := filepath.Join(t.TempDir(), "final")
	for _, want := range []string{"first", "second, longer"} {
		err := disk.writeFileAtomic(final, func(w io.Writer) error {
			_, err := io.WriteString(w, want)
			return err
		})
		if got, _ := os.ReadFile(final); err != nil || string(got) != want {
			t.Fatalf("writeFileAtomic: %v, file holds %q, want %q", err, got, want)
		}
	}
}

// goldenStore is testdata/golden: checkpoint.json and the live segment
// were written by the release before MemStore and FileStore shared their
// segment and checkpoint code (FileStore.Save at goldenSavedAt, then three
// Appends); checkpoint.ckpt is the same state as the checkpoint frame that
// replaced the JSON document.
var (
	goldenSavedAt = time.UnixMilli(1790000000123)
	goldenEntries = []JournalEntry{
		{AtUnixMillis: 1790000000200, DeviceID: "dev-a", Iteration: 3, NumSamples: 3, ErrCount: 1, GradNorm1: 2.75,
			Grad: []float64{0.5, -1.25, 1e-7, 1, 0, 0}, LabelCounts: []int{1, 1, 1}, Version: 2},
		{AtUnixMillis: 1790000000300, DeviceID: "dev-b", Iteration: 4, NumSamples: 2, Version: 2},
		{AtUnixMillis: 1790000000400, DeviceID: "设备-c", Iteration: 7, NumSamples: 1, GradNorm1: 6,
			Grad: []float64{-1, -2, -3, 0, 0, 0}, LabelCounts: []int{0, 0, 1}, Version: 5},
	}
)

// TestGoldenStoreFormat pins the bytes at rest in both directions: a
// store an earlier release wrote — checkpoint frame and segment — opens
// here, entry for entry, and what either backend writes for the same state
// and entries is the golden frame and segment, byte for byte (the device
// table is sorted, so equal states give equal bytes). The golden JSON
// checkpoint is no longer read: beside the same segment it is refused.
func TestGoldenStoreFormat(t *testing.T) {
	golden := map[string][]byte{}
	for _, name := range []string{legacyCheckpointName, checkpointName, segmentName(1)} {
		b, err := os.ReadFile(filepath.Join("testdata", "golden", name))
		if err != nil {
			t.Fatal(err)
		}
		golden[name] = b
	}
	storeOf := func(names ...string) *FileStore {
		t.Helper()
		dir := t.TempDir()
		for _, name := range names {
			if err := os.WriteFile(filepath.Join(dir, name), golden[name], 0o644); err != nil {
				t.Fatal(err)
			}
		}
		fs, err := NewFileStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		return fs
	}
	old := storeOf(checkpointName, segmentName(1))
	cp, err := old.Load(ctx)
	if err != nil || cp.SavedAtUnixMillis != goldenSavedAt.UnixMilli() || cp.State.Iteration != 2 {
		t.Fatalf("Load of the golden checkpoint frame = %+v, %v", cp, err)
	}
	if entries, err := readJournal(old); err != nil || !reflect.DeepEqual(entries, goldenEntries) {
		t.Fatalf("golden segment reads %+v, %v; want %+v", entries, err, goldenEntries)
	}
	if _, err := storeOf(legacyCheckpointName, segmentName(1)).OpenJournal(ctx); !errors.Is(err, ErrLegacyJournal) {
		t.Errorf("OpenJournal beside the golden checkpoint.json = %v, want ErrLegacyJournal", err)
	}
	delete(golden, legacyCheckpointName) // the refusal fixture, never written

	fresh, err := NewFileStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	mem := NewMemStore()
	for name, st := range map[string]Store{"FileStore": fresh, "MemStore": mem} {
		if err := st.Save(ctx, cp.State, goldenSavedAt); err != nil {
			t.Fatalf("%s: Save: %v", name, err)
		}
		j, err := st.OpenJournal(ctx)
		if err != nil {
			t.Fatalf("%s: OpenJournal: %v", name, err)
		}
		for _, e := range goldenEntries {
			if err := j.Append(ctx, e); err != nil {
				t.Fatalf("%s: Append: %v", name, err)
			}
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
	}
	written := map[string]map[string][]byte{
		"MemStore":  {checkpointName: fileBytes(t, mem, checkpointName), segmentName(1): fileBytes(t, mem, segmentName(1))},
		"FileStore": {},
	}
	for name := range golden {
		b, err := os.ReadFile(filepath.Join(fresh.dir, name))
		if err != nil {
			t.Fatal(err)
		}
		written["FileStore"][name] = b
	}
	for backend, files := range written {
		for name, want := range golden {
			if !bytes.Equal(files[name], want) {
				t.Errorf("%s wrote %s as\n%q\nthe golden store holds\n%q", backend, name, files[name], want)
			}
		}
	}
}
