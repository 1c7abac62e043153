package store

import (
	"context"
	"errors"
	"io"
	"reflect"
	"slices"
	"sync"
	"testing"
	"time"

	"github.com/crowdml/crowdml/internal/core"
)

// readJournal and readJournalTail are the TEST-ONLY slice wrappers over
// the streaming cursor: they drain OpenCursor into memory so assertions
// can index entries. Production code never materializes the journal —
// bounding audit and restore memory is the point of the cursor API —
// which is why these helpers live here and not in the package.
func readJournal(st Store) ([]JournalEntry, error) { return readJournalTail(st, 0) }

func readJournalTail(st Store, afterIteration int) ([]JournalEntry, error) {
	cur, err := st.OpenCursor(ctx, afterIteration)
	if err != nil {
		return nil, err
	}
	defer cur.Close()
	var out []JournalEntry
	for {
		e, err := cur.Next()
		if errors.Is(err, io.EOF) {
			return out, nil
		}
		if err != nil {
			// ErrJournalTruncated keeps the old slice-API shape: the valid
			// prefix alongside the sentinel.
			return out, err
		}
		// Entries share the cursor's memory until its next Next.
		e.Grad, e.LabelCounts = slices.Clone(e.Grad), slices.Clone(e.LabelCounts)
		out = append(out, e)
	}
}

// TestStoreConformance runs the one Store implementation over both of its
// file systems — the disk and memory (NewMemStore) — through one shared
// suite, so neither can drift in the semantics recovery depends on:
// atomic checkpoint replacement,
// checkpoint isolation from later state mutation, and an append-only
// journal whose entries survive journal reopens and caller slice reuse.
func TestStoreConformance(t *testing.T) {
	impls := map[string]func(t *testing.T) Store{
		"FileStore": func(t *testing.T) Store {
			fs, err := NewFileStore(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			return fs
		},
		"MemStore": func(t *testing.T) Store { return NewMemStore() },
	}
	suite := map[string]func(t *testing.T, st Store){
		"LoadWithoutCheckpoint":  testLoadWithoutCheckpoint,
		"SaveLoadRoundTrip":      testSaveLoadRoundTrip,
		"SaveReplacesCheckpoint": testSaveReplacesCheckpoint,
		"SaveNilState":           testSaveNilState,
		"CheckpointIsolation":    testCheckpointIsolation,
		"JournalRoundTrip":       testJournalRoundTrip,
		"JournalSliceReuse":      testJournalSliceReuse,
		"JournalAcrossReopens":   testJournalAcrossReopens,
		"JournalRotation":        testJournalRotation,
		"JournalTailBounded":     testJournalTailBounded,
		"CursorSkipsCovered":     testCursorSkipsCovered,
		"JournalSync":            testJournalSync,
		"CursorMissingJournal":   testCursorMissingJournal,
		"CursorUseAfterClose":    testCursorUseAfterClose,
		"CancelledContext":       testCancelledContext,
		"RetentionPruneCovered":  testRetentionPruneCovered,
		"RetentionNeverLive":     testRetentionNeverLive,
		"RetentionArchive":       testRetentionArchive,
		"CursorRacesPrune":       testCursorRacesPrune,
	}
	for implName, mk := range impls {
		t.Run(implName, func(t *testing.T) {
			for name, fn := range suite {
				t.Run(name, func(t *testing.T) { fn(t, mk(t)) })
			}
		})
	}
}

func testLoadWithoutCheckpoint(t *testing.T, st Store) {
	if _, err := st.Load(ctx); !errors.Is(err, ErrNoCheckpoint) {
		t.Errorf("error = %v, want ErrNoCheckpoint", err)
	}
}

func testSaveLoadRoundTrip(t *testing.T, st Store) {
	srv := newServerT(t)
	token, _ := srv.RegisterDevice(ctx, "d1")
	req := &core.CheckinRequest{
		Grad: []float64{1, 2, 3, 4, 5, 6}, NumSamples: 3, ErrCount: 1,
		LabelCounts: []int{1, 1, 1},
	}
	if err := srv.Checkin(ctx, "d1", token, req); err != nil {
		t.Fatal(err)
	}
	now := time.Date(2026, 7, 29, 10, 0, 0, 0, time.UTC)
	saved := srv.ExportStateInto(nil)
	if err := st.Save(ctx, saved, now); err != nil {
		t.Fatalf("Save: %v", err)
	}
	cp, err := st.Load(ctx)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if !reflect.DeepEqual(cp.State, saved) {
		t.Errorf("Load returned\n%+v\nSave was given\n%+v", cp.State, saved)
	}
	if cp.SavedAtUnixMillis != now.UnixMilli() {
		t.Errorf("timestamp %d, want %d", cp.SavedAtUnixMillis, now.UnixMilli())
	}
	restored := newServerT(t)
	if err := restored.ImportState(cp.State); err != nil {
		t.Fatalf("ImportState: %v", err)
	}
	if restored.Iteration() != 1 {
		t.Errorf("restored iteration = %d, want 1", restored.Iteration())
	}
	if est, ok := restored.ErrEstimate(); !ok || est != 1.0/3 {
		t.Errorf("restored estimate = %v ok=%v", est, ok)
	}
}

func testSaveReplacesCheckpoint(t *testing.T, st Store) {
	srv := newServerT(t)
	if err := st.Save(ctx, srv.ExportState(), time.UnixMilli(1000)); err != nil {
		t.Fatal(err)
	}
	if err := st.Save(ctx, srv.ExportState(), time.UnixMilli(2000)); err != nil {
		t.Fatal(err)
	}
	cp, err := st.Load(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if cp.SavedAtUnixMillis != 2000 {
		t.Errorf("Load returned checkpoint at %d, want the latest (2000)", cp.SavedAtUnixMillis)
	}
}

func testSaveNilState(t *testing.T, st Store) {
	if err := st.Save(ctx, nil, time.Now()); err == nil {
		t.Error("nil state should be rejected")
	}
}

// testCheckpointIsolation: mutating the live state after Save must not
// reach back into the persisted checkpoint (and mutating a loaded
// checkpoint must not corrupt the store).
func testCheckpointIsolation(t *testing.T, st Store) {
	srv := newServerT(t)
	if _, err := srv.RegisterDevice(ctx, "d1"); err != nil {
		t.Fatal(err)
	}
	// Save must retain nothing of the state: the hub's checkpointer
	// exports the next snapshot into the same buffer.
	var buf core.StateBuffer
	state := srv.ExportStateInto(&buf)
	if err := st.Save(ctx, state, time.Now()); err != nil {
		t.Fatal(err)
	}
	state.Iteration = 999
	state.Params[0] = 123.456
	state.DeviceRows[0].LabelCounts[0] = 55
	clear(state.DeviceRows)
	cp, err := st.Load(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if cp.State.Iteration == 999 || cp.State.Params[0] == 123.456 ||
		len(cp.State.DeviceRows) != 1 || cp.State.DeviceRows[0].ID != "d1" || cp.State.DeviceRows[0].LabelCounts[0] == 55 {
		t.Error("checkpoint aliases the saved state's memory")
	}
	cp.State.Iteration = 777
	cp2, err := st.Load(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if cp2.State.Iteration == 777 {
		t.Error("loaded checkpoint aliases the store's memory")
	}
}

func testJournalRoundTrip(t *testing.T, st Store) {
	j, err := st.OpenJournal(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		err := j.Append(ctx, JournalEntry{
			AtUnixMillis: int64(1000 + i),
			DeviceID:     "d1",
			Iteration:    i + 1,
			NumSamples:   20,
			ErrCount:     i,
			GradNorm1:    float64(i) * 0.5,
			Grad:         []float64{float64(i), 1, 2, 3, 4, 5},
			LabelCounts:  []int{i, 20 - i, 0},
			Version:      i,
		})
		if err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	entries, err := readJournal(st)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 5 {
		t.Fatalf("%d entries, want 5", len(entries))
	}
	want := JournalEntry{
		AtUnixMillis: 1003, DeviceID: "d1", Iteration: 4, NumSamples: 20,
		ErrCount: 3, GradNorm1: 1.5,
		Grad: []float64{3, 1, 2, 3, 4, 5}, LabelCounts: []int{3, 17, 0}, Version: 3,
	}
	if !reflect.DeepEqual(entries[3], want) {
		t.Errorf("entry 3 = %+v, want %+v", entries[3], want)
	}
}

// testJournalSliceReuse: the Journal contract says Append must not
// retain e's slices — callers (the hub's hook hands over the device's
// request buffers) may reuse them immediately after.
func testJournalSliceReuse(t *testing.T, st Store) {
	j, err := st.OpenJournal(ctx)
	if err != nil {
		t.Fatal(err)
	}
	grad := []float64{1, 2, 3}
	counts := []int{4, 5}
	if err := j.Append(ctx, JournalEntry{Iteration: 1, Grad: grad, LabelCounts: counts}); err != nil {
		t.Fatal(err)
	}
	grad[0], counts[0] = -99, -99
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	entries, err := readJournal(st)
	if err != nil {
		t.Fatal(err)
	}
	if entries[0].Grad[0] == -99 || entries[0].LabelCounts[0] == -99 {
		t.Error("Append retained the caller's slices")
	}
}

func testJournalAcrossReopens(t *testing.T, st Store) {
	for session := 0; session < 2; session++ {
		j, err := st.OpenJournal(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if err := j.Append(ctx, JournalEntry{Iteration: session + 1}); err != nil {
			t.Fatal(err)
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
	}
	entries, err := readJournal(st)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 {
		t.Errorf("%d entries after two sessions, want 2", len(entries))
	}
}

// appendIters appends one minimal replayable entry per iteration in
// [from, from+n).
func appendIters(t *testing.T, j Journal, from, n int) {
	t.Helper()
	for i := from; i < from+n; i++ {
		err := j.Append(ctx, JournalEntry{
			DeviceID: "d1", Iteration: i, NumSamples: 1,
			Grad: []float64{float64(i)}, LabelCounts: []int{1},
		})
		if err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
}

// testJournalRotation: entries written across rotations stay one
// ordered log (the audit trail), both within a journal session and
// across reopens.
func testJournalRotation(t *testing.T, st Store) {
	j, err := st.OpenJournal(ctx)
	if err != nil {
		t.Fatal(err)
	}
	appendIters(t, j, 1, 3)
	if err := j.Rotate(ctx); err != nil {
		t.Fatalf("Rotate: %v", err)
	}
	appendIters(t, j, 4, 2)
	if err := j.Rotate(ctx); err != nil {
		t.Fatalf("second Rotate: %v", err)
	}
	appendIters(t, j, 6, 1)
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	// Reopen: the live segment continues; sealed segments are untouched.
	j2, err := st.OpenJournal(ctx)
	if err != nil {
		t.Fatal(err)
	}
	appendIters(t, j2, 7, 1)
	if err := j2.Close(); err != nil {
		t.Fatal(err)
	}
	entries, err := readJournal(st)
	if err != nil {
		t.Fatalf("readJournal: %v", err)
	}
	if len(entries) != 7 {
		t.Fatalf("%d entries across segments, want 7", len(entries))
	}
	for i := range entries {
		if entries[i].Iteration != i+1 {
			t.Errorf("entry %d has iteration %d, want %d", i, entries[i].Iteration, i+1)
		}
	}
}

// testJournalTailBounded: a cursor opened after afterIteration must
// stream every entry past it without touching segments the checkpoint
// fully covers, and OpenCursor(ctx, 0) must stream the whole journal.
func testJournalTailBounded(t *testing.T, st Store) {
	j, err := st.OpenJournal(ctx)
	if err != nil {
		t.Fatal(err)
	}
	appendIters(t, j, 1, 4) // sealed below
	if err := j.Rotate(ctx); err != nil {
		t.Fatal(err)
	}
	appendIters(t, j, 5, 2) // sealed below
	if err := j.Rotate(ctx); err != nil {
		t.Fatal(err)
	}
	appendIters(t, j, 7, 3) // the live tail
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	// A checkpoint at iteration 6 covers both sealed segments: the tail
	// read must hand back exactly the live segment.
	tail, err := readJournalTail(st, 6)
	if err != nil {
		t.Fatalf("readJournalTail: %v", err)
	}
	if len(tail) != 3 || tail[0].Iteration != 7 {
		t.Fatalf("tail after 6 = %d entries starting at %d, want 3 starting at 7",
			len(tail), tail[0].Iteration)
	}
	// A checkpoint mid-segment (iteration 5) needs the second sealed
	// segment too, minus the covered entry 5 that leads it.
	tail, err = readJournalTail(st, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(tail) != 4 || tail[0].Iteration != 6 {
		t.Fatalf("tail after 5 = %d entries starting at %d, want 4 starting at 6",
			len(tail), tail[0].Iteration)
	}
	// No checkpoint: the tail read IS the full read.
	all, err := readJournalTail(st, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 9 {
		t.Fatalf("tail after 0 = %d entries, want all 9", len(all))
	}
}

// testCursorSkipsCovered: a cursor over a long live segment yields only
// the entries past afterIteration, and pays for those alone — what lets
// a caught-up follower poll a leader without the leader decoding (or
// even reading) the segment it has already shipped. The allocation count
// of a two-entry tail read must not depend on how many covered entries
// precede it.
func testCursorSkipsCovered(t *testing.T, st Store) {
	j, err := st.OpenJournal(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	tailAllocs := func(n int) float64 {
		t.Helper()
		tail, err := readJournalTail(st, n-2)
		if err != nil || len(tail) != 2 || tail[0].Iteration != n-1 || tail[1].Iteration != n {
			t.Fatalf("tail after %d of %d = %+v err=%v, want iterations %d and %d", n-2, n, tail, err, n-1, n)
		}
		return testing.AllocsPerRun(20, func() {
			if _, err := readJournalTail(st, n-2); err != nil {
				t.Error(err)
			}
		})
	}
	appendIters(t, j, 1, 16)
	small := tailAllocs(16)
	appendIters(t, j, 17, 1008)
	// A cursor paying per covered entry would show ~1000 more; the slack
	// absorbs the runtime's own background allocations under -race.
	if large := tailAllocs(1024); large > small+16 {
		t.Errorf("a 2-entry tail read costs %.0f allocations behind 1022 covered entries but %.0f behind 14: "+
			"the cursor pays per covered entry", large, small)
	}
}

// testJournalSync: Sync succeeds and loses nothing (the power-loss
// upgrade itself is not observable in-process; the conformance point is
// that a group-commit caller can rely on the call).
func testJournalSync(t *testing.T, st Store) {
	j, err := st.OpenJournal(ctx)
	if err != nil {
		t.Fatal(err)
	}
	appendIters(t, j, 1, 2)
	if err := j.Sync(ctx); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	appendIters(t, j, 3, 1)
	if err := j.Sync(ctx); err != nil {
		t.Fatalf("second Sync: %v", err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	entries, err := readJournal(st)
	if err != nil || len(entries) != 3 {
		t.Fatalf("after syncs: %d entries err=%v, want 3/nil", len(entries), err)
	}
}

// testCursorMissingJournal: a store with no journal yields a cursor
// whose first Next is a clean io.EOF — first boot and restart share the
// restore code path.
func testCursorMissingJournal(t *testing.T, st Store) {
	cur, err := st.OpenCursor(ctx, 0)
	if err != nil {
		t.Fatalf("OpenCursor: %v", err)
	}
	defer cur.Close()
	if _, err := cur.Next(); !errors.Is(err, io.EOF) {
		t.Errorf("Next on a missing journal = %v, want io.EOF", err)
	}
}

func testCancelledContext(t *testing.T, st Store) {
	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	srv := newServerT(t)
	if err := st.Save(cancelled, srv.ExportState(), time.Now()); !errors.Is(err, context.Canceled) {
		t.Errorf("Save error = %v, want context.Canceled", err)
	}
	if _, err := st.Load(cancelled); !errors.Is(err, context.Canceled) {
		t.Errorf("Load error = %v, want context.Canceled", err)
	}
	if _, err := st.OpenJournal(cancelled); !errors.Is(err, context.Canceled) {
		t.Errorf("OpenJournal error = %v, want context.Canceled", err)
	}
	if _, err := st.OpenCursor(cancelled, 0); !errors.Is(err, context.Canceled) {
		t.Errorf("OpenCursor error = %v, want context.Canceled", err)
	}
}

// testCursorUseAfterClose: a cursor closed mid-stream must ERROR on
// later Nexts (not feign a clean io.EOF end — a use-after-close bug
// would otherwise read as a truncated-but-valid journal), while a
// cursor that reached io.EOF keeps reporting io.EOF after Close. Both
// file systems must agree, or a bug would pass tests in memory and fail
// on disk in production.
func testCursorUseAfterClose(t *testing.T, st Store) {
	j, err := st.OpenJournal(ctx)
	if err != nil {
		t.Fatal(err)
	}
	appendIters(t, j, 1, 2)
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	cur, err := st.OpenCursor(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cur.Next(); err != nil {
		t.Fatalf("first Next: %v", err)
	}
	if err := cur.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if _, err := cur.Next(); err == nil || errors.Is(err, io.EOF) {
		t.Errorf("Next after mid-stream Close = %v, want a non-EOF error", err)
	}
	// Drained first, then closed: the io.EOF latch survives.
	drained, err := st.OpenCursor(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := drained.Next(); err != nil {
			break
		}
	}
	if err := drained.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := drained.Next(); !errors.Is(err, io.EOF) {
		t.Errorf("Next after drain+Close = %v, want io.EOF", err)
	}
}

// retainer asserts the store implements SegmentRetainer (the
// conformance suite IS the proof WithRetention can rely on it).
func retainer(t *testing.T, st Store) SegmentRetainer {
	t.Helper()
	r, ok := st.(SegmentRetainer)
	if !ok {
		t.Fatalf("%T does not implement SegmentRetainer", st)
	}
	return r
}

// segmentedJournal seeds the retention tests' layout on any backend:
// sealed segment (iterations 1-3), sealed segment (4-5), live segment
// (6).
func segmentedJournal(t *testing.T, st Store) {
	t.Helper()
	j, err := st.OpenJournal(ctx)
	if err != nil {
		t.Fatal(err)
	}
	appendIters(t, j, 1, 3)
	if err := j.Rotate(ctx); err != nil {
		t.Fatal(err)
	}
	appendIters(t, j, 4, 2)
	if err := j.Rotate(ctx); err != nil {
		t.Fatal(err)
	}
	appendIters(t, j, 6, 1)
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
}

// testRetentionPruneCovered: PruneSegments removes a sealed segment
// ONLY when the checkpoint covers its last entry, walking oldest-first
// and stopping at the first uncovered segment — a checkpoint mid-way
// through the chain never costs an uncovered entry.
func testRetentionPruneCovered(t *testing.T, st Store) {
	segmentedJournal(t, st)
	// Covered through iteration 4: segment 1-3 is prunable, segment 4-5
	// is NOT (its last entry, 5, exceeds the checkpoint).
	pruned, err := retainer(t, st).PruneSegments(ctx, 4, "")
	if err != nil {
		t.Fatalf("PruneSegments: %v", err)
	}
	if len(pruned) != 1 {
		t.Fatalf("pruned %v, want exactly the first sealed segment", pruned)
	}
	entries, err := readJournal(st)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 3 || entries[0].Iteration != 4 {
		t.Fatalf("after prune: %d entries starting at %d, want 3 starting at 4",
			len(entries), entries[0].Iteration)
	}
	// A later checkpoint covering iteration 5 frees the second segment.
	pruned, err = retainer(t, st).PruneSegments(ctx, 5, "")
	if err != nil {
		t.Fatal(err)
	}
	if len(pruned) != 1 {
		t.Fatalf("second prune removed %v, want one segment", pruned)
	}
	// Restore-style read: the surviving live tail is intact.
	tail, err := readJournalTail(st, 5)
	if err != nil || len(tail) != 1 || tail[0].Iteration != 6 {
		t.Fatalf("tail after prunes = %+v err=%v, want just iteration 6", tail, err)
	}
}

// testRetentionNeverLive: however high the checkpoint, the live segment
// is untouchable — its entries may not be covered yet (appends race the
// export) and tearing the append target would corrupt the journal.
func testRetentionNeverLive(t *testing.T, st Store) {
	segmentedJournal(t, st)
	pruned, err := retainer(t, st).PruneSegments(ctx, 1<<30, "")
	if err != nil {
		t.Fatal(err)
	}
	if len(pruned) != 2 {
		t.Fatalf("pruned %v, want both sealed segments and nothing else", pruned)
	}
	entries, err := readJournal(st)
	if err != nil || len(entries) != 1 || entries[0].Iteration != 6 {
		t.Fatalf("live segment must survive: entries=%+v err=%v", entries, err)
	}
	// With only the live segment left there is nothing more to prune.
	if pruned, err := retainer(t, st).PruneSegments(ctx, 1<<30, ""); err != nil || len(pruned) != 0 {
		t.Errorf("prune of a live-only journal = %v, %v; want none/nil", pruned, err)
	}
}

// testRetentionArchive: archived segments are moved, not lost — the
// audit trail lives on in the archive directory as ordinary frame
// segments, readable by pointing a FileStore on the same file system at
// the directory.
func testRetentionArchive(t *testing.T, st Store) {
	segmentedJournal(t, st)
	before, err := readJournal(st)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir() + "/archive" // PruneSegments must create it
	pruned, err := retainer(t, st).PruneSegments(ctx, 5, dir)
	if err != nil {
		t.Fatalf("PruneSegments(archive): %v", err)
	}
	if len(pruned) != 2 {
		t.Fatalf("archived %v, want both sealed segments", pruned)
	}
	// The store keeps only the live tail...
	entries, err := readJournal(st)
	if err != nil || len(entries) != 1 || entries[0].Iteration != 6 {
		t.Fatalf("store after archive: entries=%+v err=%v, want just iteration 6", entries, err)
	}
	// ...and the archive holds the full covered history, as an ordinary
	// segment chain.
	fsys := st.(*FileStore).fsys
	archive, err := newFileStore(fsys, dir)
	if err != nil {
		t.Fatal(err)
	}
	archived, err := readJournal(archive)
	if err != nil {
		t.Fatalf("read archived segments: %v", err)
	}
	if !reflect.DeepEqual(archived, before[:5]) {
		t.Fatalf("archive holds %+v, want the 5 covered entries exactly as the store's cursor yielded them: %+v",
			archived, before[:5])
	}
	// An archived name is never overwritten: a second chain archiving a
	// different segment under the same name is refused.
	other, err := newFileStore(fsys, t.TempDir()+"/other")
	if err != nil {
		t.Fatal(err)
	}
	j, err := other.OpenJournal(ctx)
	if err != nil {
		t.Fatal(err)
	}
	appendIters(t, j, 1, 1)
	if err := j.Rotate(ctx); err != nil {
		t.Fatal(err)
	}
	if pruned, err := other.PruneSegments(ctx, 5, dir); err == nil || len(pruned) != 0 {
		t.Errorf("archiving over another chain's segment = %v, %v; want a refusal", pruned, err)
	}
}

// testCursorRacesPrune: a live cursor draining the journal while the
// writer rotates segments and prunes covered ones must never observe
// corruption. This is exactly the leader-side replication race — the
// journal feed streams through a cursor while the checkpointer prunes
// behind it. Contract: within one cursor pass iterations are strictly
// increasing (pruning never reorders or duplicates), and a pass
// terminates only with io.EOF or ErrJournalTruncated — a segment
// vanishing under the cursor is not an error.
func testCursorRacesPrune(t *testing.T, st Store) {
	j, err := st.OpenJournal(ctx)
	if err != nil {
		t.Fatal(err)
	}
	ret := retainer(t, st)
	const (
		total  = 400 // entries the writer appends
		perSeg = 8   // rotation (and prune-horizon) cadence
	)
	done := make(chan struct{})
	var wg sync.WaitGroup

	// Writer: append, sealing a segment every perSeg entries and pruning
	// everything a checkpoint trailing one segment behind would cover.
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(done)
		for i := 1; i <= total; i++ {
			err := j.Append(ctx, JournalEntry{
				DeviceID: "d1", Iteration: i, NumSamples: 1,
				Grad: []float64{float64(i)}, LabelCounts: []int{1},
			})
			if err != nil {
				t.Errorf("append %d: %v", i, err)
				return
			}
			if i%perSeg == 0 {
				if err := j.Rotate(ctx); err != nil {
					t.Errorf("rotate at %d: %v", i, err)
					return
				}
				if _, err := ret.PruneSegments(ctx, i-perSeg, ""); err != nil {
					t.Errorf("prune at %d: %v", i, err)
					return
				}
			}
		}
	}()

	// Readers: repeatedly open cursors at staggered positions and drain
	// them while segments disappear underneath. One final pass after the
	// writer finishes so every reader also sees the settled journal.
	for reader := 0; reader < 3; reader++ {
		wg.Add(1)
		go func(reader int) {
			defer wg.Done()
			for pass := 0; ; pass++ {
				final := false
				select {
				case <-done:
					final = true // writer finished; one settled pass, then exit
				default:
				}
				after := (reader*17 + pass*13) % total
				cur, err := st.OpenCursor(ctx, after)
				if err != nil {
					t.Errorf("reader %d pass %d: OpenCursor(%d): %v", reader, pass, after, err)
					return
				}
				prev := 0 // covered entries may lead the stream; only order matters
				for {
					e, err := cur.Next()
					if errors.Is(err, io.EOF) || errors.Is(err, ErrJournalTruncated) {
						break
					}
					if err != nil {
						t.Errorf("reader %d pass %d: Next: %v", reader, pass, err)
						cur.Close()
						return
					}
					if e.Iteration <= prev {
						t.Errorf("reader %d pass %d: iteration %d after %d", reader, pass, e.Iteration, prev)
						cur.Close()
						return
					}
					prev = e.Iteration
				}
				cur.Close()
				if final {
					return
				}
			}
		}(reader)
	}
	wg.Wait()
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
}

// newServerT mirrors newServer for the conformance suite (kept separate
// so this file stands alone when read as the Store contract).
func newServerT(t *testing.T) *core.Server {
	return newServer(t)
}
