// End-to-end crash-recovery test for the durability redesign: a crowd of
// devices runs against a journaled task, the server "crashes" without a
// final checkpoint, and OpenHub must reconstruct the exact pre-crash
// state — the same iteration counter, crowd totals and parameter vector
// a never-crashed control run produces. Zero acknowledged-checkin loss,
// on both shipped Store implementations.
package crowdml_test

import (
	"context"
	"errors"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	crowdml "github.com/crowdml/crowdml"
	"github.com/crowdml/crowdml/internal/invariants"
	"github.com/crowdml/crowdml/internal/rng"
)

const (
	recClasses   = 3
	recDim       = 6
	recDevices   = 4
	recPerDevice = 30
	recMinibatch = 5
)

func recServerConfig() crowdml.ServerConfig {
	return crowdml.ServerConfig{
		Model:   crowdml.NewLogisticRegression(recClasses, recDim),
		Updater: crowdml.NewSGD(crowdml.InvSqrt{C: 5}, 0),
	}
}

// driveCrowd runs the deterministic workload: recDevices devices feed
// their samples round-robin, one sample per turn, so every run applies
// the identical checkin sequence (seeded devices, seeded sample streams,
// sequential submission — bit-identical SGD trajectories).
func driveCrowd(t *testing.T, task *crowdml.Task) {
	t.Helper()
	driveCrowdSeeded(t, task, 0)
}

// driveCrowdSeeded is driveCrowd with a seed offset, so multi-phase
// tests can run several distinct-but-deterministic workload waves.
func driveCrowdSeeded(t *testing.T, task *crowdml.Task, seedBase uint64) {
	t.Helper()
	ctx := context.Background()
	m := crowdml.NewLogisticRegression(recClasses, recDim)
	devices := make([]*crowdml.Device, recDevices)
	sources := make([]*rng.RNG, recDevices)
	for i := range devices {
		id := deviceID(i)
		token, err := task.Server().RegisterDevice(ctx, id)
		if err != nil {
			t.Fatal(err)
		}
		devices[i], err = crowdml.NewDevice(crowdml.DeviceConfig{
			ID: id, Token: token, Model: m,
			Transport: task.Server(),
			Minibatch: recMinibatch,
			Budget:    crowdml.Budget{Gradient: crowdml.FromInv(0.05)},
			Seed:      seedBase + uint64(i+1),
		})
		if err != nil {
			t.Fatal(err)
		}
		sources[i] = rng.New(seedBase + uint64(100+i))
	}
	for n := 0; n < recPerDevice; n++ {
		for i, d := range devices {
			x := make([]float64, recDim)
			for k := range x {
				x[k] = sources[i].Uniform(-1, 1)
			}
			crowdml.NormalizeL1(x)
			if err := d.AddSample(ctx, crowdml.Sample{X: x, Y: sources[i].Intn(recClasses)}); err != nil {
				t.Fatal(err)
			}
		}
	}
}

func deviceID(i int) string {
	return string(rune('a'+i)) + "-device"
}

func TestCrashRecoveryMatchesUncrashedRun(t *testing.T) {
	ctx := context.Background()

	// Control: the same workload on a store-less task, never crashed.
	control := crowdml.NewHub()
	controlTask, err := control.CreateTask(ctx, "task", recServerConfig())
	if err != nil {
		t.Fatal(err)
	}
	driveCrowd(t, controlTask)
	want := controlTask.Server().ExportState()
	wantCheckins := recDevices * (recPerDevice / recMinibatch)
	if want.Iteration != wantCheckins {
		t.Fatalf("control run applied %d checkins, expected %d", want.Iteration, wantCheckins)
	}

	roots := map[string]func(t *testing.T) (crowdml.StoreRoot, string){
		"MemStore": func(t *testing.T) (crowdml.StoreRoot, string) {
			return crowdml.NewMemRoot(), ""
		},
		"FileStore": func(t *testing.T) (crowdml.StoreRoot, string) {
			dir := t.TempDir()
			root, err := crowdml.NewFileRoot(dir)
			if err != nil {
				t.Fatal(err)
			}
			return root, dir
		},
	}
	for name, mkRoot := range roots {
		t.Run(name, func(t *testing.T) {
			root, dir := mkRoot(t)
			st, err := root.Open(ctx, "task")
			if err != nil {
				t.Fatal(err)
			}
			crashed := crowdml.NewHub()
			// The "crashed" hub is only abandoned, and its checkpointer may
			// still be mid-save when the test ends: stop it before the
			// temp directory it writes into is removed.
			t.Cleanup(func() { _ = crashed.Close(ctx) })
			task, err := crashed.CreateTask(ctx, "task", recServerConfig(),
				crowdml.WithStore(st),
				// A count policy exercises mid-run async snapshots, so the
				// recovery path is genuinely snapshot + journal tail (and
				// journal-only when the checkpointer didn't get to run).
				crowdml.WithCheckpointPolicy(crowdml.CheckpointPolicy{AfterN: 7}))
			if err != nil {
				t.Fatal(err)
			}
			driveCrowd(t, task)
			preCrash := task.Server().ExportState()

			// Crash: the hub is dropped with no Hub.Close, so no final
			// checkpoint covers the journal tail. On the file backend the
			// crash is simulated faithfully: the store tree is frozen by
			// copying it to a fresh root — a dead process's files stop
			// changing and the kernel releases its journal flock, which is
			// exactly what the copy gives us (the in-process "crashed" hub
			// still holds the original directory's lock) — and the live
			// journal segment is then torn mid-append the way a dying
			// process would leave it.
			if dir != "" {
				crashDir := t.TempDir()
				copyTree(t, dir, crashDir)
				tearLiveSegment(t, filepath.Join(crashDir, "task"))
				root, err = crowdml.NewFileRoot(crashDir)
				if err != nil {
					t.Fatal(err)
				}
			}

			reopened, err := crowdml.OpenHub(ctx, root, func(taskID string) (crowdml.ServerConfig, []crowdml.TaskOption, error) {
				return recServerConfig(), nil, nil
			})
			if err != nil {
				t.Fatalf("OpenHub: %v", err)
			}
			restoredTask, ok := reopened.Task("task")
			if !ok {
				t.Fatal("OpenHub did not restore the task")
			}
			got := restoredTask.Server().ExportState()

			// Zero acknowledged-checkin loss: the recovered state must be
			// EXACTLY the pre-crash state, which must be EXACTLY the
			// never-crashed control state — iteration counter, parameter
			// vector, crowd totals and per-device counters alike.
			if err := invariants.Same(got, preCrash); err != nil {
				t.Errorf("recovered state != pre-crash state: %v", err)
			}
			if err := invariants.Same(got, want); err != nil {
				t.Errorf("recovered state != uncrashed control state: %v", err)
			}
			if got.Iteration != wantCheckins {
				t.Errorf("recovered iteration = %d, want %d", got.Iteration, wantCheckins)
			}
			restoredStore, err := root.Open(ctx, "task")
			if err != nil {
				t.Fatal(err)
			}
			checkRestored(t, restoredStore, got)

			// The restored task keeps learning AND journaling: new checkins
			// apply and survive a clean shutdown + second reopen.
			token, err := restoredTask.Server().RegisterDevice(ctx, "late-device")
			if err != nil {
				t.Fatal(err)
			}
			co, err := restoredTask.Server().Checkout(ctx, "late-device", token)
			if err != nil {
				t.Fatal(err)
			}
			req := &crowdml.CheckinRequest{
				Grad:        make([]float64, recClasses*recDim),
				NumSamples:  1,
				LabelCounts: make([]int, recClasses),
				Version:     co.Version,
			}
			req.Grad[0] = 0.25
			req.LabelCounts[0] = 1
			if err := restoredTask.Server().Checkin(ctx, "late-device", token, req); err != nil {
				t.Fatal(err)
			}
			if err := reopened.Close(ctx); err != nil {
				t.Fatalf("Close: %v", err)
			}
			again, err := crowdml.OpenHub(ctx, root, func(string) (crowdml.ServerConfig, []crowdml.TaskOption, error) {
				return recServerConfig(), nil, nil
			})
			if err != nil {
				t.Fatal(err)
			}
			finalTask, _ := again.Task("task")
			if got := finalTask.Server().Iteration(); got != wantCheckins+1 {
				t.Errorf("after reopen iteration = %d, want %d", got, wantCheckins+1)
			}
			if _, ok := finalTask.Server().ExportState().Devices["late-device"]; !ok {
				t.Error("post-recovery checkin lost its device counters")
			}
			if err := again.Close(ctx); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// copyTree recursively copies a store root, skipping checkpoint temp
// files (a crash can leave one mid-write; recovery ignores them anyway).
func copyTree(t *testing.T, src, dst string) {
	t.Helper()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		from, to := filepath.Join(src, e.Name()), filepath.Join(dst, e.Name())
		if e.IsDir() {
			if err := os.MkdirAll(to, 0o755); err != nil {
				t.Fatal(err)
			}
			copyTree(t, from, to)
			continue
		}
		if strings.HasSuffix(e.Name(), ".tmp") {
			continue
		}
		payload, err := os.ReadFile(from)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(to, payload, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// tearLiveSegment appends a frame cut mid-payload to the newest journal
// segment — the artifact a process dying mid-append leaves behind. The
// cut frame is a prefix of the journal's own first frame (a bare partial
// header when the journal is still empty).
func tearLiveSegment(t *testing.T, storeDir string) {
	t.Helper()
	fs, err := crowdml.NewFileStore(storeDir)
	if err != nil {
		t.Fatal(err)
	}
	segs, err := fs.Segments(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) == 0 {
		t.Fatal("no journal segments to tear")
	}
	torn := []byte("CMW1\x01\x04")
	if first, err := os.ReadFile(filepath.Join(storeDir, segs[0].Name)); err != nil {
		t.Fatal(err)
	} else if len(first) > 48 {
		torn = first[:48]
	}
	f, err := os.OpenFile(filepath.Join(storeDir, segs[len(segs)-1].Name), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(torn); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// checkRestored checks what every restore must leave: counters that
// compose (Eq. 14), and a journal holding each iteration up to the
// restored one exactly once.
func checkRestored(t *testing.T, st crowdml.Store, got *crowdml.ServerState) {
	t.Helper()
	if err := invariants.Counters(got); err != nil {
		t.Error(err)
	}
	if err := invariants.Journal(context.Background(), st, 0, got.Iteration); err != nil {
		t.Error(err)
	}
}

// TestOpenHubEmptyRoot: restoring from nothing yields an empty hub, not
// an error — first boot and restart share one code path.
func TestOpenHubEmptyRoot(t *testing.T) {
	ctx := context.Background()
	h, err := crowdml.OpenHub(ctx, crowdml.NewMemRoot(), func(string) (crowdml.ServerConfig, []crowdml.TaskOption, error) {
		t.Fatal("configure must not be called for an empty root")
		return crowdml.ServerConfig{}, nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if h.Len() != 0 {
		t.Errorf("Len = %d, want 0", h.Len())
	}
	if err := h.Close(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestCloseTaskStopPersistsAcrossOpenHub: CloseTask ends the task for
// good, so its stop is learning state — unlike Hub.Close's shutdown, it is
// in the final checkpoint, and the task OpenHub restores stays stopped.
func TestCloseTaskStopPersistsAcrossOpenHub(t *testing.T) {
	ctx := context.Background()
	root := crowdml.NewMemRoot()
	st, err := root.Open(ctx, "task")
	if err != nil {
		t.Fatal(err)
	}
	h := crowdml.NewHub()
	task, err := h.CreateTask(ctx, "task", recServerConfig(), crowdml.WithStore(st))
	if err != nil {
		t.Fatal(err)
	}
	driveCrowd(t, task)
	want := task.Server().Iteration()
	if err := h.CloseTask(ctx, "task"); err != nil {
		t.Fatal(err)
	}

	reopened, err := crowdml.OpenHub(ctx, root, func(string) (crowdml.ServerConfig, []crowdml.TaskOption, error) {
		return recServerConfig(), nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	restored, ok := reopened.Task("task")
	if !ok {
		t.Fatal("OpenHub did not restore the closed task")
	}
	srv := restored.Server()
	if !srv.Stopped() || srv.Iteration() != want {
		t.Errorf("restored task: stopped %v at iteration %d, want stopped at %d", srv.Stopped(), srv.Iteration(), want)
	}
	token, err := srv.RegisterDevice(ctx, "late")
	if err != nil {
		t.Fatal(err)
	}
	req := &crowdml.CheckinRequest{Grad: make([]float64, recClasses*recDim), NumSamples: 1, LabelCounts: make([]int, recClasses)}
	if err := srv.Checkin(ctx, "late", token, req); !errors.Is(err, crowdml.ErrStopped) {
		t.Errorf("checkin on the restored closed task = %v, want ErrStopped", err)
	}
	if err := reopened.Close(ctx); err != nil {
		t.Fatal(err)
	}
}

// countingStore wraps a Store and counts the journal records streamed
// through the cursors it opens — the restore path's actual read volume,
// which segmentation must bound by rotation cadence.
type countingStore struct {
	crowdml.Store
	tailRecords int
}

func (c *countingStore) OpenCursor(ctx context.Context, afterIteration int) (crowdml.JournalCursor, error) {
	cur, err := c.Store.OpenCursor(ctx, afterIteration)
	if err != nil {
		return nil, err
	}
	return &countingCursor{JournalCursor: cur, n: &c.tailRecords}, nil
}

type countingCursor struct {
	crowdml.JournalCursor
	n *int
}

func (c *countingCursor) Next() (crowdml.JournalEntry, error) {
	e, err := c.JournalCursor.Next()
	if err == nil {
		*c.n++
	}
	return e, err
}

// drainJournal streams a store's full journal into a slice — the
// test-only wrapper over the cursor audit scan.
func drainJournal(t *testing.T, st crowdml.Store) []crowdml.JournalEntry {
	t.Helper()
	cur, err := st.OpenCursor(context.Background(), 0)
	if err != nil {
		t.Fatalf("audit read: %v", err)
	}
	defer cur.Close()
	var out []crowdml.JournalEntry
	for {
		e, err := cur.Next()
		if errors.Is(err, io.EOF) {
			return out
		}
		if err != nil {
			t.Fatalf("audit read: %v", err)
		}
		// Entries share the cursor's memory until its next Next.
		e.Grad, e.LabelCounts = slices.Clone(e.Grad), slices.Clone(e.LabelCounts)
		out = append(out, e)
	}
}

// TestRestartReplaysOnlyLiveSegmentTail is the segmentation acceptance
// test on both backends: after N checkpoints (each of which rotates the
// journal), a restart must read back only the live segment's few
// records — not the whole history — while a full cursor scan still
// serves every sealed segment as the audit trail.
func TestRestartReplaysOnlyLiveSegmentTail(t *testing.T) {
	const (
		waves    = 4 // checkpoints (and rotations) before the crash
		perWave  = 5 // checkins per wave == CheckpointPolicy.AfterN
		tailLen  = 3 // checkins after the last checkpoint
		totalN   = waves*perWave + tailLen
		coveredN = waves * perWave
	)
	ctx := context.Background()
	grad := func(i int) []float64 {
		g := make([]float64, recClasses*recDim)
		g[0], g[1] = float64(i)*0.25, -0.5
		return g
	}
	push := func(t *testing.T, srv *crowdml.Server, token string, from, n int) {
		t.Helper()
		for i := from; i < from+n; i++ {
			co, err := srv.Checkout(ctx, "d1", token)
			if err != nil {
				t.Fatal(err)
			}
			req := &crowdml.CheckinRequest{
				Grad: grad(i), NumSamples: 2, ErrCount: i % 2,
				LabelCounts: []int{1, 1, 0}, Version: co.Version,
			}
			if err := srv.Checkin(ctx, "d1", token, req); err != nil {
				t.Fatal(err)
			}
		}
	}
	waitFor := func(t *testing.T, what string, cond func() bool) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for !cond() {
			if time.Now().After(deadline) {
				t.Fatal("timed out waiting for " + what)
			}
			time.Sleep(time.Millisecond)
		}
	}

	backends := map[string]func(t *testing.T) (st crowdml.Store, segments func() int, reopen func(t *testing.T) crowdml.Store){
		"MemStore": func(t *testing.T) (crowdml.Store, func() int, func(t *testing.T) crowdml.Store) {
			st := crowdml.NewMemStore()
			return st, segmentCount(t, st), func(t *testing.T) crowdml.Store { return st }
		},
		"FileStore": func(t *testing.T) (crowdml.Store, func() int, func(t *testing.T) crowdml.Store) {
			dir := t.TempDir()
			st, err := crowdml.NewFileStore(dir)
			if err != nil {
				t.Fatal(err)
			}
			segments := segmentCount(t, st)
			reopen := func(t *testing.T) crowdml.Store {
				// Crash semantics: freeze the files and release the dead
				// process's flock by copying the tree (see copyTree).
				crashDir := t.TempDir()
				copyTree(t, dir, crashDir)
				st2, err := crowdml.NewFileStore(crashDir)
				if err != nil {
					t.Fatal(err)
				}
				return st2
			}
			return st, segments, reopen
		},
	}
	for name, mk := range backends {
		t.Run(name, func(t *testing.T) {
			st, segments, reopen := mk(t)
			h := crowdml.NewHub()
			task, err := h.CreateTask(ctx, "task", recServerConfig(),
				crowdml.WithStore(st),
				crowdml.WithCheckpointPolicy(crowdml.CheckpointPolicy{AfterN: perWave}))
			if err != nil {
				t.Fatal(err)
			}
			token, err := task.Server().RegisterDevice(ctx, "d1")
			if err != nil {
				t.Fatal(err)
			}
			for w := 0; w < waves; w++ {
				push(t, task.Server(), token, w*perWave+1, perWave)
				// Each wave trips the AfterN checkpoint, whose success seals
				// the live segment; waiting for the new segment makes the
				// layout deterministic: wave w's records are sealed, the
				// next wave starts a fresh segment.
				waitFor(t, "checkpoint rotation", func() bool { return segments() == w+2 })
			}
			push(t, task.Server(), token, coveredN+1, tailLen) // the un-checkpointed tail
			preCrash := task.Server().ExportState()

			// Crash without Close; restore with a wrapper that counts what
			// the restore path actually reads.
			counting := &countingStore{Store: reopen(t)}
			h2 := crowdml.NewHub()
			restored, err := h2.CreateTask(ctx, "task", recServerConfig(), crowdml.WithStore(counting))
			if err != nil {
				t.Fatal(err)
			}
			got := restored.Server().ExportState()
			if err := invariants.Same(got, preCrash); err != nil {
				t.Errorf("recovered state != pre-crash state: %v", err)
			}
			if got.Iteration != totalN {
				t.Errorf("recovered iteration = %d, want %d", got.Iteration, totalN)
			}
			// THE bound: restore read only the live segment's tail records,
			// not the coveredN records sealed behind the 4 checkpoints.
			if counting.tailRecords != tailLen {
				t.Errorf("restore read %d journal records, want only the %d-record live segment tail",
					counting.tailRecords, tailLen)
			}
			checkRestored(t, counting.Store, got)
			// Sealed segments remain the complete audit trail.
			audit := drainJournal(t, counting)
			if len(audit) != totalN {
				t.Fatalf("audit trail has %d entries, want %d", len(audit), totalN)
			}
			for i := range audit {
				if audit[i].Iteration != i+1 {
					t.Fatalf("audit entry %d has iteration %d", i, audit[i].Iteration)
				}
			}
			if err := h2.Close(ctx); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// segmentCount returns a probe of st's journal segment count.
func segmentCount(t *testing.T, st *crowdml.FileStore) func() int {
	return func() int {
		segs, err := st.Segments(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return len(segs)
	}
}

func adaGradConfig() crowdml.ServerConfig {
	return crowdml.ServerConfig{
		Model:   crowdml.NewLogisticRegression(recClasses, recDim),
		Updater: crowdml.NewAdaGrad(0.5, 0),
	}
}

// TestAdaGradCrashRecoveryBitExact: with the updater's accumulators
// riding in checkpoints (optimizer.StateExporter), recovery of an
// AdaGrad task is bit-exact against an uncrashed control run even when
// the restore is genuinely checkpoint + journal-tail — the imported
// accumulators must line up exactly with the replayed records.
func TestAdaGradCrashRecoveryBitExact(t *testing.T) {
	ctx := context.Background()

	// Control: two workload waves on a store-less task, never crashed.
	control := crowdml.NewHub()
	controlTask, err := control.CreateTask(ctx, "task", adaGradConfig())
	if err != nil {
		t.Fatal(err)
	}
	driveCrowdSeeded(t, controlTask, 0)
	driveCrowdSeeded(t, controlTask, 5000)
	want := controlTask.Server().ExportState()
	if len(want.UpdaterState) != recClasses*recDim {
		t.Fatalf("control run exported %d updater-state coordinates, want %d",
			len(want.UpdaterState), recClasses*recDim)
	}

	for name, mkStore := range map[string]func(t *testing.T) (st crowdml.Store, reopen func(t *testing.T) crowdml.Store){
		"MemStore": func(t *testing.T) (crowdml.Store, func(t *testing.T) crowdml.Store) {
			st := crowdml.NewMemStore()
			return st, func(t *testing.T) crowdml.Store { return st }
		},
		"FileStore": func(t *testing.T) (crowdml.Store, func(t *testing.T) crowdml.Store) {
			dir := t.TempDir()
			st, err := crowdml.NewFileStore(dir)
			if err != nil {
				t.Fatal(err)
			}
			return st, func(t *testing.T) crowdml.Store {
				crashDir := t.TempDir()
				copyTree(t, dir, crashDir)
				st2, err := crowdml.NewFileStore(crashDir)
				if err != nil {
					t.Fatal(err)
				}
				return st2
			}
		},
	} {
		t.Run(name, func(t *testing.T) {
			st, reopen := mkStore(t)
			h := crowdml.NewHub()
			task, err := h.CreateTask(ctx, "task", adaGradConfig(),
				crowdml.WithStore(st),
				// No automatic trigger: the mid-run checkpoint below is the
				// only snapshot, so the restore is provably checkpoint (with
				// accumulators at the halfway state) + journal-tail replay.
				crowdml.WithCheckpointPolicy(crowdml.CheckpointPolicy{Every: time.Hour}))
			if err != nil {
				t.Fatal(err)
			}
			driveCrowdSeeded(t, task, 0)
			if err := st.Save(ctx, task.Server().ExportState(), time.Now()); err != nil {
				t.Fatal(err)
			}
			driveCrowdSeeded(t, task, 5000) // the tail beyond the snapshot

			// Crash without Close; restore with a FRESH AdaGrad updater.
			restoreStore := reopen(t)
			cp, err := restoreStore.Load(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if len(cp.State.UpdaterState) != recClasses*recDim {
				t.Fatalf("checkpoint carries %d updater-state coordinates, want %d",
					len(cp.State.UpdaterState), recClasses*recDim)
			}
			h2 := crowdml.NewHub()
			restored, err := h2.CreateTask(ctx, "task", adaGradConfig(), crowdml.WithStore(restoreStore))
			if err != nil {
				t.Fatal(err)
			}
			got := restored.Server().ExportState()
			// The parameters AND the recovered accumulators must match the
			// never-crashed control bit for bit.
			if err := invariants.Same(got, want); err != nil {
				t.Errorf("recovered AdaGrad state != uncrashed control state: %v", err)
			}
			checkRestored(t, restoreStore, got)
			if err := h2.Close(ctx); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestDurableTaskSurvivesCleanRestartLoop hammers the full lifecycle:
// run → Close → OpenHub, three generations, state strictly accumulating.
func TestDurableTaskSurvivesCleanRestartLoop(t *testing.T) {
	ctx := context.Background()
	root := crowdml.NewMemRoot()
	total := 0
	for gen := 0; gen < 3; gen++ {
		h, err := crowdml.OpenHub(ctx, root, func(string) (crowdml.ServerConfig, []crowdml.TaskOption, error) {
			return recServerConfig(), nil, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		task, ok := h.Task("task")
		if !ok {
			st, err := root.Open(ctx, "task")
			if err != nil {
				t.Fatal(err)
			}
			task, err = h.CreateTask(ctx, "task", recServerConfig(), crowdml.WithStore(st))
			if err != nil {
				t.Fatal(err)
			}
		}
		if got := task.Server().Iteration(); got != total {
			t.Fatalf("generation %d starts at iteration %d, want %d", gen, got, total)
		}
		driveCrowd(t, task)
		total += recDevices * (recPerDevice / recMinibatch)
		if got := task.Server().Iteration(); got != total {
			t.Fatalf("generation %d ends at iteration %d, want %d", gen, got, total)
		}
		if err := h.Close(ctx); err != nil {
			t.Fatal(err)
		}
	}
}
