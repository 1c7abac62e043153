package crowdml_test

import (
	"context"
	"fmt"
	"os"
	"time"

	crowdml "github.com/crowdml/crowdml"
)

// exampleConfig is the minimal deterministic task the examples share: a
// 2-class logistic regression with a constant-rate SGD updater.
func exampleConfig() crowdml.ServerConfig {
	return crowdml.ServerConfig{
		Model:   crowdml.NewLogisticRegression(2, 3),
		Updater: crowdml.NewSGD(crowdml.Constant{C: 0.1}, 0),
	}
}

// exampleCheckin pushes one deterministic sanitized checkin.
func exampleCheckin(ctx context.Context, task *crowdml.Task, deviceID string) error {
	srv := task.Server()
	token, err := srv.RegisterDevice(ctx, deviceID)
	if err != nil {
		return err
	}
	co, err := srv.Checkout(ctx, deviceID, token)
	if err != nil {
		return err
	}
	return srv.Checkin(ctx, deviceID, token, &crowdml.CheckinRequest{
		Grad:        []float64{0.5, -0.25, 1, 0, 0.125, -1},
		NumSamples:  2,
		LabelCounts: []int{1, 1},
		Version:     co.Version,
	})
}

// ExampleOpenHub shows the whole durability lifecycle: create a durable
// task, absorb checkins, shut down cleanly, and reopen the process from
// its StoreRoot — the task resumes on its exact pre-shutdown iteration.
func ExampleOpenHub() {
	ctx := context.Background()
	root := crowdml.NewMemRoot() // production: crowdml.NewFileRoot("/var/lib/crowdml")

	configure := func(taskID string) (crowdml.ServerConfig, []crowdml.TaskOption, error) {
		return exampleConfig(), nil, nil // or crowdml.ErrSkipTask
	}

	// First boot: the root is empty, so OpenHub restores nothing and the
	// task is created explicitly.
	hub, err := crowdml.OpenHub(ctx, root, configure)
	if err != nil {
		fmt.Println("open:", err)
		return
	}
	st, _ := root.Open(ctx, "activity")
	task, err := hub.CreateTask(ctx, "activity", exampleConfig(), crowdml.WithStore(st))
	if err != nil {
		fmt.Println("create:", err)
		return
	}
	for _, device := range []string{"phone-1", "phone-2"} {
		if err := exampleCheckin(ctx, task, device); err != nil {
			fmt.Println("checkin:", err)
			return
		}
	}
	if err := hub.Close(ctx); err != nil { // final checkpoint + journal close
		fmt.Println("close:", err)
		return
	}

	// Restart: OpenHub rebuilds every persisted task from the root.
	hub, err = crowdml.OpenHub(ctx, root, configure)
	if err != nil {
		fmt.Println("reopen:", err)
		return
	}
	restored, _ := hub.Task("activity")
	fmt.Println("resumed at iteration", restored.Server().Iteration())
	if err := hub.Close(ctx); err != nil {
		fmt.Println("close:", err)
	}
	// Output: resumed at iteration 2
}

// ExampleWithCheckpointPolicy demonstrates the checkpoint → rotation
// coupling: once the AfterN trigger snapshots the state, the journal
// rotates onto a fresh segment, so a restart replays only the live tail.
func ExampleWithCheckpointPolicy() {
	ctx := context.Background()
	st := crowdml.NewMemStore()
	hub := crowdml.NewHub()
	task, err := hub.CreateTask(ctx, "activity", exampleConfig(),
		crowdml.WithStore(st),
		crowdml.WithCheckpointPolicy(crowdml.CheckpointPolicy{
			Every:  time.Minute, // timer trigger
			AfterN: 2,           // count trigger; both coalesce
		}))
	if err != nil {
		fmt.Println("create:", err)
		return
	}
	for _, device := range []string{"phone-1", "phone-2"} {
		if err := exampleCheckin(ctx, task, device); err != nil {
			fmt.Println("checkin:", err)
			return
		}
	}
	// The checkpointer is asynchronous; wait for the AfterN snapshot's
	// rotation to land.
	segments := func() int {
		segs, _ := st.Segments(ctx)
		return len(segs)
	}
	for segments() < 2 {
		time.Sleep(time.Millisecond)
	}
	fmt.Println("segments after the first checkpoint:", segments())
	if err := hub.Close(ctx); err != nil {
		fmt.Println("close:", err)
	}
	// Output: segments after the first checkpoint: 2
}

// ExampleWithSyncPolicy upgrades a file-backed task from process-crash
// durability (the default) to power-loss durability with group-commit
// fsync: the batch leader fsyncs the journal once per applied batch,
// before any of the batch's checkins are acknowledged.
func ExampleWithSyncPolicy() {
	ctx := context.Background()
	dir, err := os.MkdirTemp("", "crowdml-example-")
	if err != nil {
		fmt.Println("tempdir:", err)
		return
	}
	defer os.RemoveAll(dir)
	st, err := crowdml.NewFileStore(dir)
	if err != nil {
		fmt.Println("store:", err)
		return
	}
	hub := crowdml.NewHub()
	task, err := hub.CreateTask(ctx, "activity", exampleConfig(),
		crowdml.WithStore(st),
		crowdml.WithSyncPolicy(crowdml.SyncBatch)) // group-commit fsync
	if err != nil {
		fmt.Println("create:", err)
		return
	}
	if err := exampleCheckin(ctx, task, "phone-1"); err != nil {
		fmt.Println("checkin:", err)
		return
	}
	if err := hub.Close(ctx); err != nil {
		fmt.Println("close:", err)
		return
	}
	// Audit the journal back through a streaming cursor: entries arrive
	// one at a time (io.EOF ends the stream), so even a huge journal
	// costs one decoded entry of memory to scan.
	cur, err := st.OpenCursor(ctx, 0)
	if err != nil {
		fmt.Println("cursor:", err)
		return
	}
	defer cur.Close()
	n := 0
	for {
		if _, err := cur.Next(); err != nil {
			break // io.EOF: clean end of the journal
		}
		n++
	}
	fmt.Printf("%d checkin on stable storage before its acknowledgment\n", n)
	// Output: 1 checkin on stable storage before its acknowledgment
}

// ExampleWithRetention bounds a durable task's disk growth: with
// PruneCovered, every successful checkpoint-and-rotate cycle deletes
// the sealed segments the fresh checkpoint covers, so the journal
// shrinks back to its live segment instead of accumulating history
// forever (ArchiveCovered moves them aside instead, keeping the audit
// trail).
func ExampleWithRetention() {
	ctx := context.Background()
	st := crowdml.NewMemStore()
	hub := crowdml.NewHub()
	task, err := hub.CreateTask(ctx, "activity", exampleConfig(),
		crowdml.WithStore(st),
		crowdml.WithCheckpointPolicy(crowdml.CheckpointPolicy{AfterN: 2}),
		crowdml.WithRetention(crowdml.PruneCovered))
	if err != nil {
		fmt.Println("create:", err)
		return
	}
	for _, device := range []string{"phone-1", "phone-2"} {
		if err := exampleCheckin(ctx, task, device); err != nil {
			fmt.Println("checkin:", err)
			return
		}
	}
	// The AfterN checkpoint seals the old segment and retention prunes
	// it; wait (bounded) for the asynchronous cycle to land. The cycle
	// is over when the chain is back to one segment whose sequence
	// number has advanced past the pruned one.
	for deadline := time.Now().Add(10 * time.Second); ; {
		segs, err := st.Segments(ctx)
		if err != nil {
			fmt.Println("segments:", err)
			return
		}
		if len(segs) == 1 && segs[0].Seq == 2 {
			break
		}
		if time.Now().After(deadline) {
			fmt.Println("prune cycle never landed:", segs)
			return
		}
		time.Sleep(time.Millisecond)
	}
	fmt.Println("segments after the prune cycle: 1")
	if err := hub.Close(ctx); err != nil {
		fmt.Println("close:", err)
	}
	// Output: segments after the prune cycle: 1
}
