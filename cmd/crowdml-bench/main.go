// Command crowdml-bench regenerates the figures of the paper's evaluation
// (Figs. 3–9; Figs. 7–9 are the Appendix D object-recognition repeats) and
// prints each as an aligned text table. With -server it instead load-tests
// a live Crowd-ML server over HTTP, measuring checkin throughput against
// one hosted task; with -durability it measures the cost of write-ahead
// journaling on an in-process crowd (the same task run store-less, then
// with a file-backed WAL + asynchronous checkpoints).
//
// Examples:
//
//	crowdml-bench -fig fig4                 # one figure, paper scale
//	crowdml-bench -fig all -scale 0.05      # everything, 5% scale (fast)
//	crowdml-bench -fig fig5 -trials 10      # the paper's 10-trial protocol
//	crowdml-bench -server http://localhost:8080 -task activity \
//	    -enroll-key join -devices 16 -samples 200   # HTTP load bench
//	crowdml-bench -durability -devices 16 -samples 400   # WAL overhead
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"testing"
	"time"

	crowdml "github.com/crowdml/crowdml"
	"github.com/crowdml/crowdml/internal/activity"
	"github.com/crowdml/crowdml/internal/experiments"
	"github.com/crowdml/crowdml/internal/rng"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	var (
		fig    = flag.String("fig", "all", "what to run: fig3..fig9, all, an ablation id, or ablations")
		scale  = flag.Float64("scale", 1.0, "experiment scale (1.0 = paper size)")
		trials = flag.Int("trials", 1, "randomized trials per curve (paper: 10)")
		seed   = flag.Uint64("seed", 42, "base random seed")
		points = flag.Int("points", 50, "test-error measurements per curve")
		outDir = flag.String("o", "", "also write one <figure>.csv per figure into this directory")

		serverURL  = flag.String("server", "", "load-bench a live server at this base URL instead of regenerating figures")
		durability = flag.Bool("durability", false, "measure in-process checkin throughput with the write-ahead journal off vs on, then exit")
		taskID     = flag.String("task", "default", "task ID to bench against")
		enrollKey  = flag.String("enroll-key", "", "enrollment key for the load bench")
		devices    = flag.Int("devices", 8, "concurrent devices in the load bench")
		samples    = flag.Int("samples", 200, "samples per device in the load bench")
		minibatch  = flag.Int("minibatch", 5, "minibatch size b in the load bench")
		checkouts  = flag.Int("checkouts", 0, "after the checkin run, also measure this many checkouts per device (the portal-scale read path; 0 skips)")
		wire       = flag.String("wire", "json", "wire format for the load bench's checkout/checkin traffic: json, binary or binary-delta")
	)
	flag.Parse()

	wireFormat, err := crowdml.ParseWireFormat(*wire)
	if err != nil {
		return err
	}

	if *durability {
		return durabilityBench(*devices, *samples, *minibatch)
	}
	if *serverURL != "" {
		return loadBench(*serverURL, *taskID, *enrollKey, *devices, *samples, *minibatch, *checkouts, wireFormat)
	}

	cfg := experiments.Config{
		Scale: *scale, Trials: *trials, Seed: *seed, EvalPoints: *points,
	}

	ids := []string{*fig}
	switch *fig {
	case "all":
		ids = ids[:0]
		for id := range experiments.All {
			ids = append(ids, id)
		}
		sort.Strings(ids)
	case "ablations":
		ids = ids[:0]
		for id := range experiments.Ablations {
			ids = append(ids, id)
		}
		sort.Strings(ids)
	}
	for _, id := range ids {
		runner, ok := experiments.All[id]
		if !ok {
			runner, ok = experiments.Ablations[id]
		}
		if !ok {
			return fmt.Errorf("unknown figure %q (want fig3..fig9, all, an ablation id, or ablations)", id)
		}
		start := time.Now()
		result, err := runner(cfg)
		if err != nil {
			return fmt.Errorf("%s: %w", id, err)
		}
		if err := experiments.Render(os.Stdout, result); err != nil {
			return err
		}
		if *outDir != "" {
			if err := writeCSVFile(*outDir, id, result); err != nil {
				return err
			}
		}
		fmt.Printf("   (%s completed in %v)\n\n", id, time.Since(start).Round(time.Millisecond))
	}
	return nil
}

// loadBench drives a concurrent crowd of HTTP devices against one task
// of a live server and reports end-to-end checkin throughput (served by
// the batched applier) plus, with -checkouts, checkout throughput (the
// lock-free snapshot read path). The target task's parameter shape is
// read from the /v1/tasks listing, so any hosted task can be benched
// (activity-shaped tasks get the realistic accelerometer stream, others
// a synthetic one).
func loadBench(serverURL, taskID, enrollKey string, devices, samples, minibatch, checkouts int, wire crowdml.WireFormat) error {
	if enrollKey == "" {
		return fmt.Errorf("the load bench needs -enroll-key to enroll its devices")
	}
	ctx := context.Background()
	// benchClient builds one device's task-bound client speaking the
	// selected wire format.
	benchClient := func() *crowdml.HTTPClient {
		client := crowdml.NewHTTPClient(serverURL, nil).WithTask(taskID)
		if wire != crowdml.WireJSON {
			client = client.WithWire(wire)
		}
		return client
	}
	listing, err := crowdml.NewHTTPClient(serverURL, nil).Tasks(ctx)
	if err != nil {
		return fmt.Errorf("fetch task listing: %w", err)
	}
	var summary *crowdml.TaskSummary
	for i := range listing {
		if listing[i].ID == taskID {
			summary = &listing[i]
			break
		}
	}
	if summary == nil {
		return fmt.Errorf("task %q not found in the server's /v1/tasks listing", taskID)
	}
	// Shape-compatible gradients are all the server checks, so a logreg
	// device model of the right shape can bench any task.
	m := crowdml.NewLogisticRegression(summary.Classes, summary.Dim)
	activityShaped := summary.Classes == activity.NumClasses && summary.Dim == activity.FeatureDim
	fmt.Printf("load bench: %d devices × %d samples (b=%d, wire=%s) against %s task %s (C=%d D=%d)\n",
		devices, samples, minibatch, wire, serverURL, summary.ID, summary.Classes, summary.Dim)

	var wg sync.WaitGroup
	errs := make(chan error, 2*devices)
	checkins := make(chan int, devices)
	tokens := make([]string, devices)
	start := time.Now()
	for i := 0; i < devices; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			client := benchClient()
			id := fmt.Sprintf("bench-%03d", i)
			token, err := client.Register(ctx, id, enrollKey)
			if err != nil {
				errs <- fmt.Errorf("%s enroll: %w", id, err)
				return
			}
			tokens[i] = token
			device, err := crowdml.NewDevice(crowdml.DeviceConfig{
				ID: id, Token: token, Model: m,
				Transport: client, Minibatch: minibatch,
				Seed: uint64(i + 1),
			})
			if err != nil {
				errs <- err
				return
			}
			var src crowdml.SampleSource = activity.NewGenerator(uint64(1000 + i))
			if !activityShaped {
				src = &randomSource{
					r: rng.New(uint64(1000 + i)), classes: summary.Classes, dim: summary.Dim,
				}
			}
			if _, err := device.Run(ctx, src, samples); err != nil {
				errs <- fmt.Errorf("%s: %w", id, err)
				return
			}
			checkins <- device.Checkins()
		}(i)
	}
	wg.Wait()
	close(checkins)
	elapsed := time.Since(start)
	select {
	case err := <-errs:
		return err
	default:
	}
	total := 0
	for n := range checkins {
		total += n
	}
	fmt.Printf("  %d checkins in %v — %.0f checkins/s, %.0f samples/s\n",
		total, elapsed.Round(time.Millisecond),
		float64(total)/elapsed.Seconds(),
		float64(total*minibatch)/elapsed.Seconds())

	if checkouts > 0 {
		// Read-path phase: every device hammers checkout concurrently —
		// served server-side from the immutable parameter snapshot, so
		// this measures transport + JSON cost, not lock contention.
		start = time.Now()
		for i := 0; i < devices; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				client := benchClient()
				id := fmt.Sprintf("bench-%03d", i)
				for n := 0; n < checkouts; n++ {
					if _, err := client.Checkout(ctx, id, tokens[i]); err != nil {
						errs <- fmt.Errorf("%s checkout: %w", id, err)
						return
					}
				}
			}(i)
		}
		wg.Wait()
		elapsed = time.Since(start)
		select {
		case err := <-errs:
			return err
		default:
		}
		fmt.Printf("  %d checkouts in %v — %.0f checkouts/s\n",
			devices*checkouts, elapsed.Round(time.Millisecond),
			float64(devices*checkouts)/elapsed.Seconds())
	}
	return nil
}

// durabilityBench measures what the durability layer costs the write
// path: the same in-process crowd (loopback transport, activity-shaped
// task) runs store-less, then with a file-backed write-ahead journal
// plus asynchronous checkpoints (fsync off — process-crash durability),
// then again with group-commit fsync (SyncBatch — power-loss
// durability), and the phase reports each throughput and its overhead
// over the store-less baseline. The journal append and the per-batch
// fsync both run on the batch leader outside the parameter lock, so
// this measures the honest per-checkin durability cost — the fsync-off
// number is what benchgate guards via BenchmarkCheckinJournaled. That
// phase also ends with an audit scan: the whole journal is streamed
// back through a cursor under allocation tracking, reporting B/op (and
// B per entry) so the read path's bounded memory is measurable, not
// just asserted.
func durabilityBench(devices, samples, minibatch int) error {
	ctx := context.Background()
	m := crowdml.NewLogisticRegression(activity.NumClasses, activity.FeatureDim)

	run := func(st crowdml.Store, policy crowdml.SyncPolicy) (checkins int, elapsed time.Duration, err error) {
		h := crowdml.NewHub()
		opts := []crowdml.TaskOption{}
		if st != nil {
			opts = append(opts,
				crowdml.WithStore(st),
				// A count policy keeps the checkpointer busy during the run
				// instead of idling behind a one-minute timer.
				crowdml.WithCheckpointPolicy(crowdml.CheckpointPolicy{AfterN: 256}),
				crowdml.WithSyncPolicy(policy))
		}
		task, err := h.CreateTask(ctx, "bench", crowdml.ServerConfig{
			Model:   m,
			Updater: crowdml.NewSGD(crowdml.InvSqrt{C: 10}, 0),
		}, opts...)
		if err != nil {
			return 0, 0, err
		}
		var wg sync.WaitGroup
		errs := make(chan error, devices)
		counts := make(chan int, devices)
		start := time.Now()
		for i := 0; i < devices; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				id := fmt.Sprintf("bench-%03d", i)
				token, err := task.Server().RegisterDevice(ctx, id)
				if err != nil {
					errs <- err
					return
				}
				device, err := crowdml.NewDevice(crowdml.DeviceConfig{
					ID: id, Token: token, Model: m,
					Transport: crowdml.NewLoopback(task.Server()),
					Minibatch: minibatch,
					Seed:      uint64(i + 1),
				})
				if err != nil {
					errs <- err
					return
				}
				if _, err := device.Run(ctx, activity.NewGenerator(uint64(1000+i)), samples); err != nil {
					errs <- fmt.Errorf("%s: %w", id, err)
					return
				}
				counts <- device.Checkins()
			}(i)
		}
		wg.Wait()
		elapsed = time.Since(start)
		close(counts)
		select {
		case err := <-errs:
			return 0, 0, err
		default:
		}
		for n := range counts {
			checkins += n
		}
		if err := h.Close(ctx); err != nil {
			return 0, 0, fmt.Errorf("flush: %w", err)
		}
		return checkins, elapsed, nil
	}

	fmt.Printf("durability bench: %d devices × %d samples (b=%d), in-process loopback\n",
		devices, samples, minibatch)
	baseN, baseT, err := run(nil, crowdml.SyncNone)
	if err != nil {
		return err
	}
	baseRate := float64(baseN) / baseT.Seconds()
	fmt.Printf("  store-less:      %d checkins in %v — %.0f checkins/s\n",
		baseN, baseT.Round(time.Millisecond), baseRate)

	walPhase := func(label string, policy crowdml.SyncPolicy, note string, withAuditScan bool) error {
		dir, err := os.MkdirTemp("", "crowdml-durability-bench-")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		fs, err := crowdml.NewFileStore(dir)
		if err != nil {
			return err
		}
		walN, walT, err := run(fs, policy)
		if err != nil {
			return err
		}
		walRate := float64(walN) / walT.Seconds()
		fmt.Printf("  %s %d checkins in %v — %.0f checkins/s\n",
			label, walN, walT.Round(time.Millisecond), walRate)
		if walRate > 0 {
			fmt.Printf("    overhead vs store-less: %.1f%% (%s)\n",
				(baseRate/walRate-1)*100, note)
		}
		// Verify the WAL invariant and the rotation bookkeeping: every
		// acknowledged checkin has exactly one entry across the segment
		// chain, and the AfterN checkpoints sealed segments along the way.
		// The verification streams the journal through a cursor — the
		// audit path holds one decoded entry at a time.
		entries, err := countJournal(fs)
		if err != nil {
			return fmt.Errorf("verify journal: %w", err)
		}
		if entries != walN {
			return fmt.Errorf("journal has %d entries for %d acknowledged checkins", entries, walN)
		}
		segs, err := fs.Segments(ctx)
		if err != nil {
			return fmt.Errorf("list segments: %w", err)
		}
		fmt.Printf("    journal verified: %d entries across %d segment(s), one entry per acknowledged checkin\n",
			entries, len(segs))
		if withAuditScan {
			if err := auditScan(fs, entries); err != nil {
				return err
			}
		}
		return nil
	}
	if err := walPhase("journaled:      ", crowdml.SyncNone,
		"fsync off: every acknowledged checkin survives a process crash", true); err != nil {
		return err
	}
	return walPhase("journaled+fsync:", crowdml.SyncBatch,
		"group-commit fsync: acknowledged checkins survive power loss", false)
}

// countJournal streams the full journal through a cursor, counting the
// entries — the audit read, with O(one entry) resident memory.
func countJournal(st crowdml.Store) (int, error) {
	cur, err := st.OpenCursor(context.Background(), 0)
	if err != nil {
		return 0, err
	}
	defer cur.Close()
	n := 0
	for {
		if _, err := cur.Next(); err != nil {
			if errors.Is(err, io.EOF) {
				return n, nil
			}
			return n, err
		}
		n++
	}
}

// auditScan is the -durability bench's streaming-read phase: it runs
// the full audit scan under testing.Benchmark with allocation tracking
// and reports B/op — total and per streamed entry. The per-entry figure
// is the one to watch: it stays flat however many segments (checkpoint
// cycles) the journal has accumulated, because the cursor never
// materializes more than one decoded entry, where a slice-based read
// would retain the entire decoded history at once.
func auditScan(st crowdml.Store, entries int) error {
	var scanErr error
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			n, err := countJournal(st)
			if err != nil {
				scanErr = err
				b.FailNow()
			}
			if n != entries {
				scanErr = fmt.Errorf("audit scan saw %d entries, want %d", n, entries)
				b.FailNow()
			}
		}
	})
	if scanErr != nil {
		return fmt.Errorf("audit scan: %w", scanErr)
	}
	perEntry := 0.0
	if entries > 0 {
		perEntry = float64(res.AllocedBytesPerOp()) / float64(entries)
	}
	fmt.Printf("    audit scan:     %d entries streamed in %v — %d B/op total, %.0f B per entry (resident memory is O(one entry))\n",
		entries, time.Duration(res.NsPerOp()).Round(time.Microsecond), res.AllocedBytesPerOp(), perEntry)
	return nil
}

// randomSource generates L1-normalized random samples of an arbitrary
// task shape for load-benching non-activity tasks.
type randomSource struct {
	r            *rng.RNG
	classes, dim int
}

func (s *randomSource) Next() (crowdml.Sample, error) {
	x := make([]float64, s.dim)
	for i := range x {
		x[i] = s.r.Uniform(-1, 1)
	}
	crowdml.NormalizeL1(x)
	return crowdml.Sample{X: x, Y: s.r.Intn(s.classes)}, nil
}

// writeCSVFile writes one figure's curves as <dir>/<id>.csv.
func writeCSVFile(dir, id string, fig *experiments.Figure) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("create output dir: %w", err)
	}
	f, err := os.Create(filepath.Join(dir, id+".csv"))
	if err != nil {
		return fmt.Errorf("create csv: %w", err)
	}
	if err := experiments.WriteCSV(f, fig); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
