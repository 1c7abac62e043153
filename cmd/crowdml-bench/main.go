// Command crowdml-bench regenerates the figures of the paper's evaluation
// (Figs. 3–9; Figs. 7–9 are the Appendix D object-recognition repeats) and
// prints each as an aligned text table. With -server it instead load-tests
// a live Crowd-ML server over HTTP, measuring checkin throughput against
// one hosted task. (What the write-ahead journal and its fsync cost per
// checkin is the benchmark's hub.checkin_{mem,file,fsync}_us rungs:
// go run -C benchmark . -trace 1.)
//
// Examples:
//
//	crowdml-bench -fig fig4                 # one figure, paper scale
//	crowdml-bench -fig all -scale 0.05      # everything, 5% scale (fast)
//	crowdml-bench -fig fig5 -trials 10      # the paper's 10-trial protocol
//	crowdml-bench -server http://localhost:8080 -task activity \
//	    -enroll-key join -devices 16 -samples 200   # HTTP load bench
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"sort"
	"sync"
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

		serverURL = flag.String("server", "", "load-bench a live server at this base URL instead of regenerating figures")
		taskID    = flag.String("task", "default", "task ID to bench against")
		enrollKey = flag.String("enroll-key", "", "enrollment key for the load bench")
		devices   = flag.Int("devices", 8, "concurrent devices in the load bench")
		samples   = flag.Int("samples", 200, "samples per device in the load bench")
		minibatch = flag.Int("minibatch", 5, "minibatch size b in the load bench")
		checkouts = flag.Int("checkouts", 0, "after the checkin run, also measure this many checkouts per device (the portal-scale read path; 0 skips)")
		wire      = flag.String("wire", "json", "wire format for the load bench's checkout/checkin traffic: json, binary or binary-delta")
	)
	flag.Parse()

	wireFormat, err := crowdml.ParseWireFormat(*wire)
	if err != nil {
		return err
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
