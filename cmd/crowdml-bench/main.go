// Command crowdml-bench regenerates the figures of the paper's evaluation
// (Figs. 3–9; Figs. 7–9 are the Appendix D object-recognition repeats) and
// prints each as an aligned text table. Load and per-layer cost of a live
// server are the benchmark's (go run -C benchmark . -trace 1), and its
// per-stage time is the server's own crowdml_checkin_stage_seconds.
//
// Examples:
//
//	crowdml-bench -fig fig4                 # one figure, paper scale
//	crowdml-bench -fig all -scale 0.05      # everything, 5% scale (fast)
//	crowdml-bench -fig fig5 -trials 10      # the paper's 10-trial protocol
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"time"

	"github.com/crowdml/crowdml/internal/experiments"
)

func main() {
	switch err := run(context.Background(), os.Args[1:], os.Stdout, os.Stderr); {
	case errors.Is(err, flag.ErrHelp):
	case errors.Is(err, errUsage):
		os.Exit(2)
	case err != nil:
		fmt.Fprintln(os.Stderr, "crowdml-bench:", err)
		os.Exit(1)
	}
}

// errUsage marks a command line the flag set refused and has explained.
var errUsage = errors.New("usage")

// run is the command: it prints each figure's table on stdout.
func run(_ context.Context, args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("crowdml-bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		fig    = fs.String("fig", "all", "what to run: fig3..fig9, all, an ablation id, or ablations")
		scale  = fs.Float64("scale", 1.0, "experiment scale (1.0 = paper size)")
		trials = fs.Int("trials", 1, "randomized trials per curve (paper: 10)")
		seed   = fs.Uint64("seed", 42, "base random seed")
		points = fs.Int("points", 50, "test-error measurements per curve")
		outDir = fs.String("o", "", "also write one <figure>.csv per figure into this directory")
	)
	if err := fs.Parse(args); err != nil {
		return fmt.Errorf("%w: %w", errUsage, err)
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "unexpected arguments %q\n", fs.Args())
		fs.Usage()
		return fmt.Errorf("%w: unexpected arguments %q", errUsage, fs.Args())
	}

	cfg := experiments.Config{
		Scale: *scale, Trials: *trials, Seed: *seed, EvalPoints: *points,
	}

	ids := []string{*fig}
	switch *fig {
	case "all":
		ids = slices.Sorted(maps.Keys(experiments.All))
	case "ablations":
		ids = slices.Sorted(maps.Keys(experiments.Ablations))
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
		if err := experiments.Render(stdout, result); err != nil {
			return err
		}
		if *outDir != "" {
			if err := writeCSVFile(*outDir, id, result); err != nil {
				return err
			}
		}
		fmt.Fprintf(stdout, "   (%s completed in %v)\n\n", id, time.Since(start).Round(time.Millisecond))
	}
	return nil
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
