// Command crowdml-scenario runs named or file-defined deterministic
// scenarios against the real Crowd-ML server — behind the real HTTP stack
// (topologies single and follower) or in process without sockets
// (topology inprocess) — and writes a machine-readable JSON report:
// convergence curve, throughput, churn and rejection counts, and scraped
// /v1/metrics deltas.
//
// Examples:
//
//	crowdml-scenario -list                       # show built-in scenarios
//	crowdml-scenario -name churn-straggler-2k    # run a built-in
//	crowdml-scenario -file my-scenario.json -o report.json
//	crowdml-scenario -name byzantine-2k -seed 7
//	crowdml-scenario -name crowd-100k-inprocess  # 100,000 devices, no sockets
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"github.com/crowdml/crowdml/internal/scenario"
)

func main() {
	switch err := run(context.Background(), os.Args[1:], os.Stdout, os.Stderr); {
	case errors.Is(err, flag.ErrHelp):
	case errors.Is(err, errUsage):
		os.Exit(2)
	case err != nil:
		fmt.Fprintln(os.Stderr, "crowdml-scenario:", err)
		os.Exit(1)
	}
}

// errUsage marks a command line the command refused and has explained
// on stderr.
var errUsage = errors.New("usage")

// run is the command: it writes the JSON report to -o, or to stdout.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("crowdml-scenario", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name = fs.String("name", "", "built-in scenario to run (see -list)")
		file = fs.String("file", "", "JSON scenario spec file to run instead of a built-in")
		list = fs.Bool("list", false, "list built-in scenarios and exit")
		out  = fs.String("o", "", "write the JSON report here (default stdout)")
		seed = fs.Uint64("seed", 0, "override the spec's seed (0 keeps it)")
	)
	if err := fs.Parse(args); err != nil {
		return fmt.Errorf("%w: %w", errUsage, err)
	}
	// What the command would not read is refused, not dropped.
	refused := ""
	switch {
	case fs.NArg() > 0:
		refused = fmt.Sprintf("unexpected argument %q", fs.Arg(0))
	case *name != "" && *file != "":
		refused = "-name and -file are exclusive"
	}
	if refused != "" {
		fmt.Fprintln(stderr, refused)
		fs.Usage()
		return fmt.Errorf("%w: %s", errUsage, refused)
	}

	if *list {
		fmt.Fprintln(stdout, strings.Join(scenario.BuiltinNames(), "\n"))
		return nil
	}

	var spec scenario.Spec
	switch {
	case *file != "":
		raw, err := os.ReadFile(*file)
		if err != nil {
			return err
		}
		dec := json.NewDecoder(bytes.NewReader(raw))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&spec); err != nil {
			return fmt.Errorf("parse %s: %w", *file, err)
		}
		if _, err := dec.Token(); err != io.EOF {
			return fmt.Errorf("parse %s: data after the spec", *file)
		}
	case *name != "":
		s, ok := scenario.Builtin(*name)
		if !ok {
			return fmt.Errorf("unknown scenario %q (try -list)", *name)
		}
		spec = s
	default:
		return fmt.Errorf("one of -name or -file is required (or -list)")
	}
	if *seed != 0 {
		spec.Seed = *seed
	}

	rep, err := scenario.Run(ctx, spec)
	if err != nil {
		return err
	}
	data, err := rep.JSON()
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if *out == "" {
		_, err = stdout.Write(data)
		return err
	}
	return os.WriteFile(*out, data, 0o644)
}
