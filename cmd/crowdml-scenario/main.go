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
//	crowdml-scenario -name byzantine-2k -seed 7 -workers 4
//	crowdml-scenario -name crowd-100k-inprocess  # 100,000 devices, no sockets
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"github.com/crowdml/crowdml/internal/scenario"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	var (
		name    = flag.String("name", "", "built-in scenario to run (see -list)")
		file    = flag.String("file", "", "JSON scenario spec file to run instead of a built-in")
		list    = flag.Bool("list", false, "list built-in scenarios and exit")
		out     = flag.String("o", "", "write the JSON report here (default stdout)")
		seed    = flag.Uint64("seed", 0, "override the spec's seed (0 keeps it)")
		workers = flag.Int("workers", 0, "override the spec's worker count (0 keeps it; 1 = deterministic)")
	)
	flag.Parse()

	if *list {
		fmt.Println(strings.Join(scenario.BuiltinNames(), "\n"))
		return nil
	}

	var spec scenario.Spec
	switch {
	case *file != "":
		raw, err := os.ReadFile(*file)
		if err != nil {
			return err
		}
		dec := json.NewDecoder(strings.NewReader(string(raw)))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&spec); err != nil {
			return fmt.Errorf("parse %s: %w", *file, err)
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
	if *workers != 0 {
		spec.Workers = *workers
	}

	rep, err := scenario.Run(context.Background(), spec)
	if err != nil {
		return err
	}
	data, err := rep.JSON()
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if *out == "" {
		_, err = os.Stdout.Write(data)
		return err
	}
	return os.WriteFile(*out, data, 0o644)
}
