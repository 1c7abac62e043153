// Command benchmark is crowdbench, the repository's end-to-end
// benchmark: four crowd workloads driven through the real HTTP stack,
// sixteen named end-to-end metrics, and — with -trace 1 — a traced
// replay plus a layer ladder that attribute a device cycle's time to
// the repository's packages. See README.md in this directory.
//
// It is a module of its own and runs from its directory:
//
//	go run -C benchmark . -seed 1                 # all workloads, end to end
//	go run -C benchmark . -seed 1 -trace 1        # per-layer numbers, trace_<workload>.json
//	go run -C benchmark . -workload crowd_json -seed 7 -seconds 20 -trace 0
//	go run -C benchmark . -compare a.json,a2.json b.json,b2.json
//
// The last line of standard output of a single-workload run is one JSON
// object: {"correct", "attempted", "failed", "metrics"}.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
)

// manifest is BENCHMARK.json: the contract's names and units. The
// program emits exactly the metrics it lists.
type manifest struct {
	Command    []string         `json:"command"`
	Paths      []string         `json:"paths"`
	RunSeconds int              `json:"run_seconds"`
	Workloads  []manifestEntry  `json:"workloads"`
	EndToEnd   []manifestMetric `json:"end_to_end"`
	PerLayer   []manifestMetric `json:"per_layer"`
}

type manifestEntry struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type manifestMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func loadManifest(path string) (*manifest, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var m manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &m, nil
}

// runRecord is result.json: the environment, the settings and every
// workload's result.
type runRecord struct {
	Commit      string            `json:"commit"`
	GoVersion   string            `json:"goVersion"`
	NumCPU      int               `json:"nproc"`
	GOMAXPROCS  int               `json:"gomaxprocs"`
	Seed        uint64            `json:"seed"`
	Clients     int               `json:"clients"`
	Setups      int               `json:"setups"`
	WarmupS     float64           `json:"warmupSeconds"`
	PacedS      float64           `json:"pacedSeconds"`
	SaturationS float64           `json:"saturationSeconds"`
	Results     []*workloadResult `json:"results"`
}

func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

// contractLine is the last line of a single-workload run.
type contractLine struct {
	Correct   bool      `json:"correct"`
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
	Metrics   metricSet `json:"metrics"`
}

// contractMetrics selects the manifest's metrics from what the run
// measured, and refuses to report a partial or non-finite set.
func contractMetrics(have metricSet, want []manifestMetric) (metricSet, error) {
	out := metricSet{}
	for _, mm := range want {
		v, ok := have[mm.Name]
		if !ok {
			return nil, fmt.Errorf("metric %q is in the manifest but was not measured", mm.Name)
		}
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			return nil, fmt.Errorf("metric %q is not finite", mm.Name)
		}
		if v.Unit != mm.Unit {
			return nil, fmt.Errorf("metric %q has unit %q, manifest says %q", mm.Name, v.Unit, mm.Unit)
		}
		out[mm.Name] = v
	}
	return out, nil
}

// printMetrics writes one "workload metric value unit" line per metric.
func printMetrics(w io.Writer, workload string, ms metricSet) {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "%s %s %.6g %s\n", workload, n, ms[n].Value, ms[n].Unit)
	}
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "crowdbench:", err)
		os.Exit(1)
	}
}

// manifestPath is BENCHMARK.json as seen from this directory, where the
// program runs.
const manifestPath = "../BENCHMARK.json"

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	var (
		workloadName = fs.String("workload", "", "run one workload (default: all four)")
		seed         = fs.Uint64("seed", 1, "seed of the generated data, device pool and noise")
		seconds      = fs.Float64("seconds", 0, "measured seconds per run: half paced, half saturation (default: the manifest's run_seconds)")
		trace        = fs.Int("trace", 0, "1: traced replay and layer ladder (per-layer metrics); 0: end-to-end metrics")
		outDir       = fs.String("out", "out", "directory for result.json, trace_<workload>.json and temporary state")
		compare      = fs.String("compare", "", "compare result files: -compare a.json[,a2.json...] b.json[,b2.json...]")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *compare != "" {
		if fs.NArg() != 1 {
			return errors.New("-compare needs two file lists: -compare a.json[,...] b.json[,...]")
		}
		return compareFiles(stdout, strings.Split(*compare, ","), strings.Split(fs.Arg(0), ","))
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	mf, err := loadManifest(manifestPath)
	if err != nil {
		return fmt.Errorf("manifest: %w", err)
	}
	// One load-generator goroutine per processor and never more, and
	// follower_reads needs two: a writer and a reader.
	if runtime.NumCPU() < 2 {
		return errors.New("needs at least 2 processors: a load generator with more clients than processors measures itself")
	}
	if *seconds == 0 {
		*seconds = float64(mf.RunSeconds)
	}
	if *seconds <= 0 {
		return errors.New("-seconds must be positive")
	}
	cfg := runConfig{seed: *seed, seconds: *seconds, outDir: *outDir}

	selected := workloads
	if *workloadName != "" {
		w, ok := workloadByName(*workloadName)
		if !ok {
			return fmt.Errorf("unknown workload %q", *workloadName)
		}
		selected = []workload{*w}
	}
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return err
	}
	// Whatever happens, leave no temporary state behind.
	defer os.RemoveAll(cfg.tmpRoot())

	rec := &runRecord{
		Commit: commit(), GoVersion: runtime.Version(),
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Seed: cfg.seed, Clients: numClients(), Setups: setups,
		WarmupS: cfg.warmup().Seconds(), PacedS: cfg.phase().Seconds(), SaturationS: cfg.phase().Seconds(),
	}
	ctx := context.Background()
	var last contractLine
	allCorrect := true
	for i := range selected {
		w := &selected[i]
		var res *workloadResult
		want := mf.EndToEnd
		if *trace == 1 {
			want = mf.PerLayer
			res, err = runTraced(ctx, w, cfg)
		} else {
			res, err = runWorkload(ctx, w, cfg)
		}
		if err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		rec.Results = append(rec.Results, res)
		printMetrics(stdout, w.name, res.Metrics)
		for _, c := range res.Checks {
			state := "ok"
			if !c.OK {
				state = "FAILED"
			}
			fmt.Fprintf(stdout, "%s check %s %s: %s\n", w.name, c.Name, state, c.Detail)
		}
		for _, why := range res.Invalid {
			fmt.Fprintf(stdout, "%s invalid: %s\n", w.name, why)
		}
		ms, err := contractMetrics(res.Metrics, want)
		if err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		last = contractLine{Correct: res.Correct, Attempted: res.Attempted, Failed: res.Failed, Metrics: ms}
		allCorrect = allCorrect && res.Correct
	}
	name := "result.json"
	if *trace == 1 {
		name = "result_trace.json"
	}
	if err := writeJSON(filepath.Join(cfg.outDir, name), rec); err != nil {
		return err
	}
	if len(selected) == 1 {
		line, err := json.Marshal(last)
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, string(line))
	}
	if !allCorrect {
		return errors.New("an output check failed")
	}
	return nil
}

func writeJSON(path string, v any) error {
	raw, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}
