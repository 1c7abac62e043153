package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/crowdml/crowdml/internal/scenario"
)

// tinySpec is an in-process crowd small enough to run in milliseconds.
const tinySpec = `{
	"name": "tiny", "topology": "inprocess",
	"devices": 20, "samples": 200, "seed": 3,
	"classes": 3, "dim": 4, "trainSize": 200, "testSize": 50,
	"learningRate": 8
}`

// runCmd runs the command with args and returns its stdout and error.
func runCmd(t *testing.T, args ...string) (string, error) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	err := run(context.Background(), args, &stdout, &stderr)
	return stdout.String(), err
}

// writeSpec writes payload to a spec file and returns its path.
func writeSpec(t *testing.T, payload string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "spec.json")
	if err := os.WriteFile(path, []byte(payload), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestListPrintsBuiltins(t *testing.T) {
	out, err := runCmd(t, "-list")
	if err != nil {
		t.Fatal(err)
	}
	if got, want := strings.Fields(out), scenario.BuiltinNames(); strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("-list printed %q, want %q", got, want)
	}
}

// TestSpecFileRefusesWorkers: the engine has one execution mode, so a spec
// that still sets "workers" names a field the spec does not have.
func TestSpecFileRefusesWorkers(t *testing.T) {
	path := writeSpec(t, strings.Replace(tinySpec, `"seed": 3,`, `"seed": 3, "workers": 1,`, 1))
	_, err := runCmd(t, "-file", path)
	if err == nil || !strings.Contains(err.Error(), `unknown field "workers"`) {
		t.Fatalf("spec with workers: %v, want an unknown-field error", err)
	}
}

func TestWorkersFlagRefused(t *testing.T) {
	if _, err := runCmd(t, "-name", "churn-straggler-2k", "-workers", "4"); !errors.Is(err, errUsage) {
		t.Fatalf("-workers 4: %v, want the usage error", err)
	}
}

// TestFileRefusesName: -file runs the file's spec, so a -name beside it
// would be dropped; the command refuses the pair instead.
func TestFileRefusesName(t *testing.T) {
	path := writeSpec(t, tinySpec)
	for _, name := range []string{"no-such-scenario", "churn-straggler-2k"} {
		if _, err := runCmd(t, "-name", name, "-file", path); !errors.Is(err, errUsage) {
			t.Errorf("-name %s -file: %v, want the usage error", name, err)
		}
	}
}

// TestRefusesPositionalArgs: the command reads flags only, with or
// without -list.
func TestRefusesPositionalArgs(t *testing.T) {
	path := writeSpec(t, tinySpec)
	for _, args := range [][]string{
		{"-file", path, "extra-arg"},
		{"-list", "extra"},
		{"churn-straggler-2k"},
	} {
		if out, err := runCmd(t, args...); !errors.Is(err, errUsage) || out != "" {
			t.Errorf("%q: printed %d bytes, err %v; want nothing and the usage error", args, len(out), err)
		}
	}
}

// TestSpecFileRefusesTrailingData: a spec file holds one JSON document;
// a second document or junk after it is refused, not silently ignored.
func TestSpecFileRefusesTrailingData(t *testing.T) {
	for _, tail := range []string{`{"devices": 5}`, `junk`, `]`} {
		path := writeSpec(t, tinySpec+"\n"+tail)
		if _, err := runCmd(t, "-file", path); err == nil || !strings.Contains(err.Error(), "data after the spec") {
			t.Errorf("spec followed by %q: %v, want a data-after-the-spec error", tail, err)
		}
	}
}

// TestFileReportEqualsRun: the report -o writes for a -file spec is
// scenario.Run's report for the same spec, wall-clock section aside.
func TestFileReportEqualsRun(t *testing.T) {
	out := filepath.Join(t.TempDir(), "report.json")
	if stdout, err := runCmd(t, "-file", writeSpec(t, tinySpec), "-o", out); err != nil || stdout != "" {
		t.Fatalf("run: %v (stdout %q)", err, stdout)
	}
	raw, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var got scenario.Report
	if err := json.Unmarshal(raw, &got); err != nil {
		t.Fatal(err)
	}
	var spec scenario.Spec
	if err := json.Unmarshal([]byte(tinySpec), &spec); err != nil {
		t.Fatal(err)
	}
	want, err := scenario.Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	gotJSON, err := got.CanonicalJSON()
	if err != nil {
		t.Fatal(err)
	}
	wantJSON, err := want.CanonicalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotJSON, wantJSON) {
		t.Errorf("-o report:\n%s\nscenario.Run:\n%s", gotJSON, wantJSON)
	}
	if got.Checkins == 0 || len(got.Curve) == 0 {
		t.Errorf("degenerate report: %d checkins, %d curve points", got.Checkins, len(got.Curve))
	}
}
