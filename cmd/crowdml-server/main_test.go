package main

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/crowdml/crowdml"
)

// writeDumpStore fills a FileStore in dir with what the dump tools read: a
// checkpoint of two devices, one of whose sanitized counts went negative
// (Laplace noise can do that), and a journal of two entries.
func writeDumpStore(t *testing.T, dir string) {
	t.Helper()
	ctx := context.Background()
	srv, err := crowdml.NewServer(crowdml.ServerConfig{
		Model:   crowdml.NewLogisticRegression(2, 2),
		Updater: crowdml.NewSGD(crowdml.Constant{C: 1}, 0),
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		id  string
		req crowdml.CheckinRequest
	}{
		{"phone-a", crowdml.CheckinRequest{Grad: []float64{0.5, -1, 0, 2}, NumSamples: 4, ErrCount: 1, LabelCounts: []int{3, 1}}},
		{"phone-b", crowdml.CheckinRequest{Grad: []float64{-0.25, 0, 1, 0}, NumSamples: 2, ErrCount: -1, LabelCounts: []int{-2, 3}}},
	} {
		token, err := srv.RegisterDevice(ctx, c.id)
		if err != nil {
			t.Fatal(err)
		}
		if err := srv.Checkin(ctx, c.id, token, &c.req); err != nil {
			t.Fatal(err)
		}
	}
	st, err := crowdml.NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Save(ctx, srv.ExportState(), time.UnixMilli(1700000000000)); err != nil {
		t.Fatal(err)
	}
	j, err := st.OpenJournal(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range []crowdml.JournalEntry{
		{AtUnixMillis: 1700000000001, DeviceID: "phone-a", Iteration: 1, NumSamples: 4, ErrCount: 1,
			GradNorm1: 3.5, Grad: []float64{0.5, -1, 0, 2}, LabelCounts: []int{3, 1}},
		{AtUnixMillis: 1700000000002, DeviceID: "phone-b", Iteration: 2, NumSamples: 2, ErrCount: -1,
			GradNorm1: 1.25, Grad: []float64{-0.25, 0, 1, 0}, LabelCounts: []int{-2, 3}},
	} {
		if err := j.Append(ctx, e); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestDumpToolsOutput pins -dump-checkpoint and -dump-journal byte for
// byte. The checkpoint dump is the documented rollback path — releases
// before the binary checkpoint read it as their checkpoint.json — so a
// change to the Go types behind it must not move a byte.
func TestDumpToolsOutput(t *testing.T) {
	dir := t.TempDir()
	writeDumpStore(t, dir)
	ctx := context.Background()

	var ckpt bytes.Buffer
	if err := dumpCheckpoint(ctx, &ckpt, dir); err != nil {
		t.Fatal(err)
	}
	const wantCheckpoint = `{"savedAtUnixMillis":1700000000000,"state":{"modelName":"multiclass-logistic-regression","classes":2,"dim":2,` +
		`"params":[-0.25,1,-1,-2],"iteration":2,"stopped":false,"totalSamples":6,"totalErrors":0,"totalLabelCounts":[1,4],` +
		`"updaterName":"sgd(constant 1)","devices":{` +
		`"phone-a":{"samples":4,"errors":1,"labelCounts":[3,1],"checkins":1,"stalenessSum":0},` +
		`"phone-b":{"samples":2,"errors":-1,"labelCounts":[-2,3],"checkins":1,"stalenessSum":1}}}}` + "\n"
	if got := ckpt.String(); got != wantCheckpoint {
		t.Errorf("-dump-checkpoint:\n got %s\nwant %s", got, wantCheckpoint)
	}

	var journal bytes.Buffer
	if err := dumpJournal(ctx, &journal, dir); err != nil {
		t.Fatal(err)
	}
	const wantJournal = `{"atUnixMillis":1700000000001,"deviceId":"phone-a","iteration":1,"numSamples":4,"errCount":1,` +
		`"gradNorm1":3.5,"grad":[0.5,-1,0,2],"labelCounts":[3,1],"version":0}` + "\n" +
		`{"atUnixMillis":1700000000002,"deviceId":"phone-b","iteration":2,"numSamples":2,"errCount":-1,` +
		`"gradNorm1":1.25,"grad":[-0.25,0,1,0],"labelCounts":[-2,3],"version":0}` + "\n"
	if got := journal.String(); got != wantJournal {
		t.Errorf("-dump-journal:\n got %s\nwant %s", got, wantJournal)
	}
}

// TestTasksFileRefusesUnknownFields: a -tasks entry naming a field the
// spec does not have is refused by name, whether it is a typo or a field
// this release no longer reads; a well-formed file still parses.
func TestTasksFileRefusesUnknownFields(t *testing.T) {
	for _, c := range []struct{ name, payload, field string }{
		{"removed field", `[{"id": "act", "classes": 3, "dim": 4, "shards": 4}]`, `"shards"`},
		{"typo", `[{"id": "act", "classes": 3, "dim": 4, "retenton": "prune"}]`, `"retenton"`},
	} {
		t.Run(c.name, func(t *testing.T) {
			_, err := parseTasks([]byte(c.payload))
			if err == nil || !strings.Contains(err.Error(), c.field) {
				t.Fatalf("parseTasks(%s) = %v, want an error naming %s", c.payload, err, c.field)
			}
		})
	}
	for _, bad := range []string{``, `[]`, `[{"id": "act"}] [{"id": "b"}]`} {
		if _, err := parseTasks([]byte(bad)); err == nil {
			t.Errorf("parseTasks(%q) succeeded", bad)
		}
	}
	specs, err := parseTasks([]byte(`[
		{"id": "act", "classes": 3, "dim": 4, "retention": "prune", "follow": "http://leader:8080"},
		{"id": "gest", "model": "svm", "classes": 5, "dim": 8}
	]`))
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 2 || specs[0].Retention != "prune" || specs[0].Follow != "http://leader:8080" || specs[1].Model != "svm" {
		t.Errorf("parsed %+v", specs)
	}
}

// TestDefaultTaskInfoMakesNoPrivacyClaim: crowdml-device sends noiseless
// checkins at its default -eps-inv 0, so the server cannot know whether a
// device added noise. The portal text a task gets when its spec leaves
// "objective" and "sensor_data" empty, and the Algorithm line every task
// gets, must claim no privacy level, and the sensor text must say that
// sanitization happens on the device at its configured ε.
func TestDefaultTaskInfoMakesNoPrivacyClaim(t *testing.T) {
	_, info, err := specConfig(taskSpec{ID: "default", Classes: 3, Dim: 64, Rate: 10})
	if err != nil {
		t.Fatal(err)
	}
	if want := "multiclass-logistic-regression via distributed SGD (η(t)=10/√t)"; info.Algorithm != want {
		t.Errorf("Algorithm = %q, want %q", info.Algorithm, want)
	}
	text := info.Objective + "\n" + info.SensorData + "\n" + info.Algorithm
	for _, claim := range []string{"differential", "noise", "privacy"} {
		if strings.Contains(text, claim) {
			t.Errorf("default task info claims %q:\n%s", claim, text)
		}
	}
	if !strings.Contains(info.SensorData, "on the device at the ε it is configured with") {
		t.Errorf("default sensor data does not say where and at what ε a device sanitizes: %q", info.SensorData)
	}
}

// TestPreregisterRefusesFollower: a follower's registry is not the one
// its leader checks writes against, so -preregister on a follower task
// issues no token and names the leader; on a leader task it enrolls and
// prints each device.
func TestPreregisterRefusesFollower(t *testing.T) {
	ctx := context.Background()
	cfg := func() crowdml.ServerConfig {
		return crowdml.ServerConfig{
			Model:   crowdml.NewLogisticRegression(2, 2),
			Updater: crowdml.NewSGD(crowdml.Constant{C: 1}, 0),
		}
	}
	h := crowdml.NewHub()
	defer h.Close(ctx)
	const leader = "http://leader.example:8080"
	follower, err := h.CreateTask(ctx, "act", cfg(), crowdml.AsReplicaOf(leader))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.CreateTask(ctx, "lead", cfg()); err != nil {
		t.Fatal(err)
	}

	var out bytes.Buffer
	err = preregister(ctx, &out, h, "act", 2)
	if err == nil || !strings.Contains(err.Error(), leader) {
		t.Fatalf("preregister on a follower = %v, want an error naming %s", err, leader)
	}
	if out.Len() != 0 {
		t.Errorf("printed %q for a refused follower", out.String())
	}
	if n := len(follower.Server().ExportStateInto(nil).DeviceRows); n != 0 {
		t.Errorf("follower registry holds %d devices, want 0", n)
	}

	out.Reset()
	if err := preregister(ctx, &out, h, "lead", 2); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != 2 || !strings.HasPrefix(lines[1], "registered device-001 token=") || !strings.HasSuffix(lines[1], " on task lead") {
		t.Errorf("leader preregister printed %q", out.String())
	}
	if err := preregister(ctx, &out, h, "missing", 1); err == nil {
		t.Error("preregister on an unhosted task succeeded")
	}
}

// TestTasksFileTakesSyncAndRetentionFlags: -sync and -retention are the
// defaults for a tasks-file task that leaves "syncPolicy" or "retention"
// empty, and a task that sets its own keeps it. A task started with
// -sync batch fsyncs its checkins, and one started with -retention prune
// prunes the segments its checkpoints cover.
func TestTasksFileTakesSyncAndRetentionFlags(t *testing.T) {
	dir := t.TempDir()
	tasks := filepath.Join(dir, "tasks.json")
	if err := os.WriteFile(tasks, []byte(`[
		{"id": "flags", "classes": 3, "dim": 4, "checkpointAfterN": 1},
		{"id": "own", "classes": 3, "dim": 4, "syncPolicy": "none", "retention": "keep", "checkpointAfterN": 1}
	]`), 0o644); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	base, stop := startServer(t, "-tasks", tasks, "-sync", "batch", "-retention", "prune",
		"-state-dir", filepath.Join(dir, "state"), "-enroll-key", "join")
	for _, id := range []string{"flags", "own"} {
		client := crowdml.NewHTTPClient(base, nil).WithTask(id)
		token, err := client.Register(ctx, "d", "join")
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3; i++ {
			co, err := client.Checkout(ctx, "d", token)
			if err == nil {
				err = client.Checkin(ctx, "d", token, &crowdml.CheckinRequest{
					Grad: make([]float64, 12), NumSamples: 1, LabelCounts: []int{1, 0, 0}, Version: co.Version})
			}
			if err != nil {
				t.Fatalf("task %s checkin %d: %v", id, i, err)
			}
		}
	}
	fsyncs := func(id string) float64 {
		return scrape(t, base)[fmt.Sprintf(`crowdml_checkin_stage_seconds_count{task=%q,stage="fsync"}`, id)]
	}
	if got := fsyncs("flags"); got == 0 {
		t.Error(`task without "syncPolicy" under -sync batch: no fsync stage observed`)
	}
	if got := fsyncs("own"); got != 0 {
		t.Errorf(`task with "syncPolicy": "none" under -sync batch: %v fsyncs`, got)
	}
	// Checkpoints are asynchronous: wait for the first prune.
	pruned := func(id string) float64 {
		return scrape(t, base)[fmt.Sprintf(`crowdml_retention_pruned_segments_total{task=%q}`, id)]
	}
	for deadline := time.Now().Add(10 * time.Second); pruned("flags") == 0; time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal(`task without "retention" under -retention prune: nothing pruned in 10s`)
		}
	}
	if got := pruned("own"); got != 0 {
		t.Errorf(`task with "retention": "keep" under -retention prune: %v segments pruned`, got)
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}
}

// TestCommandLine: -h lists the server's 13 flags and is not a failure;
// a flag the server does not have is a usage error.
func TestCommandLine(t *testing.T) {
	var stderr bytes.Buffer
	if err := run(context.Background(), []string{"-h"}, io.Discard, &stderr); !errors.Is(err, flag.ErrHelp) {
		t.Fatalf("run -h = %v, want flag.ErrHelp", err)
	}
	if n := strings.Count(stderr.String(), "\n  -"); n != 13 {
		t.Errorf("-h lists %d flags, want 13:\n%s", n, stderr.String())
	}
	for _, gone := range []string{"-classes", "-archive-dir", "-task-name"} {
		if err := run(context.Background(), []string{gone, "x"}, io.Discard, io.Discard); !errors.Is(err, errUsage) {
			t.Errorf("run %s = %v, want a usage error", gone, err)
		}
	}
	// What the command would not read is refused before anything runs:
	// a positional argument, and a second dump mode the first would drop.
	missing := filepath.Join(t.TempDir(), "missing")
	for _, args := range [][]string{
		{"-dump-checkpoint", missing, "extra"},
		{"-dump-journal", missing, "-dump-checkpoint", missing},
	} {
		stderr.Reset()
		err := run(context.Background(), args, io.Discard, &stderr)
		if !errors.Is(err, errUsage) || !strings.Contains(stderr.String(), "unexpected arguments") || !strings.Contains(stderr.String(), "Usage of crowdml-server") {
			t.Errorf("run %q = %v, stderr %q; want the usage error, explained", args, err, stderr.String())
		}
	}
}
