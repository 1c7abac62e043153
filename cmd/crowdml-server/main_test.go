package main

import (
	"bytes"
	"context"
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
