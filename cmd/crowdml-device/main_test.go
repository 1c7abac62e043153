package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"

	crowdml "github.com/crowdml/crowdml"
)

func TestGradientBudget(t *testing.T) {
	tests := []struct {
		epsInv float64
		want   crowdml.Eps
		ok     bool
	}{
		{epsInv: 0, want: 0, ok: true},
		{epsInv: 0.1, want: crowdml.FromInv(0.1), ok: true},
		{epsInv: 10, want: crowdml.FromInv(10), ok: true},
		{epsInv: -0.1},
		{epsInv: math.NaN()},
		{epsInv: math.Inf(1)},
		{epsInv: math.Inf(-1)},
	}
	for _, tt := range tests {
		b, err := budgetFor(tt.epsInv)
		if (err == nil) != tt.ok {
			t.Errorf("budgetFor(%v): err = %v, want ok = %v", tt.epsInv, err, tt.ok)
			continue
		}
		if want := (crowdml.Budget{Gradient: tt.want, ErrCount: tt.want, LabelCount: tt.want}); tt.ok && b != want {
			t.Errorf("budgetFor(%v) = %+v, want %+v", tt.epsInv, b, want)
		}
	}
}

// TestNoiseUnpredictable runs the device twice with the same -id and -seed,
// so the same sensor samples, against the same fresh task. Every checkin
// body must still differ between the runs: the gradient noise is not
// derived from anything the server sees, and the counts are perturbed too,
// so they do not give away the device's label histogram.
func TestNoiseUnpredictable(t *testing.T) {
	const samples = 20
	a, b := checkinBodies(t, samples), checkinBodies(t, samples)
	if len(a) != samples || len(b) != samples {
		t.Fatalf("checkins = %d and %d, want %d each", len(a), len(b), samples)
	}
	// Both runs check in their first minibatch against w = 0, so only the
	// noise can tell the two gradients apart.
	if reflect.DeepEqual(a[0].Grad, b[0].Grad) {
		t.Error("first gradient identical in both runs: the noise is predictable")
	}
	var errA, errB []int
	var labelsA, labelsB [][]int
	for i := range a {
		errA, labelsA = append(errA, a[i].ErrCount), append(labelsA, a[i].LabelCounts)
		errB, labelsB = append(errB, b[i].ErrCount), append(labelsB, b[i].LabelCounts)
	}
	if reflect.DeepEqual(errA, errB) {
		t.Errorf("ErrCount identical in both runs: %v", errA)
	}
	if reflect.DeepEqual(labelsA, labelsB) {
		t.Errorf("LabelCounts identical in both runs: the label histogram leaves exact: %v", labelsA)
	}
}

// checkinBodies runs the command at -eps-inv 1 against a fresh default
// task and returns the checkin bodies the server received, in order.
func checkinBodies(t *testing.T, samples int) []crowdml.CheckinRequest {
	t.Helper()
	ctx := context.Background()
	h := crowdml.NewHub()
	m := crowdml.NewLogisticRegression(crowdml.ActivityClasses, crowdml.ActivityFeatureDim)
	if _, err := h.CreateTask(ctx, "default", crowdml.ServerConfig{Model: m, Updater: crowdml.NewSGD(crowdml.InvSqrt{C: 10}, 0)}); err != nil {
		t.Fatal(err)
	}
	handler := crowdml.NewHTTPHandler(h, "join", nil)
	var (
		mu     sync.Mutex
		bodies []crowdml.CheckinRequest
	)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost && strings.HasSuffix(r.URL.Path, "/checkin") {
			body, err := io.ReadAll(r.Body)
			if err != nil {
				t.Error(err)
			}
			var req crowdml.CheckinRequest
			if err := json.Unmarshal(body, &req); err != nil {
				t.Errorf("checkin body %q: %v", body, err)
			}
			mu.Lock()
			bodies = append(bodies, req)
			mu.Unlock()
			r.Body = io.NopCloser(bytes.NewReader(body))
		}
		handler.ServeHTTP(w, r)
	}))
	defer srv.Close()

	var stderr bytes.Buffer
	args := []string{"-server", srv.URL, "-id", "phone-1", "-seed", "7", "-enroll-key", "join",
		"-samples", strconv.Itoa(samples), "-minibatch", "1", "-eps-inv", "1"}
	if err := run(ctx, args, io.Discard, &stderr); err != nil {
		t.Fatalf("run: %v\n%s", err, stderr.String())
	}
	if !strings.Contains(stderr.String(), "composed ε = 5") {
		t.Errorf("start-up log names no composed ε = 1 + 1 + 3·1:\n%s", stderr.String())
	}
	mu.Lock()
	defer mu.Unlock()
	return bodies
}

// TestRefusesPositionalArgs: the device ID is -id; a positional argument,
// which the command would otherwise drop (running as phone-1), is refused
// as a usage error before anything is parsed further or sent.
func TestRefusesPositionalArgs(t *testing.T) {
	var stderr bytes.Buffer
	err := run(context.Background(), []string{"-wire", "bogus", "phone-2"}, io.Discard, &stderr)
	if !errors.Is(err, errUsage) || !strings.Contains(stderr.String(), `unexpected arguments ["phone-2"]`) ||
		!strings.Contains(stderr.String(), "Usage of crowdml-device") {
		t.Errorf("run -wire bogus phone-2 = %v, stderr %q; want the usage error, explained", err, stderr.String())
	}
}
