package transport

import (
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/crowdml/crowdml/internal/core"
	"github.com/crowdml/crowdml/internal/hub"
	"github.com/crowdml/crowdml/internal/model"
	"github.com/crowdml/crowdml/internal/optimizer"
	"github.com/crowdml/crowdml/internal/telemetry"
	"github.com/crowdml/crowdml/internal/wirecodec"
)

// scrape fetches PathMetrics from the test server and returns the body.
func scrape(t *testing.T, baseURL string) string {
	t.Helper()
	resp, err := http.Get(baseURL + PathMetrics)
	if err != nil {
		t.Fatalf("GET %s: %v", PathMetrics, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", PathMetrics, resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != telemetry.ContentType {
		t.Fatalf("Content-Type = %q, want %q", ct, telemetry.ContentType)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	return string(body)
}

// TestMetricsRouteCounting verifies the per-route request counters: the
// route label is the matched ServeMux pattern (stamped onto the request
// during dispatch, so path parameters never leak into label values) and
// unmatched requests fold into one "unmatched" series.
func TestMetricsRouteCounting(t *testing.T) {
	h := hub.New()
	if _, err := h.CreateTask(context.Background(), "alpha", core.ServerConfig{
		Model:   model.NewLogisticRegression(2, 2),
		Updater: &optimizer.SGD{Schedule: optimizer.Constant{C: 0.1}},
	}); err != nil {
		t.Fatalf("CreateTask: %v", err)
	}
	hd := NewHandler(h)
	reg := telemetry.NewRegistry()
	hd.EnableMetrics(reg)
	ts := httptest.NewServer(hd)
	defer ts.Close()

	for i := 0; i < 3; i++ {
		resp, err := http.Get(ts.URL + PathTasks)
		if err != nil {
			t.Fatalf("GET %s: %v", PathTasks, err)
		}
		resp.Body.Close()
	}
	// A 404 on a real route (unknown task) and one on no route at all.
	for _, p := range []string{PathTasks + "/nope/stats", "/v1/definitely-not-a-route"} {
		resp, err := http.Get(ts.URL + p)
		if err != nil {
			t.Fatalf("GET %s: %v", p, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("GET %s: status %d, want 404", p, resp.StatusCode)
		}
	}

	body := scrape(t, ts.URL)
	for _, want := range []string{
		`crowdml_http_requests_total{route="GET /v1/tasks",code="2xx"} 3`,
		`crowdml_http_requests_total{route="GET /v1/tasks/{task}/stats",code="4xx"} 1`,
		`crowdml_http_requests_total{route="unmatched",code="4xx"} 1`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("exposition missing %q:\n%s", want, body)
		}
	}
}

// TestObserveAllocatesNothingAfterFirstSight: once a route and status
// class have been seen, counting another request on them allocates
// nothing, and every request is counted.
func TestObserveAllocatesNothingAfterFirstSight(t *testing.T) {
	hd := NewHandler(hub.New())
	reg := telemetry.NewRegistry()
	hd.EnableMetrics(reg)
	for _, tc := range []struct {
		route  string
		status int
		series string
	}{
		{"GET /v1/tasks/{task}/checkout", http.StatusOK, `{route="GET /v1/tasks/{task}/checkout",code="2xx"}`},
		{"POST /v1/tasks/{task}/checkin", http.StatusNoContent, `{route="POST /v1/tasks/{task}/checkin",code="2xx"}`},
		{"POST /v1/tasks/{task}/checkin", http.StatusBadRequest, `{route="POST /v1/tasks/{task}/checkin",code="4xx"}`},
		{"", http.StatusNotFound, `{route="unmatched",code="4xx"}`},
	} {
		hd.metrics.observe(tc.route, tc.status)
		if n := testing.AllocsPerRun(100, func() { hd.metrics.observe(tc.route, tc.status) }); n != 0 {
			t.Errorf("observe(%q, %d) allocates %.0f times after first sight, want 0", tc.route, tc.status, n)
		}
		rec := httptest.NewRecorder()
		reg.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, PathMetrics, nil))
		if want := "crowdml_http_requests_total" + tc.series + " 102"; !strings.Contains(rec.Body.String(), want) {
			t.Errorf("exposition missing %q:\n%s", want, rec.Body)
		}
	}
}

// TestFeedStreamsThroughMetricsWrapper proves the statusWriter wrapper
// is transparent to the journal feed's per-entry Flush (Unwrap must
// expose the real writer to http.NewResponseController) and that each
// streamed entry is counted.
func TestFeedStreamsThroughMetricsWrapper(t *testing.T) {
	hd, srv, _ := newLeader(t)
	reg := telemetry.NewRegistry()
	hd.EnableMetrics(reg)
	ctx := context.Background()
	token, _ := srv.RegisterDevice(ctx, "d1")
	for i := 0; i < 5; i++ {
		if err := srv.Checkin(ctx, "d1", token, checkinReq()); err != nil {
			t.Fatal(err)
		}
	}
	ts := httptest.NewServer(hd)
	defer ts.Close()
	client := NewHTTPClient(ts.URL, nil).WithTask("alpha")

	feed, err := client.OpenJournalFeed(ctx, 0)
	if err != nil {
		t.Fatalf("OpenJournalFeed: %v", err)
	}
	defer feed.Close()
	n := 0
	for {
		_, err := feed.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			t.Fatalf("Next: %v", err)
		}
		n++
	}
	if n != 5 {
		t.Fatalf("streamed %d entries through the metrics wrapper, want 5", n)
	}
	body := scrape(t, ts.URL)
	if want := `crowdml_feed_entries_streamed_total{task="alpha"} 5`; !strings.Contains(body, want) {
		t.Errorf("exposition missing %q:\n%s", want, body)
	}
	// The request is counted when its handler returns, which the client
	// having read the end-of-stream marker does not wait for.
	want := `crowdml_http_requests_total{route="GET /v1/tasks/{task}/journal",code="2xx"} 1`
	for deadline := time.Now().Add(5 * time.Second); !strings.Contains(body, want); body = scrape(t, ts.URL) {
		if time.Now().After(deadline) {
			t.Fatalf("exposition missing %q:\n%s", want, body)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestMetricsEndpointWithNilRegistry: a nil registry still serves the
// endpoint (empty, valid exposition) and skips request counting.
func TestMetricsEndpointWithNilRegistry(t *testing.T) {
	hd := NewHandler(hub.New())
	hd.EnableMetrics(nil)
	ts := httptest.NewServer(hd)
	defer ts.Close()
	if body := scrape(t, ts.URL); body != "" {
		t.Fatalf("nil registry exposition = %q, want empty", body)
	}
	if hd.metrics != nil {
		t.Fatalf("nil registry must not install request counting")
	}
}

// TestCheckoutBodyObservationAllocatesNothing: the checkout body family
// is bound when the server is built, so observing a body under any form
// allocates nothing, and every observation lands in its form's series.
func TestCheckoutBodyObservationAllocatesNothing(t *testing.T) {
	reg := telemetry.NewRegistry()
	_, srv := newHandler(t, 2, 2, hub.WithMetrics(reg))
	bodies := srv.CheckoutBodies()
	for form, name := range []string{"json", "full", "empty", "sparse", "xor"} {
		if n := testing.AllocsPerRun(100, func() { bodies.Observe(form, 3293) }); n != 0 {
			t.Errorf("observing a %s body allocates %.0f times, want 0", name, n)
		}
		if n, sum := bodyBytes(t, reg, "crowdml_checkout_body_bytes", "alpha", name); n != 101 || sum != 101*3293 {
			t.Errorf("%s: %.0f observations summing %.0f, want 101 of 3293", name, n, sum)
		}
	}
}

// TestCheckinBodyBytesByCodec: each applied checkin is one sample of
// crowdml_checkin_body_bytes under the codec it arrived in, sized exactly
// as its encoder wrote it; a refused one is none.
func TestCheckinBodyBytesByCodec(t *testing.T) {
	const checkins = 3
	reg := telemetry.NewRegistry()
	hd, srv := newHandler(t, 10, 50, hub.WithMetrics(reg))
	ts, token := serveLoopback(t, hd, srv)
	req := wideCheckin(50)
	jsonBody, err := wirecodec.AppendCheckinJSON(nil, req.Grad, req.Version, req.NumSamples, req.ErrCount, req.LabelCounts)
	if err != nil {
		t.Fatal(err)
	}
	frame := wirecodec.AppendCheckin(nil, req.Grad, req.Version, req.NumSamples, req.ErrCount, req.LabelCounts, false)
	cl := NewHTTPClient(ts.URL, nil).WithTask("alpha")
	for _, wire := range []WireFormat{WireJSON, WireBinary} {
		for i := 0; i < checkins; i++ {
			if err := cl.WithWire(wire).Checkin(context.Background(), "d1", token, req); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := cl.Checkin(context.Background(), "d1", "forged", req); err == nil {
		t.Fatal("a forged token was applied")
	}
	for form, size := range map[string]int{"json": len(jsonBody), "bin": len(frame)} {
		if n, sum := bodyBytes(t, reg, "crowdml_checkin_body_bytes", "alpha", form); n != checkins || sum != float64(checkins*size) {
			t.Errorf("form=%s: %.0f samples summing %.0f, want %d of %d bytes", form, n, sum, checkins, size)
		}
	}
}
