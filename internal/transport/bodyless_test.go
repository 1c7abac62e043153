package transport

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"

	"github.com/crowdml/crowdml/internal/core"
	"github.com/crowdml/crowdml/internal/hub"
	"github.com/crowdml/crowdml/internal/model"
	"github.com/crowdml/crowdml/internal/optimizer"
	"github.com/crowdml/crowdml/internal/telemetry"
	"github.com/crowdml/crowdml/internal/wirecodec"
)

// spyWriter is a ResponseWriter that counts Header calls and keeps the
// status and body it is given.
type spyWriter struct {
	header  http.Header
	headers int
	code    int
	body    bytes.Buffer
}

func (w *spyWriter) Header() http.Header {
	w.headers++
	if w.header == nil {
		w.header = http.Header{}
	}
	return w.header
}

func (w *spyWriter) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
}

func (w *spyWriter) Write(p []byte) (int, error) {
	w.WriteHeader(http.StatusOK)
	return w.body.Write(p)
}

// binaryCheckout sends one checkout with query to url as device "d1",
// with accept as its Accept header unless that is empty, and returns the
// response, its body read and closed.
func binaryCheckout(t *testing.T, url, token, accept, query string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, url+alphaPath("checkout")+query, nil)
	if err != nil {
		t.Fatal(err)
	}
	if accept != "" {
		req.Header.Set("Accept", accept)
	}
	req.Header.Set(headerDeviceID, "d1")
	req.Header.Set(headerToken, token)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, body
}

// TestCurrentCheckoutIsBodyless: a checkout that names a base without
// the binary Accept, as a binary-delta device sends it, and names the
// current iteration of a task still learning is answered 204
// No Content — no Content-Type, no Content-Length, no body — and the
// handler never asks for the header map. A WireBinaryDelta client reads
// it as "nothing changed": the cached vector itself, at its version. A
// stopped task's current reader still gets a frame with done set.
func TestCurrentCheckoutIsBodyless(t *testing.T) {
	hd, srv := newHandler(t, 10, 50)
	ts, token := serveLoopback(t, hd, srv)
	ctx := context.Background()
	if err := srv.Checkin(ctx, "d1", token, wideCheckin(50)); err != nil {
		t.Fatal(err)
	}

	req := httptest.NewRequest(http.MethodGet, alphaPath("checkout")+"?since=1", nil)
	req.Header.Set(headerDeviceID, "d1")
	req.Header.Set(headerToken, token)
	spy := &spyWriter{}
	hd.ServeHTTP(spy, req)
	if spy.code != http.StatusNoContent || spy.headers != 0 || spy.body.Len() != 0 {
		t.Fatalf("current checkout: status %d, %d Header calls, %d body bytes; want 204, 0, 0", spy.code, spy.headers, spy.body.Len())
	}
	resp, body := binaryCheckout(t, ts.URL, token, "", "?since=1")
	if resp.StatusCode != http.StatusNoContent || len(body) != 0 {
		t.Fatalf("over HTTP: status %d with %d body bytes, want 204 and none", resp.StatusCode, len(body))
	}
	for _, name := range []string{"Content-Type", "Content-Length"} {
		if v, ok := resp.Header[name]; ok {
			t.Errorf("the 204 carries %s %q", name, v)
		}
	}

	cl := NewHTTPClient(ts.URL, nil).WithTask("alpha").WithWire(WireBinaryDelta)
	first, err := cl.Checkout(ctx, "d1", token)
	if err != nil {
		t.Fatal(err)
	}
	again, err := cl.Checkout(ctx, "d1", token)
	if err != nil {
		t.Fatal(err)
	}
	if again.Version != 1 || again.Done || &again.Params[0] != &first.Params[0] || len(again.Params) != len(first.Params) {
		t.Fatalf("a 204 re-served version %d done=%v, want the cached vector itself at 1", again.Version, again.Done)
	}

	srv.Stop()
	resp, body = binaryCheckout(t, ts.URL, token, "", "?since=1")
	fr, err := wirecodec.Decode(body)
	if resp.StatusCode != http.StatusOK || err != nil || !fr.Done || fr.Version != 1 {
		t.Fatalf("stopped task's current checkout: status %d, frame %+v, %v; want a done frame at 1", resp.StatusCode, fr, err)
	}
	if co, err := cl.Checkout(ctx, "d1", token); err != nil || !co.Done || co.Version != 1 {
		t.Fatalf("client on a stopped task: %+v, %v; want done at 1", co, err)
	}
}

// TestBodylessAnswerNeedsABase: a 204 re-serves the base the request
// named, so one to a request that named none is a protocol error, never
// an empty model — whatever the client's wire.
func TestBodylessAnswerNeedsABase(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusNoContent)
	}))
	defer ts.Close()
	for _, wire := range []WireFormat{WireJSON, WireBinary, WireBinaryDelta} {
		cl := NewHTTPClient(ts.URL, nil).WithTask("alpha").WithWire(wire)
		if co, err := cl.Checkout(context.Background(), "d1", "t"); err == nil || !strings.Contains(err.Error(), "without a base") {
			t.Errorf("%s: a 204 to a checkout naming no base = %+v, %v; want an error", wire, co, err)
		}
	}
}

// follower hosts task "alpha" as a read-only replica whose auth vouches
// for every device, next to the leader it mirrors.
type follower struct {
	hd  *Handler
	srv *core.Server
}

func newFollower(t *testing.T, classes, dim int, opts ...hub.TaskOption) follower {
	t.Helper()
	h := hub.New()
	task, err := h.CreateTask(context.Background(), "alpha", core.ServerConfig{
		Model:        model.NewLogisticRegression(classes, dim),
		Updater:      &optimizer.SGD{Schedule: optimizer.Constant{C: 0.1}},
		AuthFallback: func(context.Context, string, string) error { return nil },
	}, append(opts, hub.AsReplicaOf("http://leader.invalid"))...)
	if err != nil {
		t.Fatal(err)
	}
	return follower{NewHandler(h), task.Server()}
}

// checkinBoth applies n checkins of d1 to the leader and replays each to
// the follower on its own, as a tailing replicator does.
func checkinBoth(t *testing.T, leader *core.Server, token string, f follower, n int) {
	t.Helper()
	ctx := context.Background()
	for i := 0; i < n; i++ {
		req := wideCheckin(50)
		req.Grad[i%len(req.Grad)] += float64(i)
		if err := leader.Checkin(ctx, "d1", token, req); err != nil {
			t.Fatal(err)
		}
		rec := core.ReplayRecord{DeviceID: "d1", Iteration: leader.Iteration(), Req: req}
		if _, err := f.srv.Replay(core.ReplaySlice([]core.ReplayRecord{rec})); err != nil {
			t.Fatal(err)
		}
	}
}

// TestCheckoutOptInMatrix: a base with and without the binary Accept,
// against a base that is current, one behind, and current on a stopped
// task, on a leader and on a follower. With Accept the answer is the
// frame the encoder makes of the server's delta read without XOR deltas,
// as before bodyless answers existed; without it (what devices send) the
// encoder may pick an XOR delta, and a current base on a learning task is
// a 204. A follower answers exactly what its leader does.
func TestCheckoutOptInMatrix(t *testing.T) {
	hd, leader := newHandler(t, 10, 50)
	lts, token := serveLoopback(t, hd, leader)
	f := newFollower(t, 10, 50)
	fts := httptest.NewServer(f.hd)
	defer fts.Close()
	checkinBoth(t, leader, token, f, 3)

	ctx := context.Background()
	roles := []struct {
		name string
		url  string
		srv  *core.Server
	}{{"leader", lts.URL, leader}, {"follower", fts.URL, f.srv}}
	leaderBodies := map[string][]byte{}
	for _, state := range []string{"current", "behind", "stopped"} {
		if state == "stopped" {
			leader.Stop()
			f.srv.Stop()
		}
		since := 3
		if state == "behind" {
			since = 2
		}
		for _, role := range roles {
			for _, accept := range []string{ContentTypeBinary, ""} {
				name := role.name + " " + state + " ?since=" + strconv.Itoa(since) + " Accept " + accept
				d, err := role.srv.CheckoutDelta(ctx, "d1", token, since)
				if err != nil {
					t.Fatal(err)
				}
				want := wirecodec.AppendDelta(nil, d.Base, d.Params, d.Version, d.Done, d.Since, accept == "")
				d.Release()
				resp, body := binaryCheckout(t, role.url, token, accept, "?since="+strconv.Itoa(since))
				if accept == "" && state == "current" {
					if resp.StatusCode != http.StatusNoContent || len(body) != 0 || resp.Header.Get("Content-Type") != "" {
						t.Errorf("%s: status %d, %d bytes of %q; want a bare 204", name, resp.StatusCode, len(body), resp.Header.Get("Content-Type"))
					}
					continue
				}
				if resp.StatusCode != http.StatusOK || !bytes.Equal(body, want) ||
					resp.Header.Get("Content-Type") != ContentTypeBinary || resp.Header.Get("Content-Length") != strconv.Itoa(len(want)) {
					t.Errorf("%s: status %d, %d bytes of %q (Content-Length %s); want 200 and the encoder's %d-byte frame",
						name, resp.StatusCode, len(body), resp.Header.Get("Content-Type"), resp.Header.Get("Content-Length"), len(want))
					continue
				}
				switch fr, err := wirecodec.Decode(body); {
				case err != nil:
					t.Errorf("%s: %v", name, err)
				case fr.Done != (state == "stopped") || fr.Version != 3:
					t.Errorf("%s: frame at %d done=%v", name, fr.Version, fr.Done)
				case state != "behind" && len(body) != wirecodec.HeaderLen+4:
					t.Errorf("%s: %d bytes, want the empty delta's %d", name, len(body), wirecodec.HeaderLen+4)
				}
				key := state + accept
				if role.name == "leader" {
					leaderBodies[key] = body
				} else if !bytes.Equal(body, leaderBodies[key]) {
					t.Errorf("%s: the follower's frame differs from the leader's", name)
				}
			}
		}
	}
}

// TestDeltaPollNamesOnlyItsBase: a binary-delta device polls with
// ?since=N and nothing more, and a base that comes without the binary
// Accept is welcome to XOR deltas and to the 204, against a base that is
// current, behind, and current on a stopped task. Accept with a base is
// the encoder's frame without XOR deltas, never a 204.
func TestDeltaPollNamesOnlyItsBase(t *testing.T) {
	hd, srv := newHandler(t, 10, 50)
	var mu sync.Mutex
	var queries []string
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		queries = append(queries, r.URL.RawQuery)
		mu.Unlock()
		hd.ServeHTTP(w, r)
	}))
	defer ts.Close()
	ctx := context.Background()
	token, err := srv.RegisterDevice(ctx, "d1")
	if err != nil {
		t.Fatal(err)
	}
	cl := NewHTTPClient(ts.URL, nil).WithTask("alpha").WithWire(WireBinaryDelta)
	for i := 0; i < 4; i++ { // the last poll is current: a 204
		co, err := cl.Checkout(ctx, "d1", token)
		if err != nil {
			t.Fatal(err)
		}
		want, err := srv.Checkout(ctx, "d1", token)
		if err != nil || co.Version != want.Version || !bitEqual(co.Params, want.Params) {
			t.Fatalf("poll %d: version %d, want the server's %d bit for bit (%v)", i, co.Version, want.Version, err)
		}
		if i < 2 {
			if err := srv.Checkin(ctx, "d1", token, wideCheckin(50)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if want := []string{"", "since=0", "since=1", "since=2"}; !slices.Equal(queries, want) {
		t.Errorf("the client's queries %q, want %q", queries, want)
	}

	shapes := []struct {
		name, accept string
		xor          bool
	}{
		{"base alone", "", true},
		{"Accept", ContentTypeBinary, false},
	}
	for _, state := range []string{"current", "behind", "stopped"} {
		since := 2
		switch state {
		case "behind":
			since = 1
		case "stopped":
			srv.Stop()
		}
		d, err := srv.CheckoutDelta(ctx, "d1", token, since)
		if err != nil {
			t.Fatal(err)
		}
		plain := wirecodec.AppendDelta(nil, d.Base, d.Params, d.Version, d.Done, d.Since, false)
		xor := wirecodec.AppendDelta(nil, d.Base, d.Params, d.Version, d.Done, d.Since, true)
		d.Release()
		if state == "behind" && bytes.Equal(plain, xor) {
			t.Fatal("behind: the XOR frame is the plain one, so the opt-in shows nothing")
		}
		for _, sh := range shapes {
			name := state + ", " + sh.name
			status, ct, body := rawCheckout(t, ts.URL, "d1", token, sh.accept, "?since="+strconv.Itoa(since))
			want := map[bool][]byte{false: plain, true: xor}[sh.xor]
			switch {
			case sh.xor && state == "current":
				if status != http.StatusNoContent || ct != "" || len(body) != 0 {
					t.Errorf("%s: status %d, %d bytes of %q; want a bare 204", name, status, len(body), ct)
				}
			case status != http.StatusOK || ct != ContentTypeBinary || !bytes.Equal(body, want):
				t.Errorf("%s: status %d, %d bytes of %q; want 200 and the encoder's %d-byte frame (xor %v)",
					name, status, len(body), ct, len(want), sh.xor)
			}
		}
	}
}

// TestRetiredOptInsAnsweredByAccept: the server reads no xor parameter,
// so each shape older devices send — Accept with &xor=1 or &xor=2, and
// &xor=2 without Accept — gets the status and the bytes the same request
// without xor gets, against a base that is behind and one that is
// current: with Accept the sparse or full frame and never a 204, without
// it XOR deltas and the 204.
func TestRetiredOptInsAnsweredByAccept(t *testing.T) {
	hd, srv := newHandler(t, 10, 50)
	ts, token := serveLoopback(t, hd, srv)
	for i := 0; i < 2; i++ {
		if err := srv.Checkin(context.Background(), "d1", token, wideCheckin(50)); err != nil {
			t.Fatal(err)
		}
	}
	for _, since := range []string{"1", "2"} { // behind, current
		for _, sh := range []struct{ accept, xor string }{
			{ContentTypeBinary, "&xor=1"}, {ContentTypeBinary, "&xor=2"}, {"", "&xor=2"},
		} {
			name := "?since=" + since + sh.xor + " Accept " + sh.accept
			status, ct, body := rawCheckout(t, ts.URL, "d1", token, sh.accept, "?since="+since+sh.xor)
			wantStatus, wantCT, want := rawCheckout(t, ts.URL, "d1", token, sh.accept, "?since="+since)
			if status != wantStatus || ct != wantCT || !bytes.Equal(body, want) {
				t.Errorf("%s: status %d, %d bytes of %q; want %d, %d bytes of %q as without xor",
					name, status, len(body), ct, wantStatus, len(want), wantCT)
			}
		}
	}
}

// TestBodylessCheckoutTelemetryParity: a 204 is a checkout like any
// other to telemetry. After N current reads on a follower, the checkout
// body family has one sample per counted checkout — the 204s under
// form="empty", adding nothing to its sum — and the stage family three.
func TestBodylessCheckoutTelemetryParity(t *testing.T) {
	const reads = 25
	reg := telemetry.NewRegistry()
	hd, leader := newHandler(t, 10, 50)
	_, token := serveLoopback(t, hd, leader)
	f := newFollower(t, 10, 50, hub.WithMetrics(reg))
	fts := httptest.NewServer(f.hd)
	defer fts.Close()
	checkinBoth(t, leader, token, f, 2)

	cl := NewHTTPClient(fts.URL, nil).WithTask("alpha").WithWire(WireBinaryDelta)
	for i := 0; i < reads; i++ {
		if _, err := cl.Checkout(context.Background(), "d1", token); err != nil {
			t.Fatal(err)
		}
	}
	var out strings.Builder
	if err := reg.WritePrometheus(&out); err != nil {
		t.Fatal(err)
	}
	var checkouts, bodies, stages, emptyCount, emptySum float64
	for _, line := range strings.Split(out.String(), "\n") {
		sp := strings.LastIndexByte(line, ' ')
		if line == "" || line[0] == '#' || sp < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			t.Fatalf("%q: %v", line, err)
		}
		switch series := line[:sp]; {
		case series == `crowdml_checkouts_total{task="alpha"}`:
			checkouts = v
		case strings.HasPrefix(series, "crowdml_checkout_body_bytes_count"):
			bodies += v
			if strings.Contains(series, `form="empty"`) {
				emptyCount = v
			}
		case series == `crowdml_checkout_body_bytes_sum{task="alpha",form="empty"}`:
			emptySum = v
		case strings.HasPrefix(series, "crowdml_checkout_stage_seconds_count"):
			stages += v
		}
	}
	if checkouts != reads || bodies != checkouts || stages != 3*checkouts {
		t.Errorf("%.0f checkouts counted, %.0f body samples, %.0f stage samples; want %d, %d, %d", checkouts, bodies, stages, reads, reads, 3*reads)
	}
	if emptyCount != reads-1 || emptySum != 0 {
		t.Errorf("form=empty: %.0f samples summing %.0f bytes, want %d of 0", emptyCount, emptySum, reads-1)
	}
}

// TestSharedDeltaClientConcurrentPolls: goroutines poll through one
// WireBinaryDelta client — one cache, read and replaced concurrently,
// answered by 204s, deltas and full frames — while a writer checks in.
// Every vector a poll returned equals, at the end, the leader's
// parameters at the version it came with.
func TestSharedDeltaClientConcurrentPolls(t *testing.T) {
	const pollers, checkins = 4, 40
	hd, srv := newHandler(t, 10, 20)
	ts, token := serveLoopback(t, hd, srv)
	ctx := context.Background()
	shared := NewHTTPClient(ts.URL, nil).WithTask("alpha").WithWire(WireBinaryDelta)
	writer := shared.WithWire(WireBinary)

	var published sync.Map // version → the leader's parameters, copied
	record := func() {
		view := srv.ParamView()
		published.Store(view.Version, append([]float64(nil), view.Params...))
		view.Release()
	}
	record()
	done := make(chan struct{})
	seen := make([][]*core.CheckoutResponse, pollers)
	var wg sync.WaitGroup
	stop := sync.OnceFunc(func() { close(done); wg.Wait() })
	defer stop()
	for p := range seen {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				co, err := shared.Checkout(ctx, "d1", token)
				if err != nil {
					t.Error(err)
					return
				}
				seen[p] = append(seen[p], co)
			}
		}()
	}
	for i := 0; i < checkins; i++ {
		req := wideCheckin(20)
		req.Grad[i] += 1
		if err := writer.Checkin(ctx, "d1", token, req); err != nil {
			t.Fatal(err)
		}
		record()
	}
	stop()
	polls := 0
	for p, cos := range seen {
		polls += len(cos)
		for _, co := range cos {
			want, ok := published.Load(co.Version)
			if !ok || co.Done || !bitEqual(co.Params, want.([]float64)) {
				t.Fatalf("poller %d: version %d (done=%v) differs from the leader's parameters at it", p, co.Version, co.Done)
			}
		}
	}
	if polls < pollers {
		t.Fatalf("%d polls in all", polls)
	}
}
