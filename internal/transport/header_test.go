package transport

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/cookiejar"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"

	"github.com/crowdml/crowdml/internal/wirecodec"
)

// TestDeviceRequestHeaderDeclaresIdentity: every request a device sends
// names its own Accept-Encoding, "identity", exactly once. A request
// that names none gets "gzip" from the Transport, a coding this protocol
// never uses, in a header map built per request. The checkin bodies are
// still the encoders' output byte for byte.
func TestDeviceRequestHeaderDeclaresIdentity(t *testing.T) {
	hd, srv := newHandler(t, 10, 50)
	hd.EnableEnrollment("join")
	type seen struct {
		route string
		enc   []string
		body  []byte
	}
	var mu sync.Mutex
	var got []seen
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		mu.Lock()
		got = append(got, seen{r.Method + " " + r.URL.RequestURI(), r.Header.Values("Accept-Encoding"), body})
		mu.Unlock()
		r.Body = io.NopCloser(bytes.NewReader(body))
		hd.ServeHTTP(w, r)
	}))
	defer ts.Close()
	ctx := context.Background()
	jsonCl := NewHTTPClient(ts.URL, nil).WithTask("alpha")
	deltaCl := jsonCl.WithWire(WireBinaryDelta)
	token, err := jsonCl.Register(ctx, "d1", "join")
	if err != nil {
		t.Fatal(err)
	}
	req := wideCheckin(50)
	wantJSON, err := wirecodec.AppendCheckinJSON(nil, req.Grad, req.Version, req.NumSamples, req.ErrCount, req.LabelCounts)
	if err != nil {
		t.Fatal(err)
	}
	wantBin := wirecodec.AppendCheckin(nil, req.Grad, req.Version, req.NumSamples, req.ErrCount, req.LabelCounts, false)
	steps := []func() error{
		func() error { _, err := jsonCl.Tasks(ctx); return err },
		func() error { _, err := jsonCl.Stats(ctx); return err },
		func() error { _, err := jsonCl.Checkout(ctx, "d1", token); return err },
		func() error { _, err := deltaCl.Checkout(ctx, "d1", token); return err },
		func() error { return jsonCl.Checkin(ctx, "d1", token, req) },
		func() error { return deltaCl.Checkin(ctx, "d1", token, req) },
		func() error { _, err := deltaCl.Checkout(ctx, "d1", token); return err },
		func() error { return jsonCl.AuthProbe(ctx, "d1", token) },
	}
	for i, step := range steps {
		if err := step(); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
	}
	if srv.Iteration() != 2 {
		t.Fatalf("iteration %d after two checkins", srv.Iteration())
	}
	routes := []string{
		"POST /v1/tasks/alpha/register",
		"GET /v1/tasks",
		"GET /v1/tasks/alpha/stats",
		"GET /v1/tasks/alpha/checkout",
		"GET /v1/tasks/alpha/checkout",
		"POST /v1/tasks/alpha/checkin",
		"POST /v1/tasks/alpha/checkin",
		"GET /v1/tasks/alpha/checkout?since=0&xor=2",
		"HEAD /v1/tasks/alpha/checkout",
	}
	if len(got) != len(routes) {
		t.Fatalf("server saw %d requests, want %d", len(got), len(routes))
	}
	for i, s := range got {
		if s.route != routes[i] {
			t.Errorf("request %d is %s, want %s", i, s.route, routes[i])
		}
		if !reflect.DeepEqual(s.enc, []string{"identity"}) {
			t.Errorf("%s: Accept-Encoding %q, want exactly [identity]", s.route, s.enc)
		}
	}
	if !bytes.Equal(got[5].body, wantJSON) || !bytes.Equal(got[6].body, wantBin) {
		t.Errorf("checkin bodies differ from the encoders' output")
	}
}

// TestRetriedRequestHeaderCarriesCookieOnce: an http.Client with a
// cookie jar adds the jar's cookies to the request's own header, so do
// must give every attempt a header of its own. A retried request still
// carries each cookie once.
func TestRetriedRequestHeaderCarriesCookieOnce(t *testing.T) {
	var mu sync.Mutex
	var cookies []string
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		cookies = append(cookies, r.Header.Get("Cookie"))
		n := len(cookies)
		mu.Unlock()
		if n < 3 {
			http.SetCookie(w, &http.Cookie{Name: "lb", Value: "a"})
			w.WriteHeader(http.StatusServiceUnavailable)
			return
		}
		writeJSON(w, StatsResponse{TaskID: "alpha"})
	}))
	defer ts.Close()
	jar, err := cookiejar.New(nil)
	if err != nil {
		t.Fatal(err)
	}
	cl := NewHTTPClient(ts.URL, &http.Client{Jar: jar}).WithTask("alpha").WithRetry(RetryPolicy{BaseDelay: 1, MaxDelay: 1})
	if _, err := cl.Stats(context.Background()); err != nil {
		t.Fatal(err)
	}
	if want := []string{"", "lb=a", "lb=a"}; !reflect.DeepEqual(cookies, want) {
		t.Errorf("attempts carried Cookie %q, want %q", cookies, want)
	}
}

// endlessBody is a reply body that never ends. Past guard bytes it fails
// the read and notes that it did, so a reader without a cap stops too.
type endlessBody struct {
	read, guard int
	tripped     bool
}

func (b *endlessBody) Read(p []byte) (int, error) {
	if b.read > b.guard {
		b.tripped = true
		return 0, errors.New("read guard tripped")
	}
	b.read += len(p)
	return len(p), nil
}

func (b *endlessBody) Close() error { return nil }

type endlessTransport struct{ body *endlessBody }

func (e endlessTransport) RoundTrip(*http.Request) (*http.Response, error) {
	return &http.Response{
		StatusCode: http.StatusOK,
		Header:     http.Header{"Content-Type": {"application/json"}},
		Body:       e.body,
	}, nil
}

// TestCheckoutReplyIsCapped: a device reads a reply up to
// wirecodec.MaxPayload bytes, then fails naming the cap, so a server or a
// proxy cannot make it buffer whatever it sends.
func TestCheckoutReplyIsCapped(t *testing.T) {
	for _, call := range []struct {
		name string
		run  func(*HTTPClient) error
	}{
		{"checkout", func(c *HTTPClient) error { _, err := c.Checkout(context.Background(), "d", "t"); return err }},
		{"stats", func(c *HTTPClient) error { _, err := c.Stats(context.Background()); return err }},
		{"register", func(c *HTTPClient) error { _, err := c.Register(context.Background(), "d", "k"); return err }},
	} {
		body := &endlessBody{guard: wirecodec.MaxPayload + 64<<10}
		cl := NewHTTPClient("http://mem.invalid", &http.Client{Transport: endlessTransport{body}}).WithTask("alpha")
		err := call.run(cl)
		if body.tripped {
			t.Fatalf("%s read %d B of an endless reply, past the guard", call.name, body.read)
		}
		if err == nil || !strings.Contains(err.Error(), strconv.Itoa(wirecodec.MaxPayload)) {
			t.Errorf("%s: error %v, want one naming the %d-byte cap", call.name, err, wirecodec.MaxPayload)
		}
	}
}
