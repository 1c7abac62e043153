package transport

import (
	"bytes"
	"context"
	"encoding/base64"
	"errors"
	"io"
	"maps"
	"net/http"
	"net/http/cookiejar"
	"net/http/httptest"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"

	"github.com/crowdml/crowdml/internal/wirecodec"
)

// TestDeviceRequestHeaderBudget pins, for every request a device sends,
// the exact set of header names that reaches the server: each one has a
// reader there. No request carries a User-Agent (net/http's default is 32
// bytes nobody reads), every one names Accept-Encoding "identity" exactly
// once (without it the Transport adds "gzip", a coding this protocol
// never uses), and a binary checkout sends Accept only when it names no
// delta base — a base asks for a frame by itself. The token is 22
// URL-safe characters, 16 random bytes. The checkin bodies are still the
// encoders' output byte for byte.
func TestDeviceRequestHeaderBudget(t *testing.T) {
	hd, srv := newHandler(t, 10, 50)
	hd.EnableEnrollment("join")
	type seen struct {
		route string
		names []string
		agent string
		enc   []string
		token string
		body  []byte
	}
	var mu sync.Mutex
	var got []seen
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		names := slices.Sorted(maps.Keys(r.Header))
		mu.Lock()
		got = append(got, seen{r.Method + " " + r.URL.RequestURI(), names, r.UserAgent(), r.Header.Values("Accept-Encoding"), r.Header.Get(headerToken), body})
		mu.Unlock()
		r.Body = io.NopCloser(bytes.NewReader(body))
		hd.ServeHTTP(w, r)
	}))
	defer ts.Close()
	ctx := context.Background()
	jsonCl := NewHTTPClient(ts.URL, nil).WithTask("alpha")
	binCl := jsonCl.WithWire(WireBinary)
	deltaCl := jsonCl.WithWire(WireBinaryDelta)
	var token string
	req := wideCheckin(50)
	wantJSON, err := wirecodec.AppendCheckinJSON(nil, req.Grad, req.Version, req.NumSamples, req.ErrCount, req.LabelCounts)
	if err != nil {
		t.Fatal(err)
	}
	wantBin := wirecodec.AppendCheckin(nil, req.Grad, req.Version, req.NumSamples, req.ErrCount, req.LabelCounts, false)
	checkout := func(c *HTTPClient) func() error {
		return func() error { _, err := c.Checkout(ctx, "d1", token); return err }
	}
	creds := []string{"Accept-Encoding", "X-Crowdml-Device", "X-Crowdml-Token"}
	withAccept := []string{"Accept", "Accept-Encoding", "X-Crowdml-Device", "X-Crowdml-Token"}
	checkin := []string{"Accept-Encoding", "Content-Type", "X-Crowdml-Device", "X-Crowdml-Token"}
	for i, tc := range []struct {
		name, route string
		names       []string
		run         func() error
		body        []byte
	}{
		{"register", "POST /v1/tasks/alpha/register", []string{"Accept-Encoding", "Content-Length", "Content-Type", "X-Crowdml-Enroll-Key"},
			func() (err error) { token, err = jsonCl.Register(ctx, "d1", "join"); return err }, nil},
		{"tasks", "GET /v1/tasks", []string{"Accept-Encoding"}, func() error { _, err := jsonCl.Tasks(ctx); return err }, nil},
		{"stats", "GET /v1/tasks/alpha/stats", []string{"Accept-Encoding"}, func() error { _, err := jsonCl.Stats(ctx); return err }, nil},
		{"checkout json", "GET /v1/tasks/alpha/checkout", creds, checkout(jsonCl), nil},
		{"checkout binary", "GET /v1/tasks/alpha/checkout", withAccept, checkout(binCl), nil},
		{"checkout delta-first", "GET /v1/tasks/alpha/checkout", withAccept, checkout(deltaCl), nil},
		{"checkout delta-with-base (current)", "GET /v1/tasks/alpha/checkout?since=0", creds, checkout(deltaCl), nil},
		{"checkin json", "POST /v1/tasks/alpha/checkin", checkin, func() error { return jsonCl.Checkin(ctx, "d1", token, req) }, wantJSON},
		{"checkin binary", "POST /v1/tasks/alpha/checkin", checkin, func() error { return binCl.Checkin(ctx, "d1", token, req) }, wantBin},
		{"checkout delta-with-base (behind)", "GET /v1/tasks/alpha/checkout?since=0", creds, checkout(deltaCl), nil},
		{"auth probe", "HEAD /v1/tasks/alpha/checkout", creds, func() error { return jsonCl.AuthProbe(ctx, "d1", token) }, nil},
	} {
		if err := tc.run(); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		mu.Lock()
		n, s := len(got), got[len(got)-1]
		mu.Unlock()
		if n != i+1 {
			t.Fatalf("%s: server has seen %d requests, want %d", tc.name, n, i+1)
		}
		if s.route != tc.route {
			t.Errorf("%s: request is %s, want %s", tc.name, s.route, tc.route)
		}
		if !reflect.DeepEqual(s.names, tc.names) {
			t.Errorf("%s: header names %q, want %q", tc.name, s.names, tc.names)
		}
		if s.agent != "" {
			t.Errorf("%s: User-Agent %q, want none", tc.name, s.agent)
		}
		if !reflect.DeepEqual(s.enc, []string{"identity"}) {
			t.Errorf("%s: Accept-Encoding %q, want exactly [identity]", tc.name, s.enc)
		}
		if s.token != "" && s.token != token {
			t.Errorf("%s: token %q, want the registered %q", tc.name, s.token, token)
		}
		if tc.body != nil && !bytes.Equal(s.body, tc.body) {
			t.Errorf("%s: body differs from the encoder's output", tc.name)
		}
	}
	if srv.Iteration() != 2 {
		t.Fatalf("iteration %d after two checkins", srv.Iteration())
	}
	raw, err := base64.RawURLEncoding.DecodeString(token)
	if len(token) != 22 || err != nil || len(raw) != 16 {
		t.Errorf("token %q: %d characters decoding to %d bytes (%v), want 22 URL-safe characters of 16 bytes", token, len(token), len(raw), err)
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
