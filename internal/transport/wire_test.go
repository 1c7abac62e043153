package transport

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"hash/crc32"
	"io"
	"math"
	"mime"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/crowdml/crowdml/internal/core"
	"github.com/crowdml/crowdml/internal/hub"
	"github.com/crowdml/crowdml/internal/model"
	"github.com/crowdml/crowdml/internal/optimizer"
	"github.com/crowdml/crowdml/internal/wirecodec"
)

// rawCheckout performs one checkout round trip with explicit headers,
// returning status, Content-Type and body.
func rawCheckout(t *testing.T, url, deviceID, token, accept, query string) (int, string, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, url+alphaPath("checkout")+query, nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(headerDeviceID, deviceID)
	req.Header.Set(headerToken, token)
	if accept != "" {
		req.Header.Set("Accept", accept)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header.Get("Content-Type"), body
}

func sameParams(t *testing.T, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("params length = %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("params[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

// TestBinaryCheckoutMatchesJSON: the binary wire serves bit-for-bit the
// parameters the JSON wire serves, under the negotiated media type.
func TestBinaryCheckoutMatchesJSON(t *testing.T) {
	hd, srv := newHandler(t, 2, 2)
	ctx := context.Background()
	token, _ := srv.RegisterDevice(ctx, "d1")
	ts := httptest.NewServer(hd)
	defer ts.Close()

	jsonCl := NewHTTPClient(ts.URL, nil).WithTask("alpha")
	for _, wire := range []WireFormat{WireBinary, WireBinaryDelta} {
		binCl := jsonCl.WithWire(wire)
		if err := jsonCl.Checkin(ctx, "d1", token, checkinReq()); err != nil {
			t.Fatal(err)
		}
		want, err := jsonCl.Checkout(ctx, "d1", token)
		if err != nil {
			t.Fatal(err)
		}
		got, err := binCl.Checkout(ctx, "d1", token)
		if err != nil {
			t.Fatalf("%v checkout: %v", wire, err)
		}
		if got.Version != want.Version || got.Done != want.Done {
			t.Errorf("%v meta = (%d,%v), want (%d,%v)", wire, got.Version, got.Done, want.Version, want.Done)
		}
		sameParams(t, got.Params, want.Params)
	}

	// The response really is the binary media type.
	status, ct, body := rawCheckout(t, ts.URL, "d1", token, ContentTypeBinary, "")
	if status != http.StatusOK || !isBinaryContentType(ct) {
		t.Fatalf("status=%d Content-Type=%q, want 200 binary", status, ct)
	}
	fr, err := wirecodec.Decode(body)
	if err != nil {
		t.Fatalf("decode served frame: %v", err)
	}
	if fr.Kind != wirecodec.KindFull {
		t.Errorf("frame kind = %d, want full", fr.Kind)
	}
}

// TestUnknownAcceptStaysJSON: anything but the exact media type — absent,
// a wildcard, an unknown type, garbage — gets the original JSON body.
func TestUnknownAcceptStaysJSON(t *testing.T) {
	hd, srv := newHandler(t, 2, 2)
	token, _ := srv.RegisterDevice(context.Background(), "d1")
	ts := httptest.NewServer(hd)
	defer ts.Close()
	for _, accept := range []string{"", "*/*", "application/json", "application/octet-stream", "not a media type"} {
		status, ct, body := rawCheckout(t, ts.URL, "d1", token, accept, "")
		if status != http.StatusOK {
			t.Fatalf("Accept=%q status = %d", accept, status)
		}
		if !strings.HasPrefix(ct, "application/json") {
			t.Errorf("Accept=%q Content-Type = %q, want JSON", accept, ct)
		}
		if !bytes.HasPrefix(bytes.TrimSpace(body), []byte("{")) {
			t.Errorf("Accept=%q body is not JSON: %q", accept, body[:min(len(body), 32)])
		}
	}
}

// TestBinaryContentTypeMatchesMime: the media-type check gives
// mime.ParseMediaType's verdict on every input, and allocates nothing
// for a value without parameters. Client and server run it on every
// checkout reply and every checkin.
func TestBinaryContentTypeMatchesMime(t *testing.T) {
	reference := func(ct string) bool {
		mt, _, err := mime.ParseMediaType(ct)
		return err == nil && mt == ContentTypeBinary
	}
	for _, ct := range []string{
		ContentTypeBinary,
		"APPLICATION/X-CROWDML-BIN",
		"Application/X-Crowdml-Bin",
		" application/x-crowdml-bin ",
		"\tapplication/x-crowdml-bin",
		"application/x-crowdml-bin; v=1",
		"application/x-crowdml-bin;compress=flate",
		" Application/x-crowdml-bin ; charset=utf-8",
		"application/x-crowdml-bin;",
		"application/x-crowdml-bin; =",
		"application/x-crowdml-bin/x",
		"application/x-crowdml-bin/x; v=1",
		"application/x-crowdml-binary",
		"application/x-crowdml",
		"application /x-crowdml-bin",
		"/",
		"",
		";",
		"application/json",
		"application/json; charset=utf-8",
		"*/*",
	} {
		if got, want := isBinaryContentType(ct), reference(ct); got != want {
			t.Errorf("isBinaryContentType(%q) = %v, mime says %v", ct, got, want)
		}
		if !strings.Contains(ct, ";") {
			if n := testing.AllocsPerRun(100, func() { isBinaryContentType(ct) }); n != 0 {
				t.Errorf("isBinaryContentType(%q) allocates %.0f times, want 0", ct, n)
			}
		}
	}
	// The one divergence, on purpose: mime lower-cases with
	// strings.ToLower, which maps U+0130 onto 'i', so it reads this
	// non-token value as the binary type. It is not one: JSON.
	if isBinaryContentType("applİcation/x-crowdml-bin") {
		t.Error("a non-ASCII lookalike of the binary type was taken for it")
	}
}

// TestDeltaSequenceOverHTTP drives the full delta lifecycle: full frame,
// then a sparse delta applied against the cached base, staying equal to
// the JSON view at every step — and an up-to-date poll costs only an
// empty delta.
func TestDeltaSequenceOverHTTP(t *testing.T) {
	hd, srv := newHandler(t, 2, 2)
	ctx := context.Background()
	token, _ := srv.RegisterDevice(ctx, "d1")
	ts := httptest.NewServer(hd)
	defer ts.Close()
	jsonCl := NewHTTPClient(ts.URL, nil).WithTask("alpha")
	deltaCl := jsonCl.WithWire(WireBinaryDelta)

	// First checkout: no base, full frame.
	first, err := deltaCl.Checkout(ctx, "d1", token)
	if err != nil {
		t.Fatal(err)
	}
	if first.Version != 0 {
		t.Fatalf("first version = %d", first.Version)
	}

	// Advance the model, then check out again: served as a delta.
	for i := 0; i < 3; i++ {
		if err := jsonCl.Checkin(ctx, "d1", token, checkinReq()); err != nil {
			t.Fatal(err)
		}
		want, err := jsonCl.Checkout(ctx, "d1", token)
		if err != nil {
			t.Fatal(err)
		}
		got, err := deltaCl.Checkout(ctx, "d1", token)
		if err != nil {
			t.Fatalf("delta checkout %d: %v", i, err)
		}
		if got.Version != want.Version {
			t.Fatalf("version = %d, want %d", got.Version, want.Version)
		}
		sameParams(t, got.Params, want.Params)
	}

	// On the wire, an up-to-date ?since really is a delta frame.
	cur := srv.Iteration()
	_, _, body := rawCheckout(t, ts.URL, "d1", token, ContentTypeBinary, "?since="+strconv.Itoa(cur))
	fr, err := wirecodec.Decode(body)
	if err != nil {
		t.Fatal(err)
	}
	if fr.Kind != wirecodec.KindDelta || fr.Since != cur {
		t.Errorf("frame kind=%d since=%d, want delta since=%d", fr.Kind, fr.Since, cur)
	}
	if len(fr.Indices) != 0 {
		t.Errorf("up-to-date delta carries %d changed entries", len(fr.Indices))
	}
}

// TestDeltaSinceAheadServesFull: a base the leader has never seen (ahead
// of its iteration — e.g. after a restore) degrades to a full frame.
func TestDeltaSinceAheadServesFull(t *testing.T) {
	hd, srv := newHandler(t, 2, 2)
	token, _ := srv.RegisterDevice(context.Background(), "d1")
	ts := httptest.NewServer(hd)
	defer ts.Close()
	status, ct, body := rawCheckout(t, ts.URL, "d1", token, ContentTypeBinary, "?since=999")
	if status != http.StatusOK || !isBinaryContentType(ct) {
		t.Fatalf("status=%d ct=%q", status, ct)
	}
	fr, err := wirecodec.Decode(body)
	if err != nil {
		t.Fatal(err)
	}
	if fr.Kind != wirecodec.KindFull {
		t.Errorf("kind = %d, want full frame fallback", fr.Kind)
	}
}

// TestMalformedSinceRejected: a non-numeric or negative ?since is the
// caller's error — 400, not 500.
func TestMalformedSinceRejected(t *testing.T) {
	hd, srv := newHandler(t, 2, 2)
	token, _ := srv.RegisterDevice(context.Background(), "d1")
	ts := httptest.NewServer(hd)
	defer ts.Close()
	for _, q := range []string{"?since=abc", "?since=-3", "?since=1e9"} {
		status, ct, _ := rawCheckout(t, ts.URL, "d1", token, ContentTypeBinary, q)
		if status != http.StatusBadRequest {
			t.Errorf("%s status = %d, want 400", q, status)
		}
		if !strings.HasPrefix(ct, "application/json") {
			t.Errorf("%s error Content-Type = %q, want JSON envelope", q, ct)
		}
	}
}

// TestMalformedBinaryCheckinRejected: garbage, truncated and
// wrong-kind frames under the binary Content-Type are 400s, never 500s.
func TestMalformedBinaryCheckinRejected(t *testing.T) {
	hd, srv := newHandler(t, 2, 2)
	token, _ := srv.RegisterDevice(context.Background(), "d1")
	ts := httptest.NewServer(hd)
	defer ts.Close()

	valid := wirecodec.AppendCheckin(nil, []float64{1, 0, 0, 0}, 0, 1, 0, []int{1, 0}, false)
	wrongKind := wirecodec.AppendFull(nil, []float64{1, 2}, 3, false)
	cases := map[string][]byte{
		"garbage":    []byte("not a frame at all"),
		"empty":      {},
		"truncated":  valid[:len(valid)-5],
		"wrong-kind": wrongKind,
	}
	for name, payload := range cases {
		req, _ := http.NewRequest(http.MethodPost, ts.URL+alphaPath("checkin"), bytes.NewReader(payload))
		req.Header.Set("Content-Type", ContentTypeBinary)
		req.Header.Set(headerDeviceID, "d1")
		req.Header.Set(headerToken, token)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400", name, resp.StatusCode)
		}
	}
	if srv.Iteration() != 0 {
		t.Error("malformed checkin advanced the model")
	}
}

// TestBinaryCheckinReachesServer: a binary checkin applies exactly like
// its JSON twin — two identical servers, one driven per wire, end equal.
func TestBinaryCheckinReachesServer(t *testing.T) {
	ctx := context.Background()
	run := func(wire WireFormat) []float64 {
		hd, srv := newHandler(t, 2, 2)
		token, _ := srv.RegisterDevice(ctx, "d1")
		ts := httptest.NewServer(hd)
		defer ts.Close()
		cl := NewHTTPClient(ts.URL, nil).WithTask("alpha").WithWire(wire)
		for i := 0; i < 4; i++ {
			if err := cl.Checkin(ctx, "d1", token, checkinReq()); err != nil {
				t.Fatalf("%v checkin: %v", wire, err)
			}
		}
		if srv.Iteration() != 4 {
			t.Fatalf("%v iterations = %d, want 4", wire, srv.Iteration())
		}
		co, err := cl.Checkout(ctx, "d1", token)
		if err != nil {
			t.Fatal(err)
		}
		return co.Params
	}
	sameParams(t, run(WireBinary), run(WireJSON))
}

// TestBinaryErrorStaysJSON is the negotiation regression test: error
// responses on a binary-negotiated request keep the JSON envelope, and
// the binary client maps them to the same sentinels as the JSON client.
func TestBinaryErrorStaysJSON(t *testing.T) {
	hd, srv := newHandler(t, 2, 2)
	ctx := context.Background()
	token, _ := srv.RegisterDevice(ctx, "d1")
	ts := httptest.NewServer(hd)
	defer ts.Close()

	// On the wire: 401 with a JSON body despite Accept: binary.
	status, ct, body := rawCheckout(t, ts.URL, "ghost", "bad", ContentTypeBinary, "")
	if status != http.StatusUnauthorized {
		t.Fatalf("status = %d, want 401", status)
	}
	if !strings.HasPrefix(ct, "application/json") {
		t.Errorf("error Content-Type = %q, want JSON envelope", ct)
	}
	if !bytes.Contains(body, []byte("error")) {
		t.Errorf("error body = %q, want JSON error envelope", body)
	}

	// Through the client: sentinel mapping identical to the JSON wire.
	for _, wire := range []WireFormat{WireBinary, WireBinaryDelta} {
		cl := NewHTTPClient(ts.URL, nil).WithTask("alpha").WithWire(wire)
		if _, err := cl.Checkout(ctx, "ghost", "bad"); !errors.Is(err, core.ErrAuth) {
			t.Errorf("%v checkout error = %v, want ErrAuth", wire, err)
		}
		if err := cl.Checkin(ctx, "ghost", "bad", checkinReq()); !errors.Is(err, core.ErrAuth) {
			t.Errorf("%v checkin error = %v, want ErrAuth", wire, err)
		}
		bad := &core.CheckinRequest{Grad: []float64{1}, LabelCounts: []int{0, 0}}
		if err := cl.Checkin(ctx, "d1", token, bad); !errors.Is(err, core.ErrBadCheckin) {
			t.Errorf("%v bad checkin error = %v, want ErrBadCheckin", wire, err)
		}
	}
}

// TestCompressedCheckinRefusedBeforeAllocating: the flag bit that once
// marked a flate payload is refused with 400 before the header sizes
// anything. The 62-byte unauthenticated frame claims 8,000,000 gradient
// values; the decoder used to allocate their 64 MB to inflate into before
// it could say no.
func TestCompressedCheckinRefusedBeforeAllocating(t *testing.T) {
	hd, srv := newHandler(t, 2, 2)
	frame := append([]byte(wirecodec.Magic), 1, wirecodec.KindCheckin, 1, 0) // codec 1, flags: bit 0
	frame = binary.LittleEndian.AppendUint64(frame, 0)                       // version
	frame = binary.LittleEndian.AppendUint64(frame, math.MaxUint64)          // since -1
	frame = binary.LittleEndian.AppendUint32(frame, 8_000_000)               // dims
	frame = binary.LittleEndian.AppendUint32(frame, 0)                       // count
	frame = append(frame, make([]byte, 26)...)                               // the "compressed" payload
	frame = binary.LittleEndian.AppendUint32(frame, crc32.ChecksumIEEE(frame))
	if len(frame) != 62 {
		t.Fatalf("frame is %d bytes, want 62", len(frame))
	}
	var code int
	got := bytesPerRun(20, func() {
		req := httptest.NewRequest(http.MethodPost, alphaPath("checkin"), bytes.NewReader(frame))
		req.Header.Set("Content-Type", ContentTypeBinary)
		rec := httptest.NewRecorder()
		hd.ServeHTTP(rec, req)
		code = rec.Code
	})
	if code != http.StatusBadRequest {
		t.Errorf("status = %d, want 400", code)
	}
	if got >= 64<<10 {
		t.Errorf("refusing the frame allocated %.0f B, want < 64 KiB", got)
	}
	if srv.Iteration() != 0 {
		t.Error("the refused checkin advanced the model")
	}
}

// TestDeltaCacheResyncAfterImport: an ImportState that rewinds the
// leader invalidates its delta ring; a delta client holding a now-alien
// base resynchronizes transparently via the full-frame retry.
func TestDeltaCacheResyncAfterImport(t *testing.T) {
	hd, srv := newHandler(t, 2, 2)
	ctx := context.Background()
	token, _ := srv.RegisterDevice(ctx, "d1")
	ts := httptest.NewServer(hd)
	defer ts.Close()
	jsonCl := NewHTTPClient(ts.URL, nil).WithTask("alpha")
	cl := jsonCl.WithWire(WireBinaryDelta)

	for i := 0; i < 3; i++ {
		if err := jsonCl.Checkin(ctx, "d1", token, checkinReq()); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := cl.Checkout(ctx, "d1", token); err != nil {
		t.Fatal(err)
	}

	// Roll the leader back to its own exported state from iteration 3 —
	// versions match but the ring is gone; then advance one step.
	if err := srv.ImportState(srv.ExportState()); err != nil {
		t.Fatal(err)
	}
	if err := jsonCl.Checkin(ctx, "d1", token, checkinReq()); err != nil {
		t.Fatal(err)
	}
	got, err := cl.Checkout(ctx, "d1", token)
	if err != nil {
		t.Fatalf("checkout after import: %v", err)
	}
	want, err := jsonCl.Checkout(ctx, "d1", token)
	if err != nil {
		t.Fatal(err)
	}
	if got.Version != want.Version {
		t.Fatalf("version = %d, want %d", got.Version, want.Version)
	}
	sameParams(t, got.Params, want.Params)
}

// TestShardedBinaryWire: the sharded tier negotiates the same protocol —
// full binary frames and merged-view deltas — with values equal to the
// JSON route.
func TestShardedBinaryWire(t *testing.T) {
	hd, g := newShardedHandler(t)
	hd.EnableEnrollment("k")
	ts := httptest.NewServer(hd)
	defer ts.Close()
	ctx := context.Background()
	jsonCl := NewHTTPClient(ts.URL, nil).WithTask("act")
	deltaCl := jsonCl.WithWire(WireBinaryDelta)

	tok, err := jsonCl.Register(ctx, "device-002", "k")
	if err != nil {
		t.Fatal(err)
	}

	// Full-frame checkout against the initial merged view.
	first, err := deltaCl.Checkout(ctx, "device-002", tok)
	if err != nil {
		t.Fatalf("sharded binary checkout: %v", err)
	}
	want, err := jsonCl.Checkout(ctx, "device-002", tok)
	if err != nil {
		t.Fatal(err)
	}
	sameParams(t, first.Params, want.Params)

	// Advance a member, merge, and take the delta path.
	if err := jsonCl.Checkin(ctx, "device-002", tok, checkinReq()); err != nil {
		t.Fatal(err)
	}
	g.Merge()
	got, err := deltaCl.Checkout(ctx, "device-002", tok)
	if err != nil {
		t.Fatalf("sharded delta checkout: %v", err)
	}
	want, err = jsonCl.Checkout(ctx, "device-002", tok)
	if err != nil {
		t.Fatal(err)
	}
	if got.Version != want.Version {
		t.Fatalf("version = %d, want %d", got.Version, want.Version)
	}
	sameParams(t, got.Params, want.Params)

	// Binary checkin routes to the owning member like the JSON one.
	binCl := jsonCl.WithWire(WireBinary)
	if err := binCl.Checkin(ctx, "device-002", tok, checkinReq()); err != nil {
		t.Fatalf("sharded binary checkin: %v", err)
	}
}

// TestJSONCheckoutIsEncodingJSONWithContentLength: the JSON checkout
// body is what json.Encoder used to write, byte for byte, and now leaves
// with a Content-Length instead of chunked framing — for a plain task
// and for a sharded one, which share the handler.
func TestJSONCheckoutIsEncodingJSONWithContentLength(t *testing.T) {
	hd, g := newShardedHandler(t)
	ts := httptest.NewServer(hd)
	defer ts.Close()
	ctx := context.Background()
	solo, _ := hd.hub.Task("solo")
	soloToken, _ := solo.Server().RegisterDevice(ctx, "d1")
	actToken, err := g.Register(ctx, "d1")
	if err != nil {
		t.Fatal(err)
	}
	grad := &core.CheckinRequest{Grad: []float64{1e-7, -2.5, 1e21, 1.0 / 3}, NumSamples: 1, LabelCounts: []int{1, 0}}
	if err := solo.Server().Checkin(ctx, "d1", soloToken, grad); err != nil {
		t.Fatal(err)
	}
	if err := g.Checkin(ctx, "d1", actToken, grad); err != nil {
		t.Fatal(err)
	}
	g.Merge()

	for task, token := range map[string]string{"solo": soloToken, "act": actToken} {
		req, _ := http.NewRequest(http.MethodGet, ts.URL+taskPath(task, "checkout"), nil)
		req.Header.Set(headerDeviceID, "d1")
		req.Header.Set(headerToken, token)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || resp.Header.Get("Content-Type") != "application/json" {
			t.Fatalf("%s: status %d, Content-Type %q", task, resp.StatusCode, resp.Header.Get("Content-Type"))
		}
		if resp.ContentLength != int64(len(body)) || len(resp.TransferEncoding) != 0 {
			t.Errorf("%s: Content-Length %d, Transfer-Encoding %v for a %d-byte body",
				task, resp.ContentLength, resp.TransferEncoding, len(body))
		}
		var decoded core.CheckoutResponse
		if err := json.Unmarshal(body, &decoded); err != nil {
			t.Fatalf("%s: %v", task, err)
		}
		if decoded.Version != 1 || len(decoded.Params) != 4 || decoded.Params[0] == 0 {
			t.Fatalf("%s: checkout = %+v", task, decoded)
		}
		var want bytes.Buffer
		if err := json.NewEncoder(&want).Encode(decoded); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(body, want.Bytes()) {
			t.Errorf("%s: body differs from encoding/json's:\n got %q\nwant %q", task, body, want.Bytes())
		}
	}
}

// TestNonFiniteCheckoutIs500: a parameter JSON cannot carry used to
// turn the checkout into a 200 with an empty body (the encoder failed
// after the headers were out). The encoder now refuses before anything
// is written: 500 with the JSON error envelope. The binary wire carries
// the value as it is.
func TestNonFiniteCheckoutIs500(t *testing.T) {
	hd, srv := newHandler(t, 2, 2)
	ctx := context.Background()
	token, _ := srv.RegisterDevice(ctx, "d1")
	state := srv.ExportState()
	state.Params[2] = math.Inf(-1)
	if err := srv.ImportState(state); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(hd)
	defer ts.Close()

	status, ct, body := rawCheckout(t, ts.URL, "d1", token, "", "")
	var envelope errorResponse
	if status != http.StatusInternalServerError || ct != "application/json" ||
		json.Unmarshal(body, &envelope) != nil || !strings.Contains(envelope.Error, "unsupported value: -Inf") {
		t.Errorf("JSON checkout of a non-finite model: status %d, Content-Type %q, body %q", status, ct, body)
	}
	if _, err := NewHTTPClient(ts.URL, nil).WithTask("alpha").Checkout(ctx, "d1", token); err == nil || !strings.Contains(err.Error(), "500") {
		t.Errorf("client checkout err = %v, want the 500", err)
	}
	got, err := NewHTTPClient(ts.URL, nil).WithTask("alpha").WithWire(WireBinary).Checkout(ctx, "d1", token)
	if err != nil || !math.IsInf(got.Params[2], -1) {
		t.Errorf("binary checkout = %+v, %v", got, err)
	}
}

// TestOddJSONCheckinStaysEncodingJSONs: bodies the hot-path parser
// declines are decoded by json.Unmarshal exactly as every body used to
// be — case-folded keys and duplicate keys are accepted the way they
// were, null leaves the field unset, and a type error reads as before.
func TestOddJSONCheckinStaysEncodingJSONs(t *testing.T) {
	hd, srv := newHandler(t, 2, 2)
	ctx := context.Background()
	token, _ := srv.RegisterDevice(ctx, "d1")
	ts := httptest.NewServer(hd)
	defer ts.Close()
	post := func(body string) (int, string) {
		req, _ := http.NewRequest(http.MethodPost, ts.URL+alphaPath("checkin"), strings.NewReader(body))
		req.Header.Set(headerDeviceID, "d1")
		req.Header.Set(headerToken, token)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, errorMessage(raw)
	}
	for _, ok := range []string{
		`{"GRAD":[1,0,0,0],"NumSamples":1,"labelcounts":[1,0]}`,
		`{"grad":[9,9,9,9],"grad":[1,0,0,0],"numSamples":1,"labelCounts":[1,0],"extra":{"a":[1]}}`,
		`{"grad":[1,0,0,0],"numSamples":1,"labelCounts":[1,0],"version":null}`,
		"{\"grad\":[1,0,0,0],\"numSamples\":1,\"labelCounts\":[1,0]}\n",
	} {
		if status, msg := post(ok); status != http.StatusNoContent {
			t.Errorf("%s: status %d (%s), want 204", ok, status, msg)
		}
	}
	if got := srv.Iteration(); got != 4 {
		t.Errorf("iteration = %d after four accepted checkins", got)
	}
	for body, want := range map[string]string{
		`{"grad":null,"numSamples":1,"labelCounts":[1,0]}`:        "gradient length 0, want 4",
		`{"grad":[1,0,0,0],"numSamples":1.5,"labelCounts":[1,0]}`: "bad JSON: json: cannot unmarshal number 1.5 into Go struct field CheckinRequest.numSamples of type int",
		`{"grad":[1,0,0,1e999],"numSamples":1,"labelCounts":[1]}`: "bad JSON: json: cannot unmarshal number 1e999 into Go struct field CheckinRequest.grad of type float64",
		`{"grad":[1,0,0,0],"numSamples":1,"labelCounts":[1,0]} x`: "bad JSON: invalid character 'x' after top-level value",
		`{"grad":[01,0,0,0]}`: "bad JSON: invalid character '1' after array element",
	} {
		if status, msg := post(body); status != http.StatusBadRequest || !strings.HasPrefix(msg, want) {
			t.Errorf("%s: status %d, error %q, want 400 %q", body, status, msg, want)
		}
	}
}

// slowBodyTransport feeds each request's body to the real transport a
// few KB at a time, as a congested uplink would: the request is still
// being written long after an early response has come back.
type slowBodyTransport struct{}

type slowBody struct{ io.ReadCloser }

func (b slowBody) Read(p []byte) (int, error) {
	time.Sleep(50 * time.Microsecond)
	return b.ReadCloser.Read(p[:min(len(p), 4096)])
}

func (slowBodyTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	slowed := req.Clone(req.Context())
	slowed.Body = slowBody{req.Body}
	return http.DefaultTransport.RoundTrip(slowed)
}

// TestPooledCheckinBodySurvivesEarlyResponse hammers a read-only
// replica with concurrent checkins on both wires. The follower answers
// 409 without reading a body this large, so net/http is still writing
// the request when Do returns — which RoundTripper allows: the body is
// the transport's until it is Closed. A body buffer recycled when Do
// returns is overwritten by the next checkin's encoder while the
// transport reads it; -race reports exactly that.
func TestPooledCheckinBodySurvivesEarlyResponse(t *testing.T) {
	h := hub.New()
	const leader = "http://leader.example:8080"
	if _, err := h.CreateTask(context.Background(), "alpha", core.ServerConfig{
		Model:   model.NewLogisticRegression(2, 2),
		Updater: &optimizer.SGD{Schedule: optimizer.Constant{C: 0.1}},
	}, hub.AsReplicaOf(leader)); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewHandler(h))
	defer ts.Close()

	// Past net/http's 256 KB post-handler drain on either wire, so the
	// server replies before it has consumed the body.
	grad := make([]float64, 40_000)
	for i := range grad {
		grad[i] = float64(i) + 0.125
	}
	base := NewHTTPClient(ts.URL, &http.Client{Transport: slowBodyTransport{}}).WithTask("alpha")
	var wg sync.WaitGroup
	for _, cl := range []*HTTPClient{base, base.WithWire(WireBinary)} {
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				req := &core.CheckinRequest{Grad: grad, NumSamples: 1, LabelCounts: []int{1, 0}}
				for i := 0; i < 8; i++ {
					err := cl.Checkin(context.Background(), "d", "t", req)
					if hint, ok := LeaderHint(err); !ok || hint != leader || !errors.Is(err, ErrReadOnlyReplica) {
						t.Errorf("%v checkin %d: err = %v, want the leader hint", cl.Wire(), i, err)
						return
					}
				}
			}()
		}
	}
	wg.Wait()
}
