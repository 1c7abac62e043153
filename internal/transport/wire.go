package transport

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"mime"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"github.com/crowdml/crowdml/internal/core"
	"github.com/crowdml/crowdml/internal/hub"
	"github.com/crowdml/crowdml/internal/telemetry"
	"github.com/crowdml/crowdml/internal/wirecodec"
)

// ContentTypeBinary is the negotiated media type of the binary wire
// protocol (internal/wirecodec, docs/WIRE.md). A checkout request opts
// in with "Accept: application/x-crowdml-bin"; a checkin opts in by
// POSTing its frame under this Content-Type. Media-type parameters are
// ignored (an old client's ";compress=flate" included). JSON remains the
// default: requests that do not ask get exactly the pre-existing
// behavior, and error responses are ALWAYS the JSON envelope regardless
// of negotiation.
const ContentTypeBinary = "application/x-crowdml-bin"

// WireFormat selects the client's encoding for the device hot path.
type WireFormat int

const (
	// WireJSON is the default: the original JSON request/response bodies.
	WireJSON WireFormat = iota
	// WireBinary negotiates binary frames for checkout and checkin.
	WireBinary
	// WireBinaryDelta additionally sends ?since=N on checkouts, so an
	// up-to-date poller downloads a ~36-byte empty delta instead of the
	// full parameter vector.
	WireBinaryDelta
)

// String returns the -wire flag spelling of the format.
func (f WireFormat) String() string {
	switch f {
	case WireBinary:
		return "binary"
	case WireBinaryDelta:
		return "binary-delta"
	default:
		return "json"
	}
}

// ParseWireFormat parses the -wire flag spelling ("json", "binary",
// "binary-delta").
func ParseWireFormat(s string) (WireFormat, error) {
	switch s {
	case "", "json":
		return WireJSON, nil
	case "binary":
		return WireBinary, nil
	case "binary-delta":
		return WireBinaryDelta, nil
	}
	return WireJSON, fmt.Errorf("transport: unknown wire format %q (want json, binary or binary-delta)", s)
}

// negotiate is the one place a request's codec is picked, true meaning
// binary: a checkout asks for its response's through Accept, a checkin
// declares its body's through Content-Type. Unknown or absent values
// mean JSON — an old client can never receive a frame it does not
// understand.
func negotiate(r *http.Request) bool {
	if r.Method == http.MethodPost {
		return isBinaryContentType(r.Header.Get("Content-Type"))
	}
	for accept := r.Header.Get("Accept"); accept != ""; {
		var part string
		part, accept, _ = strings.Cut(accept, ",")
		if isBinaryContentType(strings.TrimSpace(part)) {
			return true
		}
	}
	return false
}

// isBinaryContentType reports whether a header value names the binary
// media type (parameters ignored). Only a value with parameters is
// parsed; one without is compared trimmed and case-insensitively.
func isBinaryContentType(ct string) bool {
	if !strings.Contains(ct, ";") {
		return strings.EqualFold(strings.TrimSpace(ct), ContentTypeBinary)
	}
	mt, _, err := mime.ParseMediaType(ct)
	return err == nil && mt == ContentTypeBinary
}

// pooledBuf is a byte buffer from wireBufs. Everything the hot path
// stages goes through one: bodies being encoded (checkout responses
// server-side, checkin requests client-side) and bodies being read.
type pooledBuf struct{ b []byte }

var wireBufs = sync.Pool{New: func() any { return &pooledBuf{b: make([]byte, 0, 4096)} }}

// maxPooledBuf caps what goes back in the pool, so one giant model (or
// one checkpoint fetch) does not pin its buffer forever.
const maxPooledBuf = 1 << 20

func getBuf() *pooledBuf { return wireBufs.Get().(*pooledBuf) }

// put recycles the buffer; its bytes must not be touched afterwards.
func (p *pooledBuf) put() {
	if cap(p.b) <= maxPooledBuf {
		p.b = p.b[:0]
		wireBufs.Put(p)
	}
}

// readAllPooled reads r to EOF into a pooled buffer, which the caller
// must put back once it is done with the bytes — also after an error.
// A body past wirecodec.MaxPayload is an error, so a peer cannot make
// the reader buffer whatever it sends.
func readAllPooled(r io.Reader) (*pooledBuf, error) {
	buf := getBuf()
	b := buf.b[:0]
	for {
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)]
		}
		n, err := r.Read(b[len(b):min(cap(b), wirecodec.MaxPayload+1)])
		b = b[:len(b)+n]
		if len(b) > wirecodec.MaxPayload {
			err = fmt.Errorf("body exceeds %d bytes", wirecodec.MaxPayload)
		}
		if err != nil {
			buf.b = b
			if err == io.EOF {
				err = nil
			}
			return buf, err
		}
	}
}

// deviceBackend is what the two hot endpoints are served from: a plain
// task's *core.Server, or the router fronting a sharded logical task.
// Both hand out their published parameter snapshot by reference, pinned
// until the handler's Release (the since = -1 read copies nothing), so
// one handler serves task and router, JSON and binary.
type deviceBackend interface {
	CheckoutDelta(ctx context.Context, deviceID, token string, since int) (*core.ParamDelta, error)
	Checkin(ctx context.Context, deviceID, token string, req *core.CheckinRequest) error
}

var (
	_ deviceBackend = (*core.Server)(nil)
	_ deviceBackend = hub.ShardRouter(nil)
)

// sinceParam reads the delta base off a checkout's query string (-1
// when absent) and whether it opts in to XOR deltas with xor=1, without
// which none is sent. The shape clients send, "since=<digits>" and maybe
// "&xor=1", is read in place; anything else takes the url.Values route,
// so what is accepted and what is refused did not change.
func sinceParam(r *http.Request) (since int, xor bool, err error) {
	raw, xor := strings.CutSuffix(r.URL.RawQuery, "&xor=1")
	if digits, ok := strings.CutPrefix(raw, "since="); ok && digits != "" && strings.Trim(digits, "0123456789") == "" {
		raw = digits
	} else {
		q := r.URL.Query()
		if raw, xor = q.Get("since"), q.Get("xor") == "1"; raw == "" {
			return -1, xor, nil
		}
	}
	if since, err = strconv.Atoi(raw); err != nil || since < 0 {
		return 0, false, fmt.Errorf("bad since %q: %w", raw, core.ErrBadCheckin)
	}
	return since, xor, nil
}

// bodyForm reads a checkout frame's core.Form… off its header.
func bodyForm(frame []byte) int {
	switch {
	case frame[5] == wirecodec.KindFull:
		return core.FormFull
	case frame[6]&wirecodec.FlagXOR != 0:
		return core.FormXOR
	case binary.LittleEndian.Uint32(frame[28:]) == 0:
		return core.FormEmpty
	}
	return core.FormSparse
}

// serveCheckout answers a checkout in the negotiated codec: binary
// frames honor ?since=N (see wirecodec.AppendDelta), JSON is always the
// full vector. Either way the body is encoded from the backend's pinned
// snapshots into one pooled buffer — after which the snapshots are
// released for reuse — and leaves with a Content-Length; the encode is
// the checkout's encode stage, lapped into co, and its size is observed
// in bodies by form. Errors flow
// through writeError — the JSON envelope, which a binary client tells
// apart by Content-Type — and an encoder that refuses (a non-finite
// parameter has no JSON form) fails before anything is written: 500,
// never a 200 with half a body.
func serveCheckout(w http.ResponseWriter, r *http.Request, be deviceBackend, deviceID string, co, bodies *telemetry.Stages) {
	binary := negotiate(r)
	since, xor := -1, false
	if binary {
		// Absent means a full frame; a malformed value is the client's
		// error: 400.
		var err error
		if since, xor, err = sinceParam(r); err != nil {
			writeError(w, err)
			return
		}
	}
	d, err := be.CheckoutDelta(r.Context(), deviceID, r.Header.Get(headerToken), since)
	if err != nil {
		writeError(w, err)
		return
	}
	start := co.Start()
	buf, contentType, form := getBuf(), "application/json", core.FormJSON
	defer buf.put()
	if binary {
		buf.b = wirecodec.AppendDelta(buf.b, d.Base, d.Params, d.Version, d.Done, d.Since, xor)
		contentType, form = ContentTypeBinary, bodyForm(buf.b)
	} else {
		buf.b, err = wirecodec.AppendCheckoutJSON(buf.b, d.Params, d.Version, d.Done)
	}
	// Encoded (or refused): the body no longer references the snapshots,
	// so the ring may recycle them while the response is on the wire.
	d.Release()
	if err != nil {
		writeError(w, fmt.Errorf("encode checkout: %w", err))
		return
	}
	co.Lap(core.StageEncode, start)
	bodies.Observe(form, float64(len(buf.b)))
	w.Header().Set("Content-Type", contentType)
	w.Header().Set("Content-Length", strconv.Itoa(len(buf.b)))
	_, _ = w.Write(buf.b)
}

// checkinScratch is what one checkin request decodes into. Checkin's
// contract is that the request's slices are the caller's again as soon
// as it returns, so the gradient's backing array (fr.Values) is reused
// from request to request instead of allocated per checkin.
type checkinScratch struct {
	fr  wirecodec.Frame
	req core.CheckinRequest
}

var checkinScratches = sync.Pool{New: func() any { return new(checkinScratch) }}

// serveCheckin decodes a checkin in the negotiated codec and applies it.
// Its decode stage is observed in ci once the checkin has been applied.
func serveCheckin(w http.ResponseWriter, r *http.Request, be deviceBackend, deviceID string, ci *telemetry.Stages) {
	start := ci.Start()
	sc := checkinScratches.Get().(*checkinScratch)
	req, err := decodeCheckin(r, sc)
	decoded := ci.Start()
	if err == nil {
		err = be.Checkin(r.Context(), deviceID, r.Header.Get(headerToken), req)
	}
	// Released here and not by defer: when a panic unwinds out of
	// Checkin the request may still sit in the applier's queue (see
	// core's abandoned checkins), and a scratch that is never recycled
	// is merely garbage.
	if cap(sc.fr.Values) <= maxPooledBuf/8 {
		checkinScratches.Put(sc)
	}
	if err != nil {
		writeError(w, err)
		return
	}
	ci.Span(core.StageDecode, start, decoded)
	w.WriteHeader(http.StatusNoContent)
}

// decodeCheckin reads and decodes a checkin body into sc; the request
// it returns aliases sc. Every malformed payload — bad JSON, a
// truncated or corrupted frame, the wrong frame kind — wraps
// core.ErrBadCheckin, so the handler's error mapping yields 400, never
// 500. JSON the hot-path parser declines is json.Unmarshal's, as every
// JSON body used to be: what it accepts and how its errors read did not
// change.
func decodeCheckin(r *http.Request, sc *checkinScratch) (*core.CheckinRequest, error) {
	buf, err := readAllPooled(http.MaxBytesReader(nil, r.Body, wirecodec.MaxPayload))
	defer buf.put()
	if err != nil {
		return nil, fmt.Errorf("read checkin body: %v: %w", err, core.ErrBadCheckin)
	}
	fr := &sc.fr
	if negotiate(r) {
		if err := wirecodec.DecodeInto(fr, buf.b); err != nil {
			return nil, fmt.Errorf("%v: %w", err, core.ErrBadCheckin)
		}
		if fr.Kind != wirecodec.KindCheckin {
			return nil, fmt.Errorf("frame kind %d is not a checkin: %w", fr.Kind, core.ErrBadCheckin)
		}
	} else if !wirecodec.ParseCheckinJSON(buf.b, fr) {
		req := new(core.CheckinRequest)
		if err := json.Unmarshal(buf.b, req); err != nil {
			return nil, fmt.Errorf("bad JSON: %v: %w", err, core.ErrBadCheckin)
		}
		return req, nil
	}
	sc.req = core.CheckinRequest{
		Grad:        fr.Values,
		NumSamples:  fr.NumSamples,
		ErrCount:    fr.ErrCount,
		LabelCounts: fr.LabelCounts,
		Version:     fr.Version,
	}
	return &sc.req, nil
}

// --- client side ---

// clientSnapshot is one parameter vector a delta client was served and
// the iteration it belongs to. Immutable once published: the vector is
// shared by the cache, by every caller it was handed to, and by later
// sparse deltas that copy from it.
type clientSnapshot struct {
	params  []float64
	version int
}

// WithWire returns a copy of the client speaking the given wire format
// on Checkout/Checkin. WireBinaryDelta installs a fresh delta cache;
// registration and stats always stay JSON, and the journal feed is
// always binary frames, whatever the format chosen here.
func (c *HTTPClient) WithWire(f WireFormat) *HTTPClient {
	cp := *c
	cp.wire = f
	cp.delta = nil
	if f == WireBinaryDelta {
		cp.delta = new(atomic.Pointer[clientSnapshot])
	}
	return &cp
}

// Wire returns the client's negotiated wire format.
func (c *HTTPClient) Wire() WireFormat { return c.wire }

// Checkout implements core.Transport. Checkout is idempotent, so a
// client built WithRetry transparently retries transient failures. With
// a binary wire format (WithWire) the request negotiates compact frames
// — and delta downloads — via Accept; the JSON default is byte-identical
// to the original protocol. A delta whose base no longer matches the
// cache drops it and refetches one full frame.
//
// JSON and plain WireBinary hand out a private slice. A WireBinaryDelta
// client returns its cached snapshot itself — the same vector to every
// caller until the model moves — so Params is shared and read-only: copy
// before writing.
func (c *HTTPClient) Checkout(ctx context.Context, deviceID, token string) (*core.CheckoutResponse, error) {
	var base *clientSnapshot
	if c.delta != nil {
		base = c.delta.Load()
	}
	resp, retry, err := c.checkoutOnce(ctx, deviceID, token, base)
	if retry {
		// Stale or mismatched delta base: one full refetch resynchronizes.
		if c.delta != nil {
			c.delta.Store(nil)
		}
		resp, _, err = c.checkoutOnce(ctx, deviceID, token, nil)
	}
	return resp, err
}

// checkoutOnce performs one checkout round trip — a delta against base,
// XOR deltas welcome, when there is one — and decodes the answer by its
// Content-Type, so negotiation can never strand the client: a server (or
// proxy) that ignores the Accept header answers JSON and is read as
// JSON. What a delta client is served becomes its next base without a
// copy: a full or XOR frame's decoded vector is adopted (base
// XORed in), an empty delta re-serves base's, and only a sparse delta
// that changes something builds a new one. retry=true means a delta was
// unusable — wrong base, or it does not decode or apply — and the caller
// should refetch a full frame.
func (c *HTTPClient) checkoutOnce(ctx context.Context, deviceID, token string, base *clientSnapshot) (*core.CheckoutResponse, bool, error) {
	hdr := http.Header{headerDeviceID: {deviceID}, headerToken: {token}}
	url, err := c.endpoint("checkout")
	if err != nil {
		return nil, false, err
	}
	since := -1
	if c.wire != WireJSON {
		hdr.Set("Accept", ContentTypeBinary)
		if base != nil {
			since = base.version
			url += "?since=" + strconv.Itoa(since) + "&xor=1"
		}
	}
	resp, err := c.do(ctx, http.MethodGet, url, hdr)
	if err != nil {
		return nil, false, fmt.Errorf("transport: checkout: %w", err)
	}
	defer resp.Body.Close()
	if err := checkStatus(resp); err != nil {
		// Errors are always the JSON envelope; checkStatus already read
		// it — the decoders below never see an error body.
		return nil, false, err
	}
	buf, err := readAllPooled(resp.Body)
	defer buf.put()
	if err != nil {
		return nil, false, fmt.Errorf("transport: read checkout: %w", err)
	}
	if !isBinaryContentType(resp.Header.Get("Content-Type")) {
		out := new(core.CheckoutResponse)
		var ok bool
		if out.Params, out.Version, out.Done, ok = wirecodec.ParseCheckoutJSON(buf.b); !ok {
			*out = core.CheckoutResponse{}
			if err := json.Unmarshal(buf.b, out); err != nil {
				return nil, false, fmt.Errorf("transport: decode checkout: %w", err)
			}
		}
		return out, false, nil
	}
	var fr wirecodec.Frame
	if err := wirecodec.DecodeInto(&fr, buf.b); err != nil {
		return nil, since >= 0, fmt.Errorf("transport: decode checkout: %w", err)
	}

	var params []float64
	switch fr.Kind {
	case wirecodec.KindFull:
		params = fr.Values
	case wirecodec.KindDelta:
		if fr.Since != since {
			// The server answered a different base than we asked for:
			// protocol violation; resynchronize with a full frame.
			return nil, true, fmt.Errorf("transport: delta base %d, asked for %d", fr.Since, since)
		}
		if params, err = wirecodec.ApplyDelta(base.params, &fr); err != nil {
			return nil, true, fmt.Errorf("transport: apply delta: %w", err)
		}
	default:
		return nil, false, fmt.Errorf("transport: unexpected frame kind %d on checkout", fr.Kind)
	}
	// The applied result's iteration must be what the frame advertised
	// and never behind the base we applied against.
	if fr.Version < since {
		return nil, true, fmt.Errorf("transport: checkout went backwards: %d < base %d", fr.Version, since)
	}
	if c.delta != nil {
		c.delta.Store(&clientSnapshot{params: params, version: fr.Version})
	}
	return &core.CheckoutResponse{Params: params, Version: fr.Version, Done: fr.Done}, false, nil
}

// pooledBody is a request body held in a pooled buffer. net/http may
// still be reading a request body after Do has returned — a follower's
// 409 or a 404 is sent before the body is consumed, and a RoundTripper
// only promises to Close it eventually — so the buffer goes back to the
// pool when the sender has let go AND every reader opened over it has
// been closed, whichever comes last.
type pooledBody struct {
	buf  *pooledBuf
	refs atomic.Int32
}

type pooledBodyReader struct {
	*bytes.Reader
	body   *pooledBody
	closed atomic.Bool
}

func (p *pooledBody) open() io.ReadCloser {
	p.refs.Add(1)
	return &pooledBodyReader{Reader: bytes.NewReader(p.buf.b), body: p}
}

func (p *pooledBody) release() {
	if p.refs.Add(-1) == 0 {
		p.buf.put()
	}
}

func (r *pooledBodyReader) Close() error {
	if r.closed.CompareAndSwap(false, true) {
		r.body.release()
	}
	return nil
}

// chunkedEncoding is every checkin's Transfer-Encoding and identityEncoding
// every client request's Accept-Encoding; net/http only reads them. Without
// the latter, the Transport adds "gzip" to each request in a second header
// map, for a coding this protocol never uses.
var chunkedEncoding, identityEncoding = []string{"chunked"}, []string{"identity"}

// Checkin implements core.Transport: one POST of the request in the
// client's wire format — a wirecodec frame, or the JSON body the
// original protocol sends — encoded into a pooled buffer. Error
// responses are the JSON envelope on either wire; checkStatus reads
// them as usual.
func (c *HTTPClient) Checkin(ctx context.Context, deviceID, token string, body *core.CheckinRequest) error {
	buf, contentType := getBuf(), "application/json"
	sent := &pooledBody{buf: buf}
	sent.refs.Store(1) // the sender's hold, until Do has returned
	defer sent.release()
	if c.wire != WireJSON {
		contentType = ContentTypeBinary
		buf.b = wirecodec.AppendCheckin(buf.b, body.Grad, body.Version, body.NumSamples, body.ErrCount, body.LabelCounts, false)
	} else {
		var err error
		if buf.b, err = wirecodec.AppendCheckinJSON(buf.b, body.Grad, body.Version, body.NumSamples, body.ErrCount, body.LabelCounts); err != nil {
			return fmt.Errorf("transport: encode checkin: %w", err)
		}
	}
	u, err := c.endpoint("checkin")
	if err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, u, nil)
	if err != nil {
		return fmt.Errorf("transport: build checkin: %w", err)
	}
	// What NewRequest sets up for a *bytes.Reader body, by hand, sent
	// chunked: net/http then writes the body through its own WriteTo,
	// where a Content-Length framing copies it through a body-sized
	// io.Copy temporary first. ContentLength is still the body's size.
	req.Body, req.ContentLength = sent.open(), int64(len(buf.b))
	req.GetBody = func() (io.ReadCloser, error) { return sent.open(), nil }
	req.TransferEncoding = chunkedEncoding
	req.Header = http.Header{"Content-Type": {contentType}, headerAcceptEncoding: identityEncoding, headerDeviceID: {deviceID}, headerToken: {token}}
	resp, err := c.client.Do(req)
	if err != nil {
		return fmt.Errorf("transport: checkin: %w", err)
	}
	defer resp.Body.Close()
	return checkStatus(resp)
}
