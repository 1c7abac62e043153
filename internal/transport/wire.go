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
	// WireBinaryDelta additionally sends ?since=N&xor=2 on checkouts, so
	// a poller is sent what changed, and an up-to-date one a bodyless
	// 204, instead of the full parameter vector.
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

// The opt-in levels a checkout's xor parameter names: optInLevels maps
// the values that opt in, and any other value, or none, is optInNone.
const (
	optInNone     = iota
	optInXOR      // xor=1: XOR deltas welcome
	optInBodyless // xor=2: XOR deltas, and a 204 No Content when the base is current
)

var optInLevels = map[string]int{"1": optInXOR, "2": optInBodyless}

// sinceParam reads the delta base off a checkout's query string (-1
// when absent) and its opt-in level, without which no XOR delta and no
// bodyless answer is sent. The shape clients send, "since=<digits>" and
// maybe "&xor=" and a value, is read in place — only the first xor
// counts, as with url.Values, and a value url.Values would unescape is
// not read here; anything else takes the url.Values route, so what is
// accepted and what is refused did not change.
func sinceParam(r *http.Request) (since, optIn int, err error) {
	raw, rest, _ := strings.Cut(r.URL.RawQuery, "&xor=")
	v, _, _ := strings.Cut(rest, "&")
	digits, ok := strings.CutPrefix(raw, "since=")
	if ok && digits != "" && strings.Trim(digits, "0123456789") == "" && !strings.ContainsAny(v, "%+;") {
		raw, optIn = digits, optInLevels[v]
	} else {
		q := r.URL.Query()
		if raw, optIn = q.Get("since"), optInLevels[q.Get("xor")]; raw == "" {
			return -1, optIn, nil
		}
	}
	if since, err = strconv.Atoi(raw); err != nil || since < 0 {
		return 0, optInNone, fmt.Errorf("bad since %q: %w", raw, core.ErrBadCheckin)
	}
	return since, optIn, nil
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
// in bodies by form. A client that opted in with xor=2 and is current on
// a task still learning gets 204 No Content instead of the empty delta:
// no buffer, no header map, observed as an empty form of 0 bytes. Errors
// flow through writeError — the JSON envelope, which a binary client
// tells apart by Content-Type — and an encoder that refuses (a
// non-finite parameter has no JSON form) fails before anything is
// written: 500, never a 200 with half a body.
func serveCheckout(w http.ResponseWriter, r *http.Request, be deviceBackend, deviceID string, co, bodies *telemetry.Stages) {
	binary := negotiate(r)
	since, optIn := -1, optInNone
	if binary {
		// Absent means a full frame; a malformed value is the client's
		// error: 400.
		var err error
		if since, optIn, err = sinceParam(r); err != nil {
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
	if optIn == optInBodyless && d.Since == d.Version && d.Base == nil && !d.Done {
		d.Release()
		co.Lap(core.StageEncode, start)
		bodies.Observe(core.FormEmpty, 0)
		w.WriteHeader(http.StatusNoContent)
		return
	}
	buf, contentType, form := getBuf(), "application/json", core.FormJSON
	defer buf.put()
	if binary {
		buf.b = wirecodec.AppendDelta(buf.b, d.Base, d.Params, d.Version, d.Done, d.Since, optIn != optInNone)
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
// Once it has been applied, its decode stage is observed in ci and its
// body's size in bodies, by codec.
func serveCheckin(w http.ResponseWriter, r *http.Request, be deviceBackend, deviceID string, ci, bodies *telemetry.Stages) {
	start := ci.Start()
	sc := checkinScratches.Get().(*checkinScratch)
	form := core.CheckinFormJSON
	if negotiate(r) {
		form = core.CheckinFormBinary
	}
	req, n, err := decodeCheckin(r, form == core.CheckinFormBinary, sc)
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
	bodies.Observe(form, float64(n))
	w.WriteHeader(http.StatusNoContent)
}

// decodeCheckin reads a checkin body and decodes it, as a frame when
// binary, into sc; the request it returns aliases sc, and n is the
// body's length. Every malformed payload — bad JSON, a truncated or
// corrupted frame, the wrong frame kind — wraps core.ErrBadCheckin, so
// the handler's error mapping yields 400, never 500. JSON the hot-path
// parser declines is json.Unmarshal's, as every JSON body used to be:
// what it accepts and how its errors read did not change.
func decodeCheckin(r *http.Request, binary bool, sc *checkinScratch) (req *core.CheckinRequest, n int, err error) {
	buf, err := readAllPooled(http.MaxBytesReader(nil, r.Body, wirecodec.MaxPayload))
	defer buf.put()
	if err != nil {
		return nil, 0, fmt.Errorf("read checkin body: %v: %w", err, core.ErrBadCheckin)
	}
	n, fr := len(buf.b), &sc.fr
	if binary {
		if err := wirecodec.DecodeInto(fr, buf.b); err != nil {
			return nil, n, fmt.Errorf("%v: %w", err, core.ErrBadCheckin)
		}
		if fr.Kind != wirecodec.KindCheckin {
			return nil, n, fmt.Errorf("frame kind %d is not a checkin: %w", fr.Kind, core.ErrBadCheckin)
		}
	} else if !wirecodec.ParseCheckinJSON(buf.b, fr) {
		req = new(core.CheckinRequest)
		if err := json.Unmarshal(buf.b, req); err != nil {
			return nil, n, fmt.Errorf("bad JSON: %v: %w", err, core.ErrBadCheckin)
		}
		return req, n, nil
	}
	sc.req = core.CheckinRequest{
		Grad:        fr.Values,
		NumSamples:  fr.NumSamples,
		ErrCount:    fr.ErrCount,
		LabelCounts: fr.LabelCounts,
		Version:     fr.Version,
	}
	return &sc.req, n, nil
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
// XOR deltas and a bodyless answer welcome, when there is one — and
// decodes the answer by its Content-Type, so negotiation can never
// strand the client: a server (or proxy) that ignores the Accept header
// answers JSON and is read as JSON. What a delta client is served
// becomes its next base without a copy: a full or XOR frame's decoded
// vector is adopted (base XORed in), a 204 or an empty delta re-serves
// base's, and only a sparse delta that changes something builds a new
// one. retry=true means a delta was unusable — wrong base, or it does
// not decode or apply — and the caller should refetch a full frame.
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
			url += "?since=" + strconv.Itoa(since) + "&xor=2"
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
	if resp.StatusCode == http.StatusNoContent {
		// Nothing changed since base, so there is nothing to decode. A
		// request that named no base has no model to re-serve.
		if base == nil {
			return nil, false, fmt.Errorf("transport: checkout answered %d without a base to re-serve", resp.StatusCode)
		}
		return &core.CheckoutResponse{Params: base.params, Version: base.version}, false, nil
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
