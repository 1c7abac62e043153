package transport

import (
	"bytes"
	"context"
	"fmt"
	"mime"
	"net/http"
	"strconv"
	"strings"
	"sync"

	"github.com/crowdml/crowdml/internal/core"
	"github.com/crowdml/crowdml/internal/wirecodec"
)

// ContentTypeBinary is the negotiated media type of the binary wire
// protocol (internal/wirecodec, docs/WIRE.md). A checkout request opts
// in with "Accept: application/x-crowdml-bin" (append ";compress=flate"
// to also ask for compressed frames); a checkin opts in by POSTing its
// frame under this Content-Type. JSON remains the default: requests
// that do not ask get exactly the pre-existing behavior, and error
// responses are ALWAYS the JSON envelope regardless of negotiation.
const ContentTypeBinary = "application/x-crowdml-bin"

// wireCompressFlate is the Accept parameter requesting flate frames.
const wireCompressFlate = "flate"

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

// acceptsBinary inspects the request's Accept header for the binary
// media type. Unknown or absent Accept values fall back to JSON — an
// old client can never receive a frame it does not understand.
func acceptsBinary(r *http.Request) (ok, compress bool) {
	for _, part := range strings.Split(r.Header.Get("Accept"), ",") {
		mt, params, err := mime.ParseMediaType(strings.TrimSpace(part))
		if err != nil {
			continue
		}
		if mt == ContentTypeBinary {
			ok = true
			if params["compress"] == wireCompressFlate {
				compress = true
			}
		}
	}
	return ok, compress
}

// isBinaryContentType reports whether a header value names the binary
// media type (parameters ignored — the frame's own flag governs
// compression).
func isBinaryContentType(ct string) bool {
	mt, _, err := mime.ParseMediaType(ct)
	return err == nil && mt == ContentTypeBinary
}

// wireBufs pools frame-encode buffers (responses server-side, checkin
// bodies client-side). Oversized buffers are dropped rather than pooled
// so one giant model does not pin memory forever.
var wireBufs = sync.Pool{New: func() any { b := make([]byte, 0, 4096); return &b }}

const maxPooledWireBuf = 1 << 20

func putWireBuf(bp *[]byte, b []byte) {
	if cap(b) <= maxPooledWireBuf {
		*bp = b[:0]
		wireBufs.Put(bp)
	}
}

// deltaCheckoutServer is the read surface both a plain task server and
// the sharded router implement; the handler serves every binary
// checkout — full or delta — through it.
type deltaCheckoutServer interface {
	CheckoutDelta(ctx context.Context, deviceID, token string, since int) (*core.ParamDelta, error)
}

var (
	_ deltaCheckoutServer = (*core.Server)(nil)
)

// parseSince extracts the delta base from ?since=N; absent means -1
// (full frame). A malformed value is the client's error: 400.
func parseSince(r *http.Request) (int, error) {
	raw := r.URL.Query().Get("since")
	if raw == "" {
		return -1, nil
	}
	since, err := strconv.Atoi(raw)
	if err != nil || since < 0 {
		return 0, fmt.Errorf("bad since %q: %w", raw, core.ErrBadCheckin)
	}
	return since, nil
}

// serveBinaryCheckout answers a binary-negotiated checkout from any
// delta-capable read surface. Errors still flow through writeError —
// the JSON envelope — which the client distinguishes by Content-Type.
func (h *Handler) serveBinaryCheckout(w http.ResponseWriter, r *http.Request, srv deltaCheckoutServer, compress bool) {
	since, err := parseSince(r)
	if err != nil {
		writeError(w, err)
		return
	}
	d, err := srv.CheckoutDelta(r.Context(),
		r.Header.Get(headerDeviceID), r.Header.Get(headerToken), since)
	if err != nil {
		writeError(w, err)
		return
	}
	writeBinaryCheckout(w, d, compress)
}

// writeBinaryCheckout encodes a ParamDelta into a pooled buffer and
// writes it: the zero-copy full frame when no delta base matched, the
// smaller of the sparse/dense delta forms otherwise.
func writeBinaryCheckout(w http.ResponseWriter, d *core.ParamDelta, compress bool) {
	bp := wireBufs.Get().(*[]byte)
	b := wirecodec.AppendCheckout((*bp)[:0], d.Params, d.Version, d.Done, d.Since, d.Indices, d.Values, compress)
	w.Header().Set("Content-Type", ContentTypeBinary)
	w.Header().Set("Content-Length", strconv.Itoa(len(b)))
	_, _ = w.Write(b)
	putWireBuf(bp, b)
}

// decodeCheckinBody decodes a checkin request by its Content-Type:
// binary frames when the client POSTed ContentTypeBinary, the original
// JSON body otherwise. Every malformed payload — bad JSON, a truncated
// or corrupted frame, the wrong frame kind — wraps core.ErrBadCheckin,
// so the handler's error mapping yields 400, never 500.
func decodeCheckinBody(r *http.Request) (*core.CheckinRequest, error) {
	body := http.MaxBytesReader(nil, r.Body, 64<<20)
	if !isBinaryContentType(r.Header.Get("Content-Type")) {
		var req core.CheckinRequest
		if err := decodeJSON(body, &req); err != nil {
			return nil, fmt.Errorf("bad JSON: %v: %w", err, core.ErrBadCheckin)
		}
		return &req, nil
	}
	raw, release, err := readAllPooled(body)
	if err != nil {
		release()
		return nil, fmt.Errorf("read checkin frame: %v: %w", err, core.ErrBadCheckin)
	}
	fr, err := wirecodec.Decode(raw)
	release()
	if err != nil {
		return nil, fmt.Errorf("%v: %w", err, core.ErrBadCheckin)
	}
	if fr.Kind != wirecodec.KindCheckin {
		return nil, fmt.Errorf("frame kind %d is not a checkin: %w", fr.Kind, core.ErrBadCheckin)
	}
	return &core.CheckinRequest{
		Grad:        fr.Values,
		NumSamples:  fr.NumSamples,
		ErrCount:    fr.ErrCount,
		LabelCounts: fr.LabelCounts,
		Version:     fr.Version,
	}, nil
}

// --- client side ---

// deltaCache is the client's base for delta checkouts: a private copy
// of the last parameters it saw and their iteration. It is a pointer
// field on HTTPClient so the WithRetry/With* copies share one cache
// (same task, same model); WithTask allocates a fresh one.
type deltaCache struct {
	mu      sync.Mutex
	params  []float64
	version int
	valid   bool
}

func (dc *deltaCache) base() (int, bool) {
	dc.mu.Lock()
	defer dc.mu.Unlock()
	return dc.version, dc.valid
}

func (dc *deltaCache) drop() {
	dc.mu.Lock()
	dc.valid = false
	dc.params = nil
	dc.mu.Unlock()
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
		cp.delta = &deltaCache{}
	}
	return &cp
}

// WithWireFlate returns a copy that additionally asks the server to
// flate-compress its binary frames and compresses its own checkin
// frames. Only meaningful combined with WireBinary/WireBinaryDelta.
func (c *HTTPClient) WithWireFlate() *HTTPClient {
	cp := *c
	cp.wireFlate = true
	return &cp
}

// Wire returns the client's negotiated wire format.
func (c *HTTPClient) Wire() WireFormat { return c.wire }

// acceptValue is the Accept header the client sends on binary checkouts.
func (c *HTTPClient) acceptValue() string {
	if c.wireFlate {
		return ContentTypeBinary + ";compress=" + wireCompressFlate
	}
	return ContentTypeBinary
}

// checkoutBinary is the binary/delta checkout flow. A response that is
// not the binary media type (an old server, a proxy) falls back to the
// JSON decoding, so negotiation can never strand the client; a delta
// whose base no longer matches the cache drops it and refetches one
// full frame.
func (c *HTTPClient) checkoutBinary(ctx context.Context, deviceID, token string) (*core.CheckoutResponse, error) {
	since := -1
	if c.delta != nil {
		if v, ok := c.delta.base(); ok {
			since = v
		}
	}
	resp, retry, err := c.checkoutBinaryOnce(ctx, deviceID, token, since)
	if retry {
		// Stale or mismatched delta base: one full refetch resynchronizes.
		if c.delta != nil {
			c.delta.drop()
		}
		resp, _, err = c.checkoutBinaryOnce(ctx, deviceID, token, -1)
	}
	return resp, err
}

// checkoutBinaryOnce performs one negotiated checkout round trip.
// retry=true means the delta base was rejected and the caller should
// refetch a full frame.
func (c *HTTPClient) checkoutBinaryOnce(ctx context.Context, deviceID, token string, since int) (*core.CheckoutResponse, bool, error) {
	hdr := http.Header{}
	hdr.Set(headerDeviceID, deviceID)
	hdr.Set(headerToken, token)
	hdr.Set("Accept", c.acceptValue())
	url := c.endpoint(PathCheckout)
	if since >= 0 {
		url += "?since=" + strconv.Itoa(since)
	}
	resp, err := c.doGET(ctx, url, hdr)
	if err != nil {
		return nil, false, fmt.Errorf("transport: checkout: %w", err)
	}
	defer resp.Body.Close()
	if err := checkStatus(resp); err != nil {
		// Errors are always the JSON envelope; checkStatus already read
		// it — the binary decoder below never sees an error body.
		return nil, false, err
	}
	if !isBinaryContentType(resp.Header.Get("Content-Type")) {
		// The server answered 2xx but not in our format: decode as JSON
		// rather than feeding the frame decoder something it never was.
		var out core.CheckoutResponse
		if err := decodeJSON(resp.Body, &out); err != nil {
			return nil, false, fmt.Errorf("transport: decode checkout: %w", err)
		}
		return &out, false, nil
	}
	raw, release, err := readAllPooled(resp.Body)
	if err != nil {
		release()
		return nil, false, fmt.Errorf("transport: read checkout frame: %w", err)
	}
	fr, err := wirecodec.Decode(raw)
	release()
	if err != nil {
		return nil, false, fmt.Errorf("transport: decode checkout: %w", err)
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
		if fr.Sparse {
			c.delta.mu.Lock()
			if !c.delta.valid || c.delta.version != fr.Since || len(c.delta.params) != fr.Dims {
				c.delta.mu.Unlock()
				return nil, true, fmt.Errorf("transport: no delta base for iteration %d", fr.Since)
			}
			params, err = wirecodec.ApplyDelta(c.delta.params, fr)
			c.delta.mu.Unlock()
		} else {
			params, err = wirecodec.ApplyDelta(nil, fr)
		}
		if err != nil {
			return nil, false, fmt.Errorf("transport: apply delta: %w", err)
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
		// The cache keeps its own copy; the caller owns the returned
		// slice, exactly like the JSON path.
		c.delta.mu.Lock()
		c.delta.params = append(c.delta.params[:0], params...)
		c.delta.version = fr.Version
		c.delta.valid = true
		c.delta.mu.Unlock()
	}
	return &core.CheckoutResponse{Params: params, Version: fr.Version, Done: fr.Done}, false, nil
}

// checkinBinary POSTs the checkin as one binary frame. Error responses
// stay JSON server-side; checkStatus reads them as usual.
func (c *HTTPClient) checkinBinary(ctx context.Context, deviceID, token string, body *core.CheckinRequest) error {
	bp := wireBufs.Get().(*[]byte)
	b := wirecodec.AppendCheckin((*bp)[:0], body.Grad, body.Version, body.NumSamples, body.ErrCount, body.LabelCounts, c.wireFlate)
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.endpoint(PathCheckin), bytes.NewReader(b))
	if err != nil {
		putWireBuf(bp, b)
		return fmt.Errorf("transport: build checkin: %w", err)
	}
	req.Header.Set("Content-Type", ContentTypeBinary)
	req.Header.Set(headerDeviceID, deviceID)
	req.Header.Set(headerToken, token)
	resp, err := c.client.Do(req)
	putWireBuf(bp, b)
	if err != nil {
		return fmt.Errorf("transport: checkin: %w", err)
	}
	defer resp.Body.Close()
	return checkStatus(resp)
}

// Sharded tasks: the handler serves their binary checkouts via the
// router's CheckoutDelta (shard.Group implements deltaCheckoutServer
// over its merged-view ring); a mounted router that lacks the method
// degrades to full binary frames built from its plain Checkout — see
// shardedCheckout.
