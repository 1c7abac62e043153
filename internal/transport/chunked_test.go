package transport

import (
	"bytes"
	"context"
	"errors"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"testing"

	"github.com/crowdml/crowdml/internal/core"
	"github.com/crowdml/crowdml/internal/hub"
	"github.com/crowdml/crowdml/internal/invariants"
	"github.com/crowdml/crowdml/internal/store"
	"github.com/crowdml/crowdml/internal/wirecodec"
)

// wideCheckin is a checkin for a 10-class task over dim features whose
// gradient takes the full 17 significant digits on the JSON wire, as a
// Laplace-sanitized one does.
func wideCheckin(dim int) *core.CheckinRequest {
	grad := make([]float64, 10*dim)
	for i := range grad {
		grad[i] = math.Sin(float64(i+1)) / 1000
	}
	return &core.CheckinRequest{Grad: grad, NumSamples: 20, ErrCount: 3, LabelCounts: []int{2, 2, 2, 2, 2, 2, 2, 2, 2, 2}}
}

// serveLoopback puts hd behind a loopback server and registers device
// "d1" with srv, returning the server and d1's token.
func serveLoopback(t *testing.T, hd *Handler, srv *core.Server) (*httptest.Server, string) {
	t.Helper()
	token, err := srv.RegisterDevice(context.Background(), "d1")
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(hd)
	t.Cleanup(ts.Close)
	return ts, token
}

// TestPooledCheckinBodyIsNotCopied: a checkin leaves the device straight
// from its pooled buffer. Framed with a Content-Length, net/http copied
// every body through an io.Copy temporary (32 KB for a body this large)
// before writing a byte; sent chunked, it goes out through the body's
// own WriteTo. A warm checkin of a 10×2,000 model — past the snapshot
// ring's fill, so the server recycles its vectors — therefore allocates
// well under 16 KB in the whole process, client and server together.
func TestPooledCheckinBodyIsNotCopied(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops a quarter of its Puts under -race: the warm path is not reachable")
	}
	hd, srv := newHandler(t, 10, 2000)
	ts, token := serveLoopback(t, hd, srv)
	req := wideCheckin(2000)
	jsonCl := NewHTTPClient(ts.URL, nil).WithTask("alpha")
	for _, cl := range []*HTTPClient{jsonCl, jsonCl.WithWire(WireBinary)} {
		checkin := func() {
			if err := cl.Checkin(context.Background(), "d1", token, req); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i <= core.DefaultDeltaHistory; i++ {
			checkin()
		}
		got := bytesPerRun(20, checkin)
		t.Logf("%v: %.0f B per warm checkin", cl.Wire(), got)
		if got >= 16<<10 {
			t.Errorf("%v: a warm checkin allocated %.0f B, want < 16 KB (no copy of the body)", cl.Wire(), got)
		}
	}
	if srv.Iteration() == 0 {
		t.Fatal("no checkin was applied")
	}
}

// lengthRecorder is a RoundTripper that notes the ContentLength of the
// last request it carried.
type lengthRecorder struct{ got int64 }

func (r *lengthRecorder) RoundTrip(req *http.Request) (*http.Response, error) {
	r.got = req.ContentLength
	return http.DefaultTransport.RoundTrip(req)
}

// TestCheckinIsChunked: what the server receives is a chunked request
// whose body is byte for byte the encoder's output for the same checkin,
// while the request a caller's RoundTripper sees still carries the body's
// size in ContentLength.
func TestCheckinIsChunked(t *testing.T) {
	req := wideCheckin(50)
	wantJSON, err := wirecodec.AppendCheckinJSON(nil, req.Grad, req.Version, req.NumSamples, req.ErrCount, req.LabelCounts)
	if err != nil {
		t.Fatal(err)
	}
	wantBin := wirecodec.AppendCheckin(nil, req.Grad, req.Version, req.NumSamples, req.ErrCount, req.LabelCounts, false)

	var got *http.Request
	var body []byte
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		got = r
		body, _ = io.ReadAll(r.Body)
		w.WriteHeader(http.StatusNoContent)
	}))
	defer ts.Close()
	rec := &lengthRecorder{}
	jsonCl := NewHTTPClient(ts.URL, &http.Client{Transport: rec}).WithTask("alpha")
	for _, tc := range []struct {
		cl   *HTTPClient
		want []byte
	}{{jsonCl, wantJSON}, {jsonCl.WithWire(WireBinary), wantBin}} {
		if err := tc.cl.Checkin(context.Background(), "d1", "tok", req); err != nil {
			t.Fatal(err)
		}
		if got.ContentLength != -1 || !reflect.DeepEqual(got.TransferEncoding, []string{"chunked"}) {
			t.Errorf("%v: ContentLength %d, TransferEncoding %v; want -1, [chunked]", tc.cl.Wire(), got.ContentLength, got.TransferEncoding)
		}
		if !bytes.Equal(body, tc.want) {
			t.Errorf("%v: body of %d B differs from the encoder's %d B", tc.cl.Wire(), len(body), len(tc.want))
		}
		if rec.got != int64(len(tc.want)) {
			t.Errorf("%v: the RoundTripper saw ContentLength %d, want the body's %d B", tc.cl.Wire(), rec.got, len(tc.want))
		}
	}
}

// TestRedirectedCheckinResendsBody: a checkin that meets a 307 is sent
// again from GetBody, which reopens the same pooled buffer. Through a
// front that redirects every request, the leader applies it once, and
// its parameters and journal are those of a checkin sent directly.
func TestRedirectedCheckinResendsBody(t *testing.T) {
	ctx := context.Background()
	for _, wire := range []WireFormat{WireJSON, WireBinary} {
		directStore, leaderStore := store.NewMemStore(), store.NewMemStore()
		directHd, directSrv := newHandler(t, 10, 50, hub.WithStore(directStore))
		leaderHd, leaderSrv := newHandler(t, 10, 50, hub.WithStore(leaderStore))
		direct, directToken := serveLoopback(t, directHd, directSrv)
		leader, leaderToken := serveLoopback(t, leaderHd, leaderSrv)
		front := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			http.Redirect(w, r, leader.URL+r.URL.RequestURI(), http.StatusTemporaryRedirect)
		}))
		defer front.Close()

		req := wideCheckin(50)
		if err := NewHTTPClient(direct.URL, nil).WithTask("alpha").WithWire(wire).Checkin(ctx, "d1", directToken, req); err != nil {
			t.Fatal(err)
		}
		if err := NewHTTPClient(front.URL, nil).WithTask("alpha").WithWire(wire).Checkin(ctx, "d1", leaderToken, req); err != nil {
			t.Fatalf("%v: redirected checkin: %v", wire, err)
		}
		if it := leaderSrv.Iteration(); it != 1 {
			t.Fatalf("%v: leader at iteration %d after one redirected checkin", wire, it)
		}
		if err := invariants.Same(leaderSrv.ExportState(), directSrv.ExportState()); err != nil {
			t.Errorf("%v: redirected vs direct state: %v", wire, err)
		}
		if got, want := journalOf(t, leaderStore), journalOf(t, directStore); !reflect.DeepEqual(got, want) {
			t.Errorf("%v: redirected journal %+v, direct %+v", wire, got, want)
		}
	}
}

// journalOf reads st's whole journal, each entry's wall-clock stamp
// cleared.
func journalOf(t *testing.T, st store.Store) []store.JournalEntry {
	t.Helper()
	cur, err := st.OpenCursor(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Close()
	var out []store.JournalEntry
	for {
		e, err := cur.Next()
		if errors.Is(err, io.EOF) {
			return out
		}
		if err != nil {
			t.Fatal(err)
		}
		e.AtUnixMillis = 0
		// Entries share the cursor's memory until its next Next.
		e.Grad, e.LabelCounts = slices.Clone(e.Grad), slices.Clone(e.LabelCounts)
		out = append(out, e)
	}
}
