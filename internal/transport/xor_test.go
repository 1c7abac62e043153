package transport

import (
	"bufio"
	"context"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"github.com/crowdml/crowdml/internal/core"
	"github.com/crowdml/crowdml/internal/hub"
	"github.com/crowdml/crowdml/internal/telemetry"
	"github.com/crowdml/crowdml/internal/wirecodec"
)

// nudgeLow returns a copy of base with k coordinates' bit patterns XORed
// with a random mask of 1–6 significant bytes: how a model that moves a
// little looks to an XOR delta.
func nudgeLow(r *rand.Rand, base []float64, k int) []float64 {
	cur := append([]float64(nil), base...)
	for _, i := range r.Perm(len(base))[:k] {
		l := 1 + r.Intn(6)
		mask := 1<<(8*l-1) | r.Uint64()&(1<<(8*l-1)-1)
		cur[i] = math.Float64frombits(math.Float64bits(cur[i]) ^ mask)
	}
	return cur
}

// TestXORDeltaOnlyWhenOptedIn: a checkout that does not opt in — which is
// every client released before XOR deltas — is only ever sent frames
// such a client decodes: kind full or delta, flags within {done,
// sparse}. The same pairs, opted in, are answered with XOR deltas where
// those are smallest, and applying each reproduces the server's vector.
func TestXORDeltaOnlyWhenOptedIn(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	xors := 0
	for round := 0; round < 40; round++ {
		n := 1 + r.Intn(200)
		base := mutate(r, make([]float64, n), n)
		cur := nudgeLow(r, base, r.Intn(n+1))
		be := newRingBackend(4, base)
		be.publish(1, cur)
		for _, q := range []string{"", "?since=0", "?since=1", "?since=9", "?since=0&x=1", "?since=0&xor=0", "?since=0&xor=yes"} {
			b := checkoutFrame(t, be, q, ContentTypeBinary)
			kind, flags := b[5], binary.LittleEndian.Uint16(b[6:])
			if (kind != wirecodec.KindFull && kind != wirecodec.KindDelta) || flags&^(wirecodec.FlagDone|wirecodec.FlagSparse) != 0 {
				t.Fatalf("n=%d %q: kind %d flags %#x sent without the opt-in", n, q, kind, flags)
			}
		}
		for _, q := range []string{"?since=0&xor=1", "?xor=1&since=0", "?since=%30&xor=1"} {
			fr, err := wirecodec.Decode(checkoutFrame(t, be, q, ContentTypeBinary))
			if err != nil {
				t.Fatal(err)
			}
			applied := fr.Values
			if fr.Kind == wirecodec.KindDelta {
				if fr.XOR {
					xors++
				}
				if applied, err = wirecodec.ApplyDelta(base, fr); err != nil {
					t.Fatal(err)
				}
			}
			if !bitEqual(applied, cur) {
				t.Fatalf("n=%d %q: the opted-in frame does not reproduce the server's vector", n, q)
			}
		}
	}
	if xors == 0 {
		t.Fatal("no opted-in checkout was answered with an XOR delta")
	}
}

// TestUndecodableDeltaRefetchesFull: a delta the client cannot decode or
// apply is "drop the cache, refetch full" (docs/WIRE.md), never a failed
// checkout. The handler answers every ?since= request with a bad delta —
// one carrying a flag bit no frame defines, an XOR delta for a vector of
// another length, or the dense delta servers before XOR deltas sent —
// and full requests normally.
func TestUndecodableDeltaRefetchesFull(t *testing.T) {
	reseal := func(b []byte) []byte {
		return binary.LittleEndian.AppendUint32(b[:len(b)-4], crc32.ChecksumIEEE(b[:len(b)-4]))
	}
	params := []float64{1, 2, 3}
	full := wirecodec.AppendFull(nil, params, 5, false)
	undefinedFlag := wirecodec.AppendDelta(nil, nil, params, 5, false, 5, true) // the empty delta
	undefinedFlag[7] |= 0x40
	undefinedFlag = reseal(undefinedFlag)
	longer := []float64{1, 2, 3, 4}
	wrongDims := wirecodec.AppendDelta(nil, longer, nudgeLow(rand.New(rand.NewSource(1)), longer, 4), 5, false, 5, true)
	dense := wirecodec.AppendFull(nil, params, 5, false)
	dense[5] = wirecodec.KindDelta
	binary.LittleEndian.PutUint64(dense[16:], 5)
	dense = reseal(dense)
	for name, delta := range map[string][]byte{"undefined flag": undefinedFlag, "xor for 4 dims": wrongDims, "dense": dense} {
		var queries []string
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			queries = append(queries, r.URL.RawQuery)
			w.Header().Set("Content-Type", ContentTypeBinary)
			if r.URL.Query().Has("since") {
				_, _ = w.Write(delta)
			} else {
				_, _ = w.Write(full)
			}
		}))
		cl := NewHTTPClient(ts.URL, nil).WithTask("t").WithWire(WireBinaryDelta)
		for i := 0; i < 2; i++ {
			co, err := cl.Checkout(context.Background(), "d", "t")
			if err != nil || co.Version != 5 || !bitEqual(co.Params, params) {
				t.Fatalf("%s: checkout %d = %+v, %v; want the full vector at 5", name, i, co, err)
			}
		}
		ts.Close()
		if want := []string{"", "since=5&xor=2", ""}; !reflect.DeepEqual(queries, want) {
			t.Errorf("%s: queries %q, want %q", name, queries, want)
		}
	}
}

// bodyBytes reads a body family's count and sum for one task and form
// off reg's exposition.
func bodyBytes(t *testing.T, reg *telemetry.Registry, family, task, form string) (count, sum float64) {
	t.Helper()
	rec := httptest.NewRecorder()
	reg.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, PathMetrics, nil))
	labels := fmt.Sprintf(`{task=%q,form=%q} `, task, form)
	for sc := bufio.NewScanner(rec.Body); sc.Scan(); {
		for suffix, v := range map[string]*float64{"_count": &count, "_sum": &sum} {
			if rest, ok := strings.CutPrefix(sc.Text(), family+suffix+labels); ok {
				n, err := strconv.ParseFloat(rest, 64)
				if err != nil {
					t.Fatal(err)
				}
				*v = n
			}
		}
	}
	return count, sum
}

// TestXORDeltaLoopback: two devices check in by turns, 200 times, over
// real HTTP, while a WireBinaryDelta client polls — after most checkins,
// so its base trails by one version or two. The model moves a little
// each step, as a trained one does, so the polls are answered with XOR
// deltas; at the end the client's snapshot is the server's parameters
// bit for bit, and the checkout body family shows the XOR form smaller
// than the full one.
func TestXORDeltaLoopback(t *testing.T) {
	const classes, dim = 10, 50
	reg := telemetry.NewRegistry()
	hd, srv := newHandler(t, classes, dim, hub.WithMetrics(reg))
	ts := httptest.NewServer(hd)
	defer ts.Close()
	ctx := context.Background()
	devices := NewHTTPClient(ts.URL, nil).WithTask("alpha").WithWire(WireBinary)
	poller := devices.WithWire(WireBinaryDelta)
	var tokens [2]string
	for d := range tokens {
		tokens[d], _ = srv.RegisterDevice(ctx, "d"+strconv.Itoa(d))
	}
	r := rand.New(rand.NewSource(31))
	req := &core.CheckinRequest{Grad: make([]float64, classes*dim), NumSamples: 1, LabelCounts: make([]int, classes)}
	co := &core.CheckoutResponse{}
	for i := 0; i < 200; i++ {
		if i%3 != 2 {
			var err error
			if co, err = poller.Checkout(ctx, "d0", tokens[0]); err != nil {
				t.Fatalf("poll %d: %v", i, err)
			}
		}
		scale := 1e-6
		if i == 0 {
			scale = 1
		}
		for j := range req.Grad {
			req.Grad[j] = scale * r.NormFloat64()
		}
		req.Version = co.Version
		if err := devices.Checkin(ctx, "d"+strconv.Itoa(i%2), tokens[i%2], req); err != nil {
			t.Fatalf("checkin %d: %v", i, err)
		}
	}
	co, err := poller.Checkout(ctx, "d0", tokens[0])
	if err != nil {
		t.Fatal(err)
	}
	view := srv.ParamView()
	defer view.Release()
	if co.Version != 200 || view.Version != 200 || !bitEqual(co.Params, view.Params) {
		t.Fatalf("client at %d, server at %d: snapshots differ", co.Version, view.Version)
	}
	n, sum := bodyBytes(t, reg, "crowdml_checkout_body_bytes", "alpha", "xor")
	if fullFrame := float64(wirecodec.HeaderLen + 8*classes*dim + 4); n < 100 || sum/n >= fullFrame {
		t.Fatalf("%.0f XOR deltas of %.0f bytes on average, want most polls and under the full frame's %.0f", n, sum/n, fullFrame)
	}
	t.Logf("%.0f XOR deltas, %.0f bytes on average", n, sum/n)
}
