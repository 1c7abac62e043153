package transport

import (
	"bytes"
	"context"
	"errors"
	"hash/fnv"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/crowdml/crowdml/internal/core"
	"github.com/crowdml/crowdml/internal/wirecodec"
)

// ringBackend is a deviceBackend that publishes whatever vectors a test
// hands it — ±0 flips and NaN payloads included, which no SGD step
// produces on demand — through the same core.SnapshotRing a Server and a
// shard.Group answer delta checkouts from.
type ringBackend struct {
	ring *core.SnapshotRing
	// published keeps every vector ever published, by version: what a
	// client's copy of that version must equal bit for bit.
	published sync.Map
}

func newRingBackend(initial []float64) *ringBackend {
	b := &ringBackend{ring: core.NewSnapshotRing(nil)}
	b.publish(0, initial)
	return b
}

func (b *ringBackend) publish(version int, params []float64) {
	b.published.Store(version, params)
	b.ring.PublishCopy(version, params)
}

func (b *ringBackend) CheckoutDelta(_ context.Context, _, _ string, since int) (core.ParamDelta, error) {
	return b.ring.Delta(since, false), nil
}

func (b *ringBackend) Checkin(context.Context, string, string, *core.CheckinRequest) error {
	return core.ErrStopped
}

func (b *ringBackend) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	serveCheckout(w, r, b, r.Header.Get(headerDeviceID), nil, nil)
}

// oddFloats is the corpus a bit-exact delta path has to carry: both
// zeros, NaNs that differ only in payload, infinities, denormals.
var oddFloats = []float64{
	0, math.Copysign(0, -1), math.NaN(), math.Float64frombits(0x7ff8000000000001),
	math.Float64frombits(0xfff8000000beef00), math.Inf(1), math.Inf(-1),
	math.SmallestNonzeroFloat64, -math.MaxFloat64, 1, -1,
}

// mutate returns a copy of base with k coordinates changed bitwise,
// every third of them to a value from oddFloats.
func mutate(r *rand.Rand, base []float64, k int) []float64 {
	cur := append([]float64(nil), base...)
	for n, i := range r.Perm(len(base))[:k] {
		v := r.NormFloat64()
		if n%3 == 0 {
			v = oddFloats[r.Intn(len(oddFloats))]
		}
		if math.Float64bits(v) == math.Float64bits(cur[i]) {
			v = float64(n) + 0.5
		}
		cur[i] = v
	}
	return cur
}

func hashParams(p []float64) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, v := range p {
		bits := math.Float64bits(v)
		for i := range b {
			b[i] = byte(bits >> (8 * i))
		}
		h.Write(b[:])
	}
	return h.Sum64()
}

// TestDeltaClientSnapshotsAreImmutable: a WireBinaryDelta client hands
// every caller its cached vector itself, so nothing may ever write one
// again — not a later sparse delta applied on top of it, not a decode
// into a recycled buffer. Four goroutines share one client while the
// model keeps moving (nothing, a few, most or all coordinates at a time,
// and past the bases the ring keeps, so empty, sparse and dense deltas
// and full fallbacks all occur): every vector they were ever handed equals the
// server's snapshot of its version bit for bit, and still hashes at the
// end to what it hashed to when it arrived. Run under -race.
func TestDeltaClientSnapshotsAreImmutable(t *testing.T) {
	const dims, versions, readers = 240, 300, 4
	r := rand.New(rand.NewSource(15))
	be := newRingBackend(mutate(r, make([]float64, dims), dims))
	ts := httptest.NewServer(be)
	defer ts.Close()
	cl := NewHTTPClient(ts.URL, nil).WithTask("ring").WithWire(WireBinaryDelta)

	type handed struct {
		params  []float64
		version int
		hash    uint64
	}
	var (
		wg   sync.WaitGroup
		done atomic.Bool
		held [readers][]handed
		// polled paces the publisher: readers drop a token in after each
		// poll (never blocking on it), a version costs three.
		polled = make(chan struct{}, 3)
	)
	ctx := context.Background()
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for last := false; !last; {
				last = done.Load() // one more poll after the final publish
				co, err := cl.Checkout(ctx, "d", "t")
				if err != nil {
					t.Errorf("reader %d: %v", g, err)
					return
				}
				want, _ := be.published.Load(co.Version)
				if !bitEqual(co.Params, want.([]float64)) {
					t.Errorf("reader %d: version %d differs from the server's snapshot", g, co.Version)
					return
				}
				held[g] = append(held[g], handed{co.Params, co.Version, hashParams(co.Params)})
				select {
				case polled <- struct{}{}:
				default:
				}
			}
		}(g)
	}
	gone := make(chan struct{})
	go func() { wg.Wait(); close(gone) }()
	cur, _ := be.published.Load(0)
	for v := 1; v <= versions; v++ {
		k := []int{0, 1, 7, dims/2 + 1, 2 * dims / 3, dims}[r.Intn(6)]
		next := mutate(r, cur.([]float64), k)
		be.publish(v, next)
		cur = next
		// Three polls per version across four readers: bases trail by a
		// version or two, sometimes past the depth the ring keeps.
		for i := 0; i < 3; i++ {
			select {
			case <-polled:
			case <-gone: // every reader failed out
			}
		}
	}
	done.Store(true)
	wg.Wait()

	seen := map[int]bool{}
	for g := range held {
		if n := len(held[g]); n == 0 || held[g][n-1].version != versions {
			t.Errorf("reader %d never saw the final version", g)
		}
		for _, h := range held[g] {
			seen[h.version] = true
			if hashParams(h.params) != h.hash {
				t.Fatalf("reader %d: the vector handed out for version %d was written afterwards", g, h.version)
			}
		}
	}
	if len(seen) < versions/2 {
		t.Errorf("readers saw only %d of %d versions: the model did not move under them", len(seen), versions)
	}
}

func bitEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// referenceDiffParams is the allocating two-pass diff the handler used to
// be handed ready-made (core.DiffParams), kept as what the change set a
// sparse delta carries is checked against.
func referenceDiffParams(base, cur []float64) ([]uint32, []float64) {
	changed := 0
	for i := range cur {
		if math.Float64bits(cur[i]) != math.Float64bits(base[i]) {
			changed++
		}
	}
	indices := make([]uint32, 0, changed)
	values := make([]float64, 0, changed)
	for i := range cur {
		if math.Float64bits(cur[i]) != math.Float64bits(base[i]) {
			indices = append(indices, uint32(i))
			values = append(values, cur[i])
		}
	}
	return indices, values
}

// checkoutFrame is one binary checkout through the handler in memory,
// asked for with the given Accept value.
func checkoutFrame(t *testing.T, h http.Handler, query, accept string) []byte {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, taskPath("ring", "checkout")+query, nil)
	req.Header.Set("Accept", accept)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK || !isBinaryContentType(rec.Header().Get("Content-Type")) {
		t.Fatalf("checkout%s: status %d, Content-Type %q", query, rec.Code, rec.Header().Get("Content-Type"))
	}
	return rec.Body.Bytes()
}

// TestDeltaFramesByteIdentical: encoding straight from the base changed
// where the diff is computed, not what a client that did not opt in to
// XOR deltas is sent. Over random (base, cur) pairs with none, a few, one
// short of the sparse/full break-even (⅔·n), exactly ⅔·n and all
// coordinates changed, the handler serves the encoder's frame: below the
// break-even a sparse delta carrying exactly the reference diff, from it
// on the full frame (no longer a dense delta). A base the ring does not
// hold is still answered by the full frame. An old client's
// ";compress=flate" Accept parameter is ignored: it gets the same bytes.
func TestDeltaFramesByteIdentical(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	for round := 0; round < 12; round++ {
		n := 3 * (1 + r.Intn(120)) // a multiple of 3: ⅔·n is exact
		for _, k := range []int{0, min(3, n), 2*n/3 - 1, 2 * n / 3, n} {
			base := mutate(r, make([]float64, n), n)
			cur := mutate(r, base, k)
			be := newRingBackend(base)
			be.publish(1, cur)
			idx, vals := referenceDiffParams(base, cur)
			if len(idx) != k {
				t.Fatalf("n=%d: mutate changed %d coordinates, want %d", n, len(idx), k)
			}
			for _, accept := range []string{ContentTypeBinary, ContentTypeBinary + ";compress=flate"} {
				got := checkoutFrame(t, be, "?since=0", accept)
				if want := wirecodec.AppendDelta(nil, base, cur, 1, false, 0, false); !bytes.Equal(got, want) {
					t.Fatalf("n=%d changed=%d Accept %q: handler's frame differs from AppendDelta's", n, k, accept)
				}
				fr, err := wirecodec.Decode(got)
				if err != nil {
					t.Fatal(err)
				}
				if wantSparse := 3*k < 2*n; (fr.Kind == wirecodec.KindDelta) != wantSparse || fr.Sparse != wantSparse {
					t.Fatalf("n=%d changed=%d: kind %d sparse %v, want sparse %v (else full)", n, k, fr.Kind, fr.Sparse, wantSparse)
				}
				if fr.Sparse && (!reflect.DeepEqual(fr.Indices, idx) || !bitEqual(fr.Values, vals)) {
					t.Fatalf("n=%d changed=%d: the sparse delta is not the reference diff", n, k)
				}
				applied, err := fr.Values, error(nil)
				if fr.Kind == wirecodec.KindDelta {
					applied, err = wirecodec.ApplyDelta(base, fr)
				}
				if err != nil || !bitEqual(applied, cur) {
					t.Fatalf("n=%d changed=%d: applying the frame does not reproduce cur (%v)", n, k, err)
				}
				for _, q := range []string{"", "?since=7", "?since=2"} {
					if got, want := checkoutFrame(t, be, q, accept), wirecodec.AppendFull(nil, cur, 1, false); !bytes.Equal(got, want) {
						t.Fatalf("n=%d %q: not the full frame", n, q)
					}
				}
			}
		}
	}
}

// TestSinceParamMatchesQueryParsing: reading "since=<digits>" in place
// is an optimisation of url.Values, not a second grammar — every query
// string gets the value, or the refusal, the general parser gives it,
// whatever xor parameter it carries.
func TestSinceParamMatchesQueryParsing(t *testing.T) {
	viaValues := func(rawQuery string) (int, bool) {
		q, _ := url.ParseQuery(rawQuery)
		raw := q.Get("since")
		if raw == "" {
			return -1, true
		}
		n, err := strconv.Atoi(raw)
		return n, err == nil && n >= 0
	}
	for _, rawQuery := range []string{
		"", "since=0", "since=7", "since=0042", "since=9223372036854775807", "since=9223372036854775808",
		"since=", "since=-1", "since=+1", "since=%31", "since=1%30", "since=abc", "since=1e9", "since=1.0",
		"since=1&x=2", "x=2&since=3", "since=1&since=2", "since=1;x", "Since=1", "since=１", "since= 1", "sinc=1",
		"since=4&xor=1", "xor=1&since=4", "since=4&xor=0", "since=4&xor=1&x=2", "since=4&xor=1&xor=1",
		"since=4&xor=2&xor=1", "since=4&XOR=1", "since=&xor=1", "since=abc&xor=1", "&xor=1", "xor=1", "since=4&&xor=1",
		"since=4&xor=2", "xor=2&since=4", "since=4&xor=3", "since=4&xor=", "since=4&xor=22", "since=4&xor=%32", "since=4&xor=2;x",
		"since=4&xor=+2", "since=4&xor=2&x=1", "since=4&xor=1&xor=2", "since=4&xor=3&xor=2", "since=4&xor=2&xor=3",
		"since=4&xor=2&xor=%zz", "since=4&xor=2&since=5", "since=&xor=2", "since=-1&xor=2", "xor=2", "XOR=2&since=4",
	} {
		want, ok := viaValues(rawQuery)
		got, err := sinceParam(&http.Request{URL: &url.URL{RawQuery: rawQuery}})
		switch {
		case !ok && err == nil:
			t.Errorf("%q: accepted as %d, url.Values refuses it", rawQuery, got)
		case ok && (err != nil || got != want):
			t.Errorf("%q: got %d, %v; want %d", rawQuery, got, err, want)
		case !ok && !errors.Is(err, core.ErrBadCheckin):
			t.Errorf("%q: refusal %v does not map to 400", rawQuery, err)
		}
	}
	for _, rawQuery := range []string{
		"",             // every JSON checkout
		"since=123456", // every delta poll
	} {
		r := &http.Request{URL: &url.URL{RawQuery: rawQuery}}
		if n := testing.AllocsPerRun(20, func() { _, _ = sinceParam(r) }); n != 0 {
			t.Errorf("%s allocated %v times", rawQuery, n)
		}
	}
}

// bytesPerRun is testing.AllocsPerRun for bytes: the mean heap bytes one
// call of f allocates, on one P, after a warm-up call.
func bytesPerRun(runs int, f func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}

// cannedTransport answers every request with one prepared binary frame,
// so what a poll allocates is the client's doing alone.
type cannedTransport struct{ frame []byte }

func (c cannedTransport) RoundTrip(*http.Request) (*http.Response, error) {
	return &http.Response{
		StatusCode: http.StatusOK,
		Header:     http.Header{"Content-Type": {ContentTypeBinary}},
		Body:       io.NopCloser(bytes.NewReader(c.frame)),
	}, nil
}

// TestDeltaPathAllocations pins what the delta path is for: what a poll
// allocates depends on what changed, never on the size of the model. A
// warm delta checkout through the handler allocates nothing near one
// vector (8·dims bytes) whether none, a tenth or all of the coordinates
// moved; a client poll answered by an empty delta likewise, and returns
// the cached vector itself; a poll answered by a sparse or a dense delta
// allocates exactly one vector — the next snapshot — plus, for the
// sparse one, the decoded change set.
func TestDeltaPathAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops a quarter of its Puts under -race: the warm path is not reachable")
	}
	const dims, vector = 1960, 8 * 1960
	r := rand.New(rand.NewSource(9))
	base := mutate(r, make([]float64, dims), dims)
	for _, tc := range []struct {
		name    string
		changed int
	}{{"unchanged", 0}, {"sparse 10%", dims / 10}, {"dense", dims}} {
		cur := mutate(r, base, tc.changed)
		be := newRingBackend(base)
		be.publish(1, cur)

		req := httptest.NewRequest(http.MethodGet, taskPath("ring", "checkout")+"?since=0", nil)
		req.Header.Set("Accept", ContentTypeBinary)
		w := &nullWriter{header: http.Header{}}
		// A bound that knows neither dims nor the change set: headers, the
		// ParamDelta, Accept parsing (a tenth of the model moved is 2.3 KB
		// of index/value pairs, all of it 23 KB).
		if got := bytesPerRun(50, func() { be.ServeHTTP(w, req) }); got >= 1024 {
			t.Errorf("handler, %s: %.0f B per checkout, want a model-independent few hundred", tc.name, got)
		}

		// The client polls from version 0 every time: its cache is put
		// back to the base before each poll.
		frame := checkoutFrame(t, be, "?since=0", ContentTypeBinary)
		cl := NewHTTPClient("http://mem.invalid", &http.Client{Transport: cannedTransport{frame}}).WithTask("ring").WithWire(WireBinaryDelta)
		start := &clientSnapshot{params: base, version: 0}
		var co *core.CheckoutResponse
		got := bytesPerRun(50, func() {
			cl.delta.Store(start)
			var err error
			if co, err = cl.Checkout(context.Background(), "d", "t"); err != nil {
				t.Fatal(err)
			}
		})
		if co.Version != 1 || !bitEqual(co.Params, cur) {
			t.Fatalf("client, %s: poll did not arrive at version 1's snapshot", tc.name)
		}
		if tc.changed == 0 {
			if got >= vector/4 || &co.Params[0] != &base[0] {
				t.Errorf("client, %s: %.0f B per poll, cached vector re-served: %v", tc.name, got, &co.Params[0] == &base[0])
			}
		} else if got < vector || got >= vector*3/2 {
			t.Errorf("client, %s: %.0f B per poll, want one vector (%d B) and small change", tc.name, got, vector)
		}
	}
}

// nullWriter is an http.ResponseWriter that keeps nothing.
type nullWriter struct{ header http.Header }

func (w *nullWriter) Header() http.Header         { return w.header }
func (w *nullWriter) WriteHeader(int)             {}
func (w *nullWriter) Write(p []byte) (int, error) { return len(p), nil }
