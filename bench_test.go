// Benchmark harness for the paper's evaluation.
//
// Figure benches (BenchmarkFig3…BenchmarkFig9) regenerate each figure of
// Section V / Appendix D at a reduced scale and report the headline errors
// as custom metrics (err/* = final test error of the named curve), so
// `go test -bench Fig -benchmem` both times the harness and re-verifies
// the paper's orderings. Run cmd/crowdml-bench for paper-scale tables.
//
// Micro benches (BenchmarkDevice*, BenchmarkServer*, BenchmarkComm*)
// quantify the per-device and per-server costs analyzed in Section IV-B:
// gradient computation per sample, Laplace noise per minibatch, the O(C·D)
// server update, and the b/2 communication reduction.
//
// Ablation benches (BenchmarkAblation*) cover the design choices listed in
// docs/EXPERIMENTS.md, on the same crowd engine as the figures.
package crowdml_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	crowdml "github.com/crowdml/crowdml"
	"github.com/crowdml/crowdml/internal/core"
	"github.com/crowdml/crowdml/internal/dataset"
	"github.com/crowdml/crowdml/internal/experiments"
	"github.com/crowdml/crowdml/internal/linalg"
	"github.com/crowdml/crowdml/internal/model"
	"github.com/crowdml/crowdml/internal/optimizer"
	"github.com/crowdml/crowdml/internal/privacy"
	"github.com/crowdml/crowdml/internal/rng"
	"github.com/crowdml/crowdml/internal/scenario"
	"github.com/crowdml/crowdml/internal/store"
	"github.com/crowdml/crowdml/internal/telemetry"
	"github.com/crowdml/crowdml/internal/wirecodec"
)

// benchCfg is the reduced scale used by the figure benches.
func benchCfg() experiments.Config {
	return experiments.Config{Scale: 0.02, Trials: 1, Seed: 17, EvalPoints: 10}
}

// benchFigure runs one figure per iteration and reports each curve's final
// error as a custom metric.
func benchFigure(b *testing.B, run func(experiments.Config) (*experiments.Figure, error)) {
	b.Helper()
	var fig *experiments.Figure
	var err error
	for i := 0; i < b.N; i++ {
		fig, err = run(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, c := range fig.Curves {
		b.ReportMetric(c.Final(), "err/"+sanitizeMetric(c.Name))
	}
}

func sanitizeMetric(name string) string {
	out := make([]rune, 0, len(name))
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '=', r == '-', r == '.':
			out = append(out, r)
		case r == ' ', r == ',', r == '(', r == ')':
			out = append(out, '_')
		}
	}
	return string(out)
}

// BenchmarkFig3 regenerates Fig. 3 (activity recognition, learning-rate
// sweep on the real framework stack).
func BenchmarkFig3(b *testing.B) { benchFigure(b, experiments.Fig3) }

// BenchmarkFig4 regenerates Fig. 4 (central vs crowd vs decentralized,
// digit task, no privacy or delay).
func BenchmarkFig4(b *testing.B) { benchFigure(b, experiments.Fig4) }

// BenchmarkFig5 regenerates Fig. 5 (privacy ε⁻¹=0.1, minibatch sweep,
// digit task).
func BenchmarkFig5(b *testing.B) { benchFigure(b, experiments.Fig5) }

// BenchmarkFig6 regenerates Fig. 6 (delay sweep under privacy, digit task).
func BenchmarkFig6(b *testing.B) { benchFigure(b, experiments.Fig6) }

// BenchmarkFig7 regenerates Fig. 7 (Fig. 4 on the object task).
func BenchmarkFig7(b *testing.B) { benchFigure(b, experiments.Fig7) }

// BenchmarkFig8 regenerates Fig. 8 (Fig. 5 on the object task).
func BenchmarkFig8(b *testing.B) { benchFigure(b, experiments.Fig8) }

// BenchmarkFig9 regenerates Fig. 9 (Fig. 6 on the object task).
func BenchmarkFig9(b *testing.B) { benchFigure(b, experiments.Fig9) }

// ---- Section IV-B micro-benchmarks ----

// mnistShape is the digit task's parameter shape (C=10, D=50).
const (
	mnistClasses = 10
	mnistDim     = 50
)

func randomSample(r *rng.RNG) model.Sample {
	x := make([]float64, mnistDim)
	for i := range x {
		x[i] = r.Uniform(-1, 1)
	}
	linalg.NormalizeL1(x)
	return model.Sample{X: x, Y: r.Intn(mnistClasses)}
}

// BenchmarkDeviceGradientPerSample measures the per-sample gradient cost on
// a device (Section IV-B1: "computation of a gradient per sample").
func BenchmarkDeviceGradientPerSample(b *testing.B) {
	r := rng.New(1)
	m := model.NewLogisticRegression(mnistClasses, mnistDim)
	w := model.NewParams(m)
	g := model.NewParams(m)
	s := randomSample(r)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Zero()
		m.AddGradient(w, g, s)
	}
}

// BenchmarkDeviceLaplacePerMinibatch measures the Laplace-noise generation
// per minibatch (Section IV-B1: "generation of Laplace random noise per
// minibatch").
func BenchmarkDeviceLaplacePerMinibatch(b *testing.B) {
	r := rng.New(2)
	m := model.NewLogisticRegression(mnistClasses, mnistDim)
	g := model.NewParams(m)
	eps := privacy.FromInv(0.1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		privacy.PerturbGradient(g, 20, 4, eps, r)
	}
}

// BenchmarkServerUpdate measures the server's per-checkin cost — the O(C·D)
// SGD update that keeps the server load minimal (Section IV-B1).
func BenchmarkServerUpdate(b *testing.B) {
	m := model.NewLogisticRegression(mnistClasses, mnistDim)
	w := model.NewParams(m)
	g := model.NewParams(m)
	u := &optimizer.SGD{Schedule: optimizer.InvSqrt{C: 1}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		u.Update(w, g, i+1)
	}
}

// BenchmarkServerCheckinFullPath measures the full authenticated checkin
// path through the real server (Algorithm 2, Server Routine 2).
func BenchmarkServerCheckinFullPath(b *testing.B) { benchCheckinFullPath(b, mnistDim, 0) }

// BenchmarkCheckinLargeModel is the same path at 20,000 parameters, timed
// once the snapshot ring is full: the update and the publication's copy
// grow with the model, the bytes allocated per checkin must not (at
// 160 KB a vector, one allocation per checkin is what this row catches).
func BenchmarkCheckinLargeModel(b *testing.B) {
	benchCheckinFullPath(b, 2000, core.DefaultDeltaHistory+2)
}

// benchCheckinFullPath times Server.Checkin on a mnistClasses×dim model
// after warm untimed checkins.
func benchCheckinFullPath(b *testing.B, dim, warm int) {
	m := model.NewLogisticRegression(mnistClasses, dim)
	srv, err := core.NewServer(core.ServerConfig{
		Model:   m,
		Updater: &optimizer.SGD{Schedule: optimizer.InvSqrt{C: 1}},
	})
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	token, err := srv.RegisterDevice(ctx, "bench")
	if err != nil {
		b.Fatal(err)
	}
	req := &core.CheckinRequest{
		Grad:        make([]float64, mnistClasses*dim),
		NumSamples:  20,
		LabelCounts: make([]int, mnistClasses),
	}
	b.ReportAllocs()
	for i := -warm; i < b.N; i++ {
		if i == 0 {
			b.ResetTimer()
		}
		if err := srv.Checkin(ctx, "bench", token, req); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPublishSnapshot measures one publication through a full
// SnapshotRing at 20,000 parameters — take a retired vector, copy the
// parameters in, swap it current, evict the oldest base — which is what
// every applied batch, every replayed tail and every shard merge pays.
func BenchmarkPublishSnapshot(b *testing.B) {
	w := make([]float64, 20000)
	ring := core.NewSnapshotRing(0, nil)
	b.ReportAllocs()
	for i := -(core.DefaultDeltaHistory + 2); i < b.N; i++ {
		if i == 0 {
			b.ResetTimer()
		}
		ring.PublishCopy(i, w)
	}
}

// BenchmarkCheckoutParallel measures concurrent checkout throughput on one
// task — the portal-scale read path (Section IV-B1: a million-device portal
// is read-mostly). Checkouts are served from an immutable parameter
// snapshot, so throughput should scale with GOMAXPROCS instead of
// plateauing on a shared server lock.
func BenchmarkCheckoutParallel(b *testing.B) {
	m := model.NewLogisticRegression(mnistClasses, mnistDim)
	srv, err := core.NewServer(core.ServerConfig{
		Model:   m,
		Updater: &optimizer.SGD{Schedule: optimizer.InvSqrt{C: 1}},
	})
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	token, err := srv.RegisterDevice(ctx, "bench")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, err := srv.Checkout(ctx, "bench", token); err != nil {
				b.Error(err)
				return
			}
		}
	})
}

// newCheckoutBenchServer builds the mnist-shaped server every checkout
// micro-bench reads from, with one registered device.
func newCheckoutBenchServer(b *testing.B) (*core.Server, string) {
	b.Helper()
	m := model.NewLogisticRegression(mnistClasses, mnistDim)
	srv, err := core.NewServer(core.ServerConfig{
		Model:   m,
		Updater: &optimizer.SGD{Schedule: optimizer.InvSqrt{C: 1}},
	})
	if err != nil {
		b.Fatal(err)
	}
	token, err := srv.RegisterDevice(context.Background(), "bench")
	if err != nil {
		b.Fatal(err)
	}
	return srv, token
}

// BenchmarkCheckoutBinary measures the binary full-frame checkout path:
// CheckoutDelta's zero-copy snapshot view encoded into a reused frame
// buffer — the per-request server cost behind "Accept: binary" without a
// delta base. Against BenchmarkCheckoutParallel's per-call parameter
// copy, the steady-state allocation drops to the response-struct noise.
func BenchmarkCheckoutBinary(b *testing.B) {
	srv, token := newCheckoutBenchServer(b)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		var buf []byte
		for pb.Next() {
			d, err := srv.CheckoutDelta(ctx, "bench", token, -1)
			if err != nil {
				b.Error(err)
				return
			}
			buf = wirecodec.AppendDelta(buf[:0], d.Base, d.Params, d.Version, d.Done, d.Since, true)
			d.Release()
		}
	})
}

// BenchmarkCheckoutDelta measures the steady-state delta poll — the wire
// protocol's headline: a device that already holds the current iteration
// asks ?since=current and is answered with an empty ~40-byte delta frame
// instead of the full C·D float64 vector. Benchgate pins this B/op at a
// fraction of BenchmarkCheckoutParallel's full-copy cost. (The poll that
// does find a change is BenchmarkCheckoutDeltaChanged's.)
func BenchmarkCheckoutDelta(b *testing.B) {
	srv, token := newCheckoutBenchServer(b)
	ctx := context.Background()
	// Advance the model a few iterations so the poll runs against a
	// populated ring, like a live leader's.
	req := &core.CheckinRequest{
		Grad:        make([]float64, mnistClasses*mnistDim),
		NumSamples:  20,
		LabelCounts: make([]int, mnistClasses),
	}
	for i := range req.Grad {
		req.Grad[i] = 0.01
	}
	for i := 0; i < 8; i++ {
		if err := srv.Checkin(ctx, "bench", token, req); err != nil {
			b.Fatal(err)
		}
	}
	since := srv.Iteration()
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		var buf []byte
		for pb.Next() {
			d, err := srv.CheckoutDelta(ctx, "bench", token, since)
			if err != nil {
				b.Error(err)
				return
			}
			// An up-to-date caller's delta has no base to diff: the empty delta.
			buf = wirecodec.AppendDelta(buf[:0], d.Base, d.Params, d.Version, d.Done, d.Since, true)
			d.Release()
		}
	})
}

// BenchmarkCheckoutDeltaChanged measures the delta poll that finds the
// model moved, through the HTTP handler in memory: the ring lookup and
// the encoder's walk over base and current snapshot — sparse pairs when
// one coordinate in ten moved, and when all did, the smaller of the XOR
// delta and the full frame for a request that opts in to XOR deltas, as
// every delta client does. Neither may allocate anything the size of
// the model.
func BenchmarkCheckoutDeltaChanged(b *testing.B) {
	for _, tc := range []struct {
		name   string
		stride int // every stride-th coordinate moves
		query  string
	}{{"sparse10pct", 10, "since=0"}, {"dense", 1, "since=0&xor=1"}} {
		b.Run(tc.name, func(b *testing.B) {
			handler, newRequest := jsonBenchHandler(b)
			postCheckin(b, handler, newRequest, stridedGrad(tc.stride))
			req := newRequest(http.MethodGet, "checkout?"+tc.query)
			req.Header.Set("Accept", "application/x-crowdml-bin")
			w := &discardWriter{header: http.Header{}}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				handler.ServeHTTP(w, req)
				if w.code >= 300 {
					b.Fatalf("status %d", w.code)
				}
			}
		})
	}
}

// handlerTransport answers an http.Client from a handler in memory.
type handlerTransport struct{ h http.Handler }

func (t handlerTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	rec := httptest.NewRecorder()
	t.h.ServeHTTP(rec, req)
	return rec.Result(), nil
}

// BenchmarkClientDeltaPoll measures the device's side of a delta poll:
// a WireBinaryDelta client over the in-memory handler. Unchanged is the
// hot case — the model has not moved, a bodyless 204 re-serves the
// cached snapshot and nothing the size of the model is allocated; dense
// follows a checkin that moved every coordinate, where the vector the
// frame decodes into (XOR words with the base XORed in, or a full
// frame's values) is adopted as the next snapshot (one vector, not two).
func BenchmarkClientDeltaPoll(b *testing.B) {
	for _, dense := range []bool{false, true} {
		name := "unchanged"
		if dense {
			name = "dense"
		}
		b.Run(name, func(b *testing.B) {
			handler, newRequest := jsonBenchHandler(b)
			// The bench device's token, as the request builder stamps it.
			token := newRequest(http.MethodGet, "checkout").Header.Get("X-Crowdml-Token")
			cl := crowdml.NewHTTPClient("http://bench.invalid", &http.Client{Transport: handlerTransport{handler}}).
				WithTask("bench").WithWire(crowdml.WireBinaryDelta)
			ctx := context.Background()
			grad := stridedGrad(1)
			postCheckin(b, handler, newRequest, grad)
			if _, err := cl.Checkout(ctx, "bench", token); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if dense {
					b.StopTimer()
					postCheckin(b, handler, newRequest, grad)
					b.StartTimer()
				}
				if _, err := cl.Checkout(ctx, "bench", token); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCheckinLoopback measures a whole checkin trip over a loopback
// socket: the device's encode into a pooled buffer, net/http's framing
// and write, the handler's read, decode and apply, and the 204. Client
// and server share the process, so B/op counts both halves.
func BenchmarkCheckinLoopback(b *testing.B) {
	for _, wire := range []crowdml.WireFormat{crowdml.WireJSON, crowdml.WireBinary} {
		b.Run(wire.String(), func(b *testing.B) {
			cl, token, req := loopbackBench(b, wire)
			ctx := context.Background()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := cl.Checkin(ctx, "bench", token, req); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCheckoutLoopback is the checkout half of the loopback trip:
// the device's request, net/http's framing on both ends, the handler's
// auth, snapshot read and encode, and the device's read and decode.
// With binary-delta the model does not move while the loop runs, so
// every poll after the first is answered by a bodyless 204.
func BenchmarkCheckoutLoopback(b *testing.B) {
	for _, wire := range []crowdml.WireFormat{crowdml.WireJSON, crowdml.WireBinaryDelta} {
		b.Run(wire.String(), func(b *testing.B) {
			cl, token, _ := loopbackBench(b, wire)
			ctx := context.Background()
			if _, err := cl.Checkout(ctx, "bench", token); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := cl.Checkout(ctx, "bench", token); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// loopbackBench serves the bench task on a loopback socket and returns a
// client speaking wire, the device's token and a checkin for the task.
// The task is the 10×50 shape of the end-to-end benchmark's crowd_*
// workloads, and its snapshot ring is filled first, so the server
// recycles its vectors.
func loopbackBench(b *testing.B, wire crowdml.WireFormat) (*crowdml.HTTPClient, string, *core.CheckinRequest) {
	b.Helper()
	handler, newRequest := jsonBenchHandler(b)
	token := newRequest(http.MethodGet, "checkout").Header.Get("X-Crowdml-Token")
	ts := httptest.NewServer(handler)
	b.Cleanup(ts.Close)
	cl := crowdml.NewHTTPClient(ts.URL, nil).WithTask("bench").WithWire(wire)
	req := &core.CheckinRequest{Grad: benchGrad(10 * 50), NumSamples: 20, ErrCount: 3, LabelCounts: make([]int, 10)}
	for i := 0; i <= core.DefaultDeltaHistory; i++ {
		if err := cl.Checkin(context.Background(), "bench", token, req); err != nil {
			b.Fatal(err)
		}
	}
	return cl, token, req
}

// BenchmarkCheckinBinary measures the binary checkin ingest: decoding
// one pre-encoded gradient frame plus the batched server apply — the
// server-side twin of a device POSTing Content-Type binary.
func BenchmarkCheckinBinary(b *testing.B) {
	srv, token := newCheckoutBenchServer(b)
	ctx := context.Background()
	grad := make([]float64, mnistClasses*mnistDim)
	for i := range grad {
		grad[i] = 0.01
	}
	frame := wirecodec.AppendCheckin(nil, grad, 0, 20, 0, make([]int, mnistClasses), false)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fr, err := wirecodec.Decode(frame)
		if err != nil {
			b.Fatal(err)
		}
		req := &core.CheckinRequest{
			Grad:        fr.Values,
			NumSamples:  fr.NumSamples,
			ErrCount:    fr.ErrCount,
			LabelCounts: fr.LabelCounts,
		}
		if err := srv.Checkin(ctx, "bench", token, req); err != nil {
			b.Fatal(err)
		}
	}
}

// jsonBenchHandler hosts one logreg 10×50 task — the shape of the
// end-to-end benchmark's crowd_json workload — behind the HTTP handler,
// with one registered device, and returns a request builder that stamps
// the device's credentials.
func jsonBenchHandler(b *testing.B) (http.Handler, func(method, endpoint string) *http.Request) {
	b.Helper()
	ctx := context.Background()
	h := crowdml.NewHub()
	b.Cleanup(func() { _ = h.Close(ctx) })
	task, err := h.CreateTask(ctx, "bench", crowdml.ServerConfig{
		Model:   model.NewLogisticRegression(10, 50),
		Updater: &optimizer.SGD{Schedule: optimizer.InvSqrt{C: 1}},
	})
	if err != nil {
		b.Fatal(err)
	}
	token, err := task.Server().RegisterDevice(ctx, "bench")
	if err != nil {
		b.Fatal(err)
	}
	return crowdml.NewHTTPHandler(h, "", nil), func(method, endpoint string) *http.Request {
		req := httptest.NewRequest(method, "/v1/tasks/bench/"+endpoint, nil)
		req.Header.Set("X-Crowdml-Device", "bench")
		req.Header.Set("X-Crowdml-Token", token)
		return req
	}
}

// discardWriter is an http.ResponseWriter that keeps the status only:
// the handler benches measure the handler, not a recorder's buffer.
type discardWriter struct {
	header http.Header
	code   int
}

func (w *discardWriter) Header() http.Header         { return w.header }
func (w *discardWriter) WriteHeader(code int)        { w.code = code }
func (w *discardWriter) Write(p []byte) (int, error) { return len(p), nil }

// benchGrad is a gradient with the digit count a Laplace-sanitized one
// has: every value takes the full 17 significant digits on the wire.
func benchGrad(n int) []float64 {
	r := rng.New(7)
	grad := make([]float64, n)
	for i := range grad {
		grad[i] = r.Laplace(0.01)
	}
	return grad
}

// checkinPayload is one JSON checkin body for the bench task.
func checkinPayload(b *testing.B, grad []float64) []byte {
	b.Helper()
	payload, err := json.Marshal(&core.CheckinRequest{
		Grad: grad, NumSamples: 20, ErrCount: 3, LabelCounts: make([]int, 10),
	})
	if err != nil {
		b.Fatal(err)
	}
	return payload
}

// stridedGrad is a bench-task gradient that moves every stride-th
// coordinate (plain SGD leaves the others where they were).
func stridedGrad(stride int) []float64 {
	grad := benchGrad(10 * 50)
	for i := range grad {
		if i%stride != 0 {
			grad[i] = 0
		}
	}
	return grad
}

// postCheckin applies one JSON checkin through the handler.
func postCheckin(b *testing.B, handler http.Handler, newRequest func(method, endpoint string) *http.Request, grad []float64) {
	b.Helper()
	req := newRequest(http.MethodPost, "checkin")
	req.Body = io.NopCloser(bytes.NewReader(checkinPayload(b, grad)))
	w := &discardWriter{header: http.Header{}}
	if handler.ServeHTTP(w, req); w.code >= 300 {
		b.Fatalf("checkin: status %d", w.code)
	}
}

// BenchmarkCheckoutJSON measures the default wire's checkout through the
// HTTP handler in memory: auth, the zero-copy snapshot read and the
// reflection-free JSON encode into a pooled buffer. One checkin comes
// first: a fresh model is all zeros, and "0" is not what a float costs
// to print.
func BenchmarkCheckoutJSON(b *testing.B) {
	handler, newRequest := jsonBenchHandler(b)
	w := &discardWriter{header: http.Header{}}
	postCheckin(b, handler, newRequest, benchGrad(10*50))
	req := newRequest(http.MethodGet, "checkout")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		handler.ServeHTTP(w, req)
		if w.code >= 300 {
			b.Fatalf("status %d", w.code)
		}
	}
}

// BenchmarkCheckinJSON measures the default wire's checkin ingest
// through the HTTP handler in memory: reading and parsing one JSON body
// into the pooled gradient scratch, plus the server apply — the JSON
// twin of BenchmarkCheckinBinary.
func BenchmarkCheckinJSON(b *testing.B) {
	handler, newRequest := jsonBenchHandler(b)
	payload := checkinPayload(b, benchGrad(10*50))
	req := newRequest(http.MethodPost, "checkin")
	req.Header.Set("Content-Type", "application/json")
	body := bytes.NewReader(payload)
	req.Body = io.NopCloser(body)
	w := &discardWriter{header: http.Header{}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		body.Reset(payload)
		handler.ServeHTTP(w, req)
		if w.code >= 300 {
			b.Fatalf("status %d", w.code)
		}
	}
}

// BenchmarkCheckinBatched measures concurrent checkin throughput against a
// single task — the write path where the batched applier groups queued
// gradient deltas under one lock acquisition instead of serializing every
// device on its own lock round-trip.
func BenchmarkCheckinBatched(b *testing.B) {
	m := model.NewLogisticRegression(mnistClasses, mnistDim)
	srv, err := core.NewServer(core.ServerConfig{
		Model:   m,
		Updater: &optimizer.SGD{Schedule: optimizer.InvSqrt{C: 1}},
	})
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	token, err := srv.RegisterDevice(ctx, "bench")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		// Each worker owns its request buffers: Checkin is synchronous, so
		// the server is done with them when the call returns.
		req := &core.CheckinRequest{
			Grad:        make([]float64, mnistClasses*mnistDim),
			NumSamples:  20,
			LabelCounts: make([]int, mnistClasses),
		}
		for pb.Next() {
			if err := srv.Checkin(ctx, "bench", token, req); err != nil {
				b.Error(err)
				return
			}
		}
	})
}

// BenchmarkCheckoutInstrumented is BenchmarkCheckoutParallel with the
// operational telemetry registry wired in — the proof that the
// lock-free checkout snapshot path stays within the benchgate envelope
// with instrumentation enabled (one counter add plus one histogram
// observation per checkout).
func BenchmarkCheckoutInstrumented(b *testing.B) {
	m := model.NewLogisticRegression(mnistClasses, mnistDim)
	srv, err := core.NewServer(core.ServerConfig{
		Model:   m,
		Updater: &optimizer.SGD{Schedule: optimizer.InvSqrt{C: 1}},
		Metrics: core.NewServerMetrics(telemetry.NewRegistry(), "bench"),
	})
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	token, err := srv.RegisterDevice(ctx, "bench")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, err := srv.Checkout(ctx, "bench", token); err != nil {
				b.Error(err)
				return
			}
		}
	})
}

// BenchmarkMetricsHotPath isolates the telemetry primitives themselves:
// one counter increment plus one histogram observation per iteration
// under parallel load — the exact per-request cost the instrumented
// server paths add.
func BenchmarkMetricsHotPath(b *testing.B) {
	reg := telemetry.NewRegistry()
	c := reg.Counter("bench_ops_total", "Ops.", telemetry.L("task", "bench"))
	h := reg.Histogram("bench_op_seconds", "Latency.", telemetry.DurationBuckets,
		telemetry.L("task", "bench"))
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		v := 0.0
		for pb.Next() {
			c.Inc()
			h.Observe(v)
			v += 1e-5
			if v > 5 {
				v = 0
			}
		}
	})
}

// BenchmarkCheckinJournaled is BenchmarkCheckinBatched with the
// durability layer on: the task runs on a hub with a file-backed Store,
// so every applied checkin is write-ahead journaled (on the batch
// leader, outside the parameter lock) before it is acknowledged, and the
// asynchronous checkpointer snapshots in the background. The delta
// against BenchmarkCheckinBatched is the WAL overhead benchgate guards.
func BenchmarkCheckinJournaled(b *testing.B) {
	ctx := context.Background()
	fs, err := crowdml.NewFileStore(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	h := crowdml.NewHub()
	task, err := h.CreateTask(ctx, "bench", crowdml.ServerConfig{
		Model:   crowdml.NewLogisticRegression(mnistClasses, mnistDim),
		Updater: crowdml.NewSGD(crowdml.InvSqrt{C: 1}, 0),
	}, crowdml.WithStore(fs),
		crowdml.WithCheckpointPolicy(crowdml.CheckpointPolicy{AfterN: 4096}))
	if err != nil {
		b.Fatal(err)
	}
	srv := task.Server()
	token, err := srv.RegisterDevice(ctx, "bench")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		req := &core.CheckinRequest{
			Grad:        make([]float64, mnistClasses*mnistDim),
			NumSamples:  20,
			LabelCounts: make([]int, mnistClasses),
		}
		for pb.Next() {
			if err := srv.Checkin(ctx, "bench", token, req); err != nil {
				b.Error(err)
				return
			}
		}
	})
	b.StopTimer()
	if err := h.Close(ctx); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkCheckinJournaledSyncBatch is BenchmarkCheckinJournaled with
// group-commit fsync (SyncBatch): the batch leader fsyncs once per
// applied batch before its acknowledgments. The delta against
// BenchmarkCheckinJournaled is the price of power-loss durability —
// which shrinks per checkin as concurrency (batch size) rises; that
// amortization is the point of group commit. Not in the CI gate: fsync
// latency is a property of the runner's storage, not of this code.
func BenchmarkCheckinJournaledSyncBatch(b *testing.B) {
	ctx := context.Background()
	fs, err := crowdml.NewFileStore(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	h := crowdml.NewHub()
	task, err := h.CreateTask(ctx, "bench", crowdml.ServerConfig{
		Model:   crowdml.NewLogisticRegression(mnistClasses, mnistDim),
		Updater: crowdml.NewSGD(crowdml.InvSqrt{C: 1}, 0),
	}, crowdml.WithStore(fs),
		crowdml.WithCheckpointPolicy(crowdml.CheckpointPolicy{AfterN: 4096}),
		crowdml.WithSyncPolicy(crowdml.SyncBatch))
	if err != nil {
		b.Fatal(err)
	}
	srv := task.Server()
	token, err := srv.RegisterDevice(ctx, "bench")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		req := &core.CheckinRequest{
			Grad:        make([]float64, mnistClasses*mnistDim),
			NumSamples:  20,
			LabelCounts: make([]int, mnistClasses),
		}
		for pb.Next() {
			if err := srv.Checkin(ctx, "bench", token, req); err != nil {
				b.Error(err)
				return
			}
		}
	})
	b.StopTimer()
	if err := h.Close(ctx); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkCheckpointSave prices one steady-state checkpoint at the shape
// of the end-to-end benchmark's follower_reads leader (2,000 devices,
// logreg 10×196): the checkpointer's state export into its warm buffer,
// then Store.Save. MemStore, so the number is the encoding and not the
// runner's disk. B/op is the gated column: a checkpoint is meant to cost
// no garbage.
func BenchmarkCheckpointSave(b *testing.B) {
	const devices, classes, dim = 2000, 10, 196
	ctx := context.Background()
	state := &core.ServerState{
		ModelName: model.NewLogisticRegression(classes, dim).Name(), Classes: classes, Dim: dim,
		Params:           make([]float64, classes*dim),
		TotalLabelCounts: make([]int, classes),
		Devices:          make(map[string]core.DeviceStats, devices),
	}
	for i := range state.Params {
		state.Params[i] = 0.001 * float64(i)
	}
	for i := 0; i < devices; i++ {
		counts := make([]int, classes)
		for k := range counts {
			counts[k] = i%7 + k
		}
		state.Devices[fmt.Sprintf("dev-%05d", i)] = core.DeviceStats{
			Samples: 20 * i, Errors: i, LabelCounts: counts, Checkins: i, StalenessSum: 3 * i,
		}
	}
	srv, err := core.NewServer(core.ServerConfig{
		Model:   model.NewLogisticRegression(classes, dim),
		Updater: &optimizer.SGD{Schedule: optimizer.InvSqrt{C: 1}},
	})
	if err != nil {
		b.Fatal(err)
	}
	if err := srv.ImportState(state); err != nil {
		b.Fatal(err)
	}
	st := store.NewMemStore()
	var buf core.StateBuffer
	now := time.UnixMilli(1790000000123)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := st.Save(ctx, srv.ExportStateInto(&buf), now); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkJournalTailRestore measures the restore-path journal read as
// checkpoint history accumulates: the store holds `checkpoints` sealed
// segments (one per past checkpoint-and-rotate cycle) plus a short live
// tail, and each op opens a cursor after the latest checkpoint's
// iteration and streams the tail — exactly what a task restart does.
// The cursor probes only each trailing segment's first record and never
// materializes the history, so ns/op AND B/op must stay ~flat as the
// checkpoint count grows; this is the benchmark that keeps the
// streaming read's bounded memory from silently regressing (benchgate
// gates its B/op in CI).
func BenchmarkJournalTailRestore(b *testing.B) {
	const perSegment, tailLen = 32, 8
	grad := make([]float64, 30)
	for i := range grad {
		grad[i] = 0.125 * float64(i)
	}
	for _, checkpoints := range []int{1, 8, 64} {
		b.Run(fmt.Sprintf("checkpoints=%d", checkpoints), func(b *testing.B) {
			ctx := context.Background()
			fs, err := crowdml.NewFileStore(b.TempDir())
			if err != nil {
				b.Fatal(err)
			}
			j, err := fs.OpenJournal(ctx)
			if err != nil {
				b.Fatal(err)
			}
			iter := 0
			appendN := func(n int) {
				for i := 0; i < n; i++ {
					iter++
					err := j.Append(ctx, crowdml.JournalEntry{
						DeviceID: "d1", Iteration: iter, NumSamples: 5,
						Grad: grad, LabelCounts: []int{3, 2},
					})
					if err != nil {
						b.Fatal(err)
					}
				}
			}
			for c := 0; c < checkpoints; c++ {
				appendN(perSegment)
				if err := j.Rotate(ctx); err != nil {
					b.Fatal(err)
				}
			}
			appendN(tailLen)
			if err := j.Close(); err != nil {
				b.Fatal(err)
			}
			covered := checkpoints * perSegment
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cur, err := fs.OpenCursor(ctx, covered)
				if err != nil {
					b.Fatal(err)
				}
				n := 0
				for {
					if _, err := cur.Next(); err != nil {
						break // io.EOF ends the stream
					}
					n++
				}
				if err := cur.Close(); err != nil {
					b.Fatal(err)
				}
				if n != tailLen {
					b.Fatalf("restore read %d entries, want the %d-entry tail", n, tailLen)
				}
			}
		})
	}
}

// BenchmarkFollowerReplay measures the follower's apply path: decoding
// one entry of a shipped journal feed (the wirecodec journal frames the
// leader streams) and replaying it into the local replica as its own Replay
// call — exactly what internal/replica does per entry while tailing, so
// ns/op bounds how fast a follower drains a backlog and B/op keeps the
// per-entry decode from growing a hidden buffer (benchgate gates it in
// CI). The feed is pre-encoded with 512 entries; re-bootstrapping a
// fresh replica at each feed end happens off-timer.
func BenchmarkFollowerReplay(b *testing.B) {
	const entries = 512
	grad := make([]float64, mnistClasses*mnistDim)
	for i := range grad {
		grad[i] = 0.001 * float64(i%17)
	}
	var feed bytes.Buffer
	fw := store.NewFeedWriter(&feed)
	for i := 1; i <= entries; i++ {
		err := fw.WriteEntry(store.JournalEntry{
			DeviceID: "d1", Iteration: i, NumSamples: 20,
			Grad: grad, LabelCounts: []int{5, 5, 5, 5, 0, 0, 0, 0, 0, 0},
			Version: i - 1,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	if err := fw.WriteEOS(entries); err != nil {
		b.Fatal(err)
	}
	wire := feed.Bytes()
	newReplica := func() *core.Server {
		srv, err := core.NewServer(core.ServerConfig{
			Model:   model.NewLogisticRegression(mnistClasses, mnistDim),
			Updater: &optimizer.SGD{Schedule: optimizer.InvSqrt{C: 1}},
		})
		if err != nil {
			b.Fatal(err)
		}
		return srv
	}
	srv := newReplica()
	fr := store.NewFeedReader(bytes.NewReader(wire))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e, err := fr.Next()
		if err == io.EOF {
			b.StopTimer()
			if srv.Iteration() != entries || fr.LeaderIteration() != entries {
				b.Fatalf("replayed to %d (leader %d), want %d", srv.Iteration(), fr.LeaderIteration(), entries)
			}
			srv = newReplica()
			fr = store.NewFeedReader(bytes.NewReader(wire))
			b.StartTimer()
			e, err = fr.Next()
		}
		if err != nil {
			b.Fatal(err)
		}
		_, err = srv.Replay(core.ReplaySlice([]core.ReplayRecord{{
			DeviceID:  e.DeviceID,
			Iteration: e.Iteration,
			Req: &core.CheckinRequest{
				Grad:        e.Grad,
				NumSamples:  e.NumSamples,
				ErrCount:    e.ErrCount,
				LabelCounts: e.LabelCounts,
				Version:     e.Version,
			},
		}}))
		if err != nil {
			b.Fatal(err)
		}
	}
}

// ---- Sharded leader tier (internal/shard) ----

// shardBenchConfig is the model the sharded checkin bench runs: a
// dimension large enough that the serialized O(C·D) parameter update —
// the cost partitioning is meant to parallelize — dominates the
// per-checkin bookkeeping.
func shardBenchConfig() crowdml.ServerConfig {
	return crowdml.ServerConfig{
		Model:   crowdml.NewLogisticRegression(mnistClasses, 2000),
		Updater: crowdml.NewSGD(crowdml.InvSqrt{C: 1}, 0),
	}
}

// BenchmarkShardedCheckinParallel measures concurrent checkin throughput
// through the shard router at 1 vs 4 member leaders. Each worker keeps
// affinity to one pre-registered device (so routing is stable and no
// tokens rotate mid-run), and the merger is parked on a long interval so
// the numbers isolate the write path. With one shard every update
// serializes on a single member's applier; with four, the dominating
// O(C·D) work spreads over four independent appliers — so the throughput
// ratio between the two sub-benches approaches min(4, GOMAXPROCS, cores)
// on a multi-core runner, while a single-core runner measures pure
// routing overhead instead (there is no second core to spread onto).
func BenchmarkShardedCheckinParallel(b *testing.B) {
	const benchShardDevices = 64
	for _, shards := range []int{1, 4} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			ctx := context.Background()
			h := crowdml.NewHub()
			g, err := crowdml.NewShardedTask(ctx, h, "bench",
				func(int) crowdml.ServerConfig { return shardBenchConfig() },
				crowdml.WithShards(shards),
				crowdml.WithShardMergeInterval(time.Hour))
			if err != nil {
				b.Fatal(err)
			}
			devices := make([]string, benchShardDevices)
			tokens := make([]string, benchShardDevices)
			for i := range devices {
				devices[i] = fmt.Sprintf("bench-%03d", i)
				if tokens[i], err = g.Register(ctx, devices[i]); err != nil {
					b.Fatal(err)
				}
			}
			classes, dim := g.Members()[0].Server().ModelShape()
			var next atomic.Int64
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				i := int(next.Add(1)-1) % benchShardDevices
				req := &core.CheckinRequest{
					Grad:        make([]float64, classes*dim),
					NumSamples:  20,
					LabelCounts: make([]int, classes),
				}
				for pb.Next() {
					if err := g.Checkin(ctx, devices[i], tokens[i], req); err != nil {
						b.Error(err)
						return
					}
				}
			})
			b.StopTimer()
			g.Stop()
			if err := h.Close(ctx); err != nil {
				b.Fatal(err)
			}
		})
	}
}

// BenchmarkRouterCheckout measures the merged checkout read path on a
// 4-shard group: authenticate against the owning member, then one
// atomic load of the published merged view plus the per-caller copy.
// It runs the same model shape as BenchmarkCheckoutParallel so the two
// are directly comparable: the router adds a hash and a pointer load,
// never a lock, so benchgate holds it to the same envelope as the
// single-leader read.
func BenchmarkRouterCheckout(b *testing.B) {
	ctx := context.Background()
	h := crowdml.NewHub()
	g, err := crowdml.NewShardedTask(ctx, h, "bench",
		func(int) crowdml.ServerConfig {
			return crowdml.ServerConfig{
				Model:   crowdml.NewLogisticRegression(mnistClasses, mnistDim),
				Updater: crowdml.NewSGD(crowdml.InvSqrt{C: 1}, 0),
			}
		},
		crowdml.WithShards(4),
		crowdml.WithShardMergeInterval(time.Hour))
	if err != nil {
		b.Fatal(err)
	}
	token, err := g.Register(ctx, "bench")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, err := g.Checkout(ctx, "bench", token); err != nil {
				b.Error(err)
				return
			}
		}
	})
	b.StopTimer()
	g.Stop()
	if err := h.Close(ctx); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkCommPayloadBytes reports the JSON checkin payload size per
// sample for b ∈ {1, 20}: the b-fold communication reduction of
// Section IV-B2 (each checkin carries one gradient regardless of b).
func BenchmarkCommPayloadBytes(b *testing.B) {
	for _, batch := range []int{1, 20} {
		b.Run(fmt.Sprintf("b=%d", batch), func(b *testing.B) {
			req := &core.CheckinRequest{
				Grad:        make([]float64, mnistClasses*mnistDim),
				NumSamples:  batch,
				LabelCounts: make([]int, mnistClasses),
			}
			var payload []byte
			var err error
			for i := 0; i < b.N; i++ {
				payload, err = json.Marshal(req)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(len(payload))/float64(batch), "bytes/sample")
		})
	}
}

// ---- Ablation benches (docs/EXPERIMENTS.md) ----

// ablationCrowd is the ablations' common crowd on the engine's in-process
// topology: 50 devices, three passes over a small digit task, the tuned
// SGD, b = 1.
func ablationCrowd(b *testing.B) scenario.Crowd {
	b.Helper()
	ds, err := dataset.MNISTLike(2000, 600, 23)
	if err != nil {
		b.Fatal(err)
	}
	return scenario.Crowd{
		Plan: scenario.Plan{
			Name: "ablation", Topology: scenario.TopologyInProcess,
			Devices: 50, Minibatch: 1, Samples: 3 * len(ds.Train),
			EvalEvery: 3 * len(ds.Train) / 50, EvalSubset: 300, Seed: 5,
		},
		Model: model.NewLogisticRegression(ds.Classes, ds.Dim),
		Train: ds.Train, Test: ds.Test,
		NewUpdater: func() optimizer.Updater {
			return &optimizer.SGD{Schedule: optimizer.InvSqrt{C: experiments.DefaultRate}}
		},
	}
}

func runAblation(b *testing.B, c scenario.Crowd) {
	b.Helper()
	var final float64
	for i := 0; i < b.N; i++ {
		rep, err := scenario.RunCrowd(context.Background(), c)
		if err != nil {
			b.Fatal(err)
		}
		final = rep.FinalTestError
	}
	b.ReportMetric(final, "finalerr")
}

// BenchmarkAblationMinibatch sweeps b under the Fig. 5 privacy level —
// the noise/latency trade-off of Eq. (13).
func BenchmarkAblationMinibatch(b *testing.B) {
	base := ablationCrowd(b)
	base.Budget = privacy.Budget{Gradient: privacy.FromInv(0.1)}
	for _, batch := range []int{1, 5, 10, 20, 50} {
		b.Run(fmt.Sprintf("b=%d", batch), func(b *testing.B) {
			c := base
			c.Minibatch = batch
			runAblation(b, c)
		})
	}
}

// BenchmarkAblationSchedule compares the Eq. (5) schedule against a
// constant rate and the AdaGrad updater of Remark 3.
func BenchmarkAblationSchedule(b *testing.B) {
	base := ablationCrowd(b)
	for _, v := range []struct {
		name string
		mk   func() optimizer.Updater
	}{
		{"invsqrt", base.NewUpdater},
		{"constant", func() optimizer.Updater { return &optimizer.SGD{Schedule: optimizer.Constant{C: 5}} }},
		{"invt", func() optimizer.Updater { return &optimizer.SGD{Schedule: optimizer.InvT{C: 200}} }},
		{"adagrad", func() optimizer.Updater { return &optimizer.AdaGrad{Eta: 0.3} }},
	} {
		b.Run(v.name, func(b *testing.B) {
			c := base
			c.NewUpdater = v.mk
			runAblation(b, c)
		})
	}
}

// BenchmarkAblationProjection toggles the Π_W projection of Eq. (3).
func BenchmarkAblationProjection(b *testing.B) {
	base := ablationCrowd(b)
	for _, radius := range []float64{0, 5, 50} {
		b.Run(fmt.Sprintf("R=%g", radius), func(b *testing.B) {
			c := base
			c.NewUpdater = func() optimizer.Updater {
				return &optimizer.SGD{Schedule: optimizer.InvSqrt{C: experiments.DefaultRate}, Radius: radius}
			}
			runAblation(b, c)
		})
	}
}

// BenchmarkAblationBudgetSplit compares spending everything on the
// gradient against also sanitizing the progress counters (Appendix B
// Remark 1: the counters do not feed learning, so their budget should not
// change the error).
func BenchmarkAblationBudgetSplit(b *testing.B) {
	base := ablationCrowd(b)
	base.Minibatch = 20
	for _, v := range []struct {
		name   string
		budget privacy.Budget
	}{
		{"gradient-only", privacy.Budget{Gradient: privacy.FromInv(0.1)}},
		{"with-counters", privacy.Budget{
			Gradient:   privacy.FromInv(0.1),
			ErrCount:   privacy.Eps(0.01),
			LabelCount: privacy.Eps(0.001),
		}},
	} {
		b.Run(v.name, func(b *testing.B) {
			c := base
			c.Budget = v.budget
			runAblation(b, c)
		})
	}
}

// BenchmarkAblationStale compares applying stale gradients (the paper's
// behaviour, backed by the delayed-SGD convergence results it cites)
// against dropping them at the server.
func BenchmarkAblationStale(b *testing.B) {
	base := ablationCrowd(b)
	base.Straggler = scenario.StragglerSpec{Fraction: 1, Tau: 100}
	for _, drop := range []int{0, 10} {
		name := "apply-stale"
		if drop > 0 {
			name = fmt.Sprintf("drop-over-%d", drop)
		}
		b.Run(name, func(b *testing.B) {
			c := base
			if drop > 0 {
				c.Intercept = experiments.DropStale(drop)
			}
			runAblation(b, c)
		})
	}
}

// BenchmarkScenarioThroughput measures one scenario-harness flush cycle
// — real HTTP checkout, local gradient + DP sanitization, real HTTP
// checkin — against a single-leader stack, i.e. checkins/sec of the
// deterministic harness's hot path with the virtual clock factored out.
func BenchmarkScenarioThroughput(b *testing.B) {
	bench, err := scenario.NewBench(scenario.Spec{
		Plan: scenario.Plan{
			Name: "bench", Topology: scenario.TopologySingle,
			Devices: 64, Samples: 1, Seed: 42,
		},
		Classes: 3, Dim: 10, TrainSize: 640, TestSize: 64,
		LearningRate: 8,
		Privacy:      scenario.PrivacySpec{GradientEpsInv: 0.05, CountEpsInv: 1},
	})
	if err != nil {
		b.Fatal(err)
	}
	defer bench.Close()
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := bench.Step(ctx, i); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	checkins := float64(b.N) / b.Elapsed().Seconds()
	b.ReportMetric(checkins, "checkins/sec")
}
