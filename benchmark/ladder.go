package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"time"

	"github.com/crowdml/crowdml/internal/core"
	"github.com/crowdml/crowdml/internal/hub"
	"github.com/crowdml/crowdml/internal/linalg"
	"github.com/crowdml/crowdml/internal/model"
	"github.com/crowdml/crowdml/internal/optimizer"
	"github.com/crowdml/crowdml/internal/shard"
	"github.com/crowdml/crowdml/internal/store"
	"github.com/crowdml/crowdml/internal/transport"
	"github.com/crowdml/crowdml/internal/wirecodec"
)

// layerUnits names every per-layer metric and its unit. A traced run
// reports all of them on every workload; a layer that does no work on a
// workload reports 0, which is itself a prediction the README states.
var layerUnits = map[string]string{
	"optimizer.avg_gradient_us": "us", "privacy.sanitize_us": "us",
	"optimizer.update_us": "us", "optimizer.update_calls": "count",

	"core.checkin_us": "us", "core.checkin_self_us": "us", "core.checkin_alloc_b": "B", "core.checkout_us": "us",
	"core.checkout_delta_us": "us", "core.export_state_us": "us",
	"core.delta_hit_ratio": "ratio", "core.batch_size_mean": "count",

	"hub.checkin_mem_us": "us", "hub.checkin_file_us": "us", "hub.checkin_fsync_us": "us",
	"hub.checkin_file_alloc_b": "B", "hub.checkpoint_saves": "count", "hub.rotations": "count", "hub.restore_us_per_entry": "us",

	"store.append_us": "us", "store.append_bytes": "B", "store.sync_us": "us",
	"store.save_us": "us", "store.rotate_us": "us", "store.cursor_next_us": "us",

	"wirecodec.encode_checkin_us": "us", "wirecodec.decode_checkin_us": "us",
	"wirecodec.encode_checkout_us": "us", "wirecodec.decode_checkout_us": "us",
	"wirecodec.decode_checkin_alloc_b": "B", "wirecodec.checkin_frame_bytes": "B", "wirecodec.checkout_frame_bytes": "B",

	"transport.handler_checkin_json_us": "us", "transport.handler_checkin_bin_us": "us",
	"transport.handler_checkout_json_us": "us", "transport.handler_checkout_bin_us": "us",
	"transport.handler_self_json_us": "us", "transport.handler_self_bin_us": "us",
	"transport.client_checkin_json_us": "us", "transport.client_checkin_bin_us": "us",
	"transport.client_checkout_json_us": "us", "transport.client_checkout_bin_us": "us",
	"transport.net_self_us": "us", "transport.req_bytes_checkin": "B",
	"transport.resp_bytes_checkout": "B", "transport.http_errors": "count",
	"transport.handler_checkin_alloc_b": "B",

	"shard.checkin_us": "us", "shard.checkout_us": "us", "shard.merge_us": "us",
	"shard.merges": "count", "shard.merge_staleness_iters": "count", "shard.load_skew": "ratio",

	"replica.apply_us": "us", "replica.feed_entry_us": "us", "replica.feed_bytes_per_entry": "B",
	"replica.lag_iters_mean": "count", "replica.bootstraps": "count", "replica.retries": "count",

	"telemetry.handler_overhead_us": "us",

	"trace.overhead_ratio": "ratio", "trace.untraced_cycles_per_s": "1/s",
	"trace.cycle_us": "us", "trace.self_sum_ratio": "ratio",
}

func zeroLayerMetrics() metricSet {
	m := metricSet{}
	for name, unit := range layerUnits {
		m.set(name, 0, unit)
	}
	return m
}

// ladderGroup is how many consecutive operations share one pair of
// clock reads: sub-microsecond rungs would otherwise measure the clock.
const ladderGroup = 20

// opCost is what one operation of a rung costs.
type opCost struct {
	us     float64 // median over groups of the mean microseconds per call
	allocB float64 // heap bytes allocated per call, whole process
}

// timeOps calls f(0..n-1) and returns the median, over groups of
// ladderGroup consecutive calls, of the mean time per call, and the
// bytes allocated per call over the whole rung.
func timeOps(n int, f func(i int) error) (opCost, error) {
	var perOp []float64
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for lo := 0; lo < n; lo += ladderGroup {
		hi := min(lo+ladderGroup, n)
		t0 := time.Now()
		for i := lo; i < hi; i++ {
			if err := f(i); err != nil {
				return opCost{}, fmt.Errorf("op %d: %w", i, err)
			}
		}
		perOp = append(perOp, float64(time.Since(t0))/1e3/float64(hi-lo))
	}
	runtime.ReadMemStats(&after)
	return opCost{us: median(perOp), allocB: float64(after.TotalAlloc-before.TotalAlloc) / float64(n)}, nil
}

// enroll registers the stream's devices on a rung's own server and
// returns their tokens.
func enroll(ctx context.Context, stream []recorded, register func(ctx context.Context, id string) (string, error)) (map[string]string, error) {
	tokens := map[string]string{}
	for _, rc := range stream {
		if _, ok := tokens[rc.dev.id]; ok {
			continue
		}
		tok, err := register(ctx, rc.dev.id)
		if err != nil {
			return nil, err
		}
		tokens[rc.dev.id] = tok
	}
	return tokens, nil
}

// checkinRung times Checkin over the stream against anything with the
// server's device-facing signature.
func checkinRung(ctx context.Context, stream []recorded, tokens map[string]string,
	checkin func(ctx context.Context, id, token string, req *core.CheckinRequest) error) (opCost, error) {
	return timeOps(len(stream), func(i int) error {
		rc := stream[i]
		return checkin(ctx, rc.dev.id, tokens[rc.dev.id], rc.req)
	})
}

// hubRung is the rung "hub task + a store": the core server with the
// hub's write-ahead journaling in front of its acknowledgments.
func hubRung(ctx context.Context, w *workload, stream []recorded, st store.Store, sync hub.SyncPolicy) (opCost, error) {
	h := hub.New()
	defer h.Close(ctx) //nolint:errcheck // a rung's throwaway hub
	opts := durableOptions(st, 1<<30, sync)
	t, err := h.CreateTask(ctx, taskID, w.serverConfig("leader", seams{}), opts...)
	if err != nil {
		return opCost{}, err
	}
	tokens, err := enroll(ctx, stream, t.Server().RegisterDevice)
	if err != nil {
		return opCost{}, err
	}
	return checkinRung(ctx, stream, tokens, t.Server().Checkin)
}

// memWriter is the in-memory http.ResponseWriter of the handler rungs.
type memWriter struct {
	header http.Header
	code   int
}

func (w *memWriter) Header() http.Header         { return w.header }
func (w *memWriter) WriteHeader(c int)           { w.code = c }
func (w *memWriter) Write(p []byte) (int, error) { return len(p), nil }

// handlerRung drives transport.Handler.ServeHTTP in memory — no TCP, no
// net/http server — with the stream encoded in the workload's wire
// format, and returns the checkin and checkout medians.
func handlerRung(ctx context.Context, w *workload, cfg runConfig, stream []recorded, noTelemetry bool) (checkin, checkout opCost, err error) {
	// The leader alone and nothing in the background: no follower
	// polling it, no checkpoint, no merger.
	leader := *w
	leader.follower = false
	st, err := buildStack(ctx, &leader, cfg.tmpRoot(), seams{afterN: 1 << 30, parkMerger: true, noTelemetry: noTelemetry})
	if err != nil {
		return opCost{}, opCost{}, err
	}
	defer st.close() //nolint:errcheck // a rung's throwaway stack
	base := transport.PathTasks + "/" + taskID
	serve := func(req *http.Request) (*memWriter, error) {
		mw := &memWriter{header: http.Header{}}
		st.handler.ServeHTTP(mw, req)
		if mw.code >= 300 {
			return nil, fmt.Errorf("%s %s: status %d", req.Method, req.URL.Path, mw.code)
		}
		return mw, nil
	}
	tokens, err := enroll(ctx, stream, func(ctx context.Context, id string) (string, error) {
		body, _ := json.Marshal(map[string]string{"deviceId": id})
		req, _ := http.NewRequestWithContext(ctx, http.MethodPost, base+"/register", bytes.NewReader(body))
		req.Header.Set("X-Crowdml-Enroll-Key", joinKey)
		var out struct{ Token string }
		mw := &memWriter{header: http.Header{}}
		rec := &bodyRecorder{memWriter: mw}
		st.handler.ServeHTTP(rec, req)
		if mw.code >= 300 {
			return "", fmt.Errorf("register: status %d", mw.code)
		}
		err := json.Unmarshal(rec.body.Bytes(), &out)
		return out.Token, err
	})
	if err != nil {
		return opCost{}, opCost{}, err
	}
	auth := func(req *http.Request, id string) {
		req.Header.Set("X-Crowdml-Device", id)
		req.Header.Set("X-Crowdml-Token", tokens[id])
	}
	// Requests are built before the clock starts: encoding them is the
	// client's cost, not the handler's.
	checkins := make([]*http.Request, len(stream))
	for i, rc := range stream {
		var body []byte
		ct := "application/json"
		if w.wireBinary() {
			body = wirecodec.AppendCheckin(nil, rc.req.Grad, rc.req.Version, rc.req.NumSamples, rc.req.ErrCount, rc.req.LabelCounts, false)
			ct = transport.ContentTypeBinary
		} else if body, err = json.Marshal(rc.req); err != nil {
			return opCost{}, opCost{}, err
		}
		req, _ := http.NewRequestWithContext(ctx, http.MethodPost, base+"/checkin", bytes.NewReader(body))
		req.Header.Set("Content-Type", ct)
		auth(req, rc.dev.id)
		checkins[i] = req
	}
	checkin, err = timeOps(len(stream), func(i int) error {
		_, err := serve(checkins[i])
		return err
	})
	if err != nil {
		return opCost{}, opCost{}, err
	}
	url := base + "/checkout"
	if w.wire == transport.WireBinaryDelta {
		url += "?since=" + strconv.Itoa(w.deltaBase(len(stream)))
	}
	checkouts := make([]*http.Request, len(stream))
	for i, rc := range stream {
		req, _ := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
		if w.wireBinary() {
			req.Header.Set("Accept", transport.ContentTypeBinary)
		}
		auth(req, rc.dev.id)
		checkouts[i] = req
	}
	checkout, err = timeOps(len(stream), func(i int) error {
		_, err := serve(checkouts[i])
		return err
	})
	return checkin, checkout, err
}

// deltaBase is the ?since= a delta checkout of a server at iteration n
// typically carries on this workload. A portal-style reader is up to
// date most of the time (the empty delta the ring exists for); a device
// in a crowd never is — someone checked in since its last cycle and
// every parameter moved, so it gets the dense form.
func (w *workload) deltaBase(n int) int {
	if w.follower {
		return n
	}
	return n - 1
}

// bodyRecorder keeps a response body (the register rung needs the token).
type bodyRecorder struct {
	*memWriter
	body bytes.Buffer
}

func (b *bodyRecorder) Write(p []byte) (int, error) { return b.body.Write(p) }

// runLadder times each layer directly, bottom up, on the replay's
// checkin stream. Each rung adds one layer to the rung below, so a
// layer without a seam gets its self time as a difference of rungs.
func runLadder(ctx context.Context, w *workload, cfg runConfig, cr *crowd, stream []recorded, m metricSet) error {
	wire := "json"
	if w.wireBinary() {
		wire = "bin"
	}
	n := len(stream)

	// Rung: Updater.Update.
	up := &optimizer.SGD{Schedule: optimizer.InvSqrt{C: learningRate}}
	params := model.NewParams(cr.model)
	grads := make([]*linalg.Matrix, n)
	for i, rc := range stream {
		g, err := linalg.NewMatrixFrom(w.classes, w.dim, rc.req.Grad)
		if err != nil {
			return err
		}
		grads[i] = g
	}
	update, _ := timeOps(n, func(i int) error { up.Update(params, grads[i], i+1); return nil })
	m.set("optimizer.update_us", update.us, "us")

	// Rung: core.Server.
	srv, err := core.NewServer(w.serverConfig("leader", seams{}))
	if err != nil {
		return err
	}
	tokens, err := enroll(ctx, stream, srv.RegisterDevice)
	if err != nil {
		return err
	}
	coreCheckin, err := checkinRung(ctx, stream, tokens, srv.Checkin)
	if err != nil {
		return err
	}
	m.set("core.checkin_us", coreCheckin.us, "us")
	m.set("core.checkin_self_us", coreCheckin.us-update.us, "us")
	m.set("core.checkin_alloc_b", coreCheckin.allocB, "B")
	coreCheckout, err := timeOps(n, func(i int) error {
		_, err := srv.Checkout(ctx, stream[i].dev.id, tokens[stream[i].dev.id])
		return err
	})
	if err != nil {
		return err
	}
	m.set("core.checkout_us", coreCheckout.us, "us")
	below := coreCheckout.us // what the handler's checkout sits on
	if w.wire == transport.WireBinaryDelta {
		delta, err := timeOps(n, func(i int) error {
			_, err := srv.CheckoutDelta(ctx, stream[i].dev.id, tokens[stream[i].dev.id], w.deltaBase(n))
			return err
		})
		if err != nil {
			return err
		}
		m.set("core.checkout_delta_us", delta.us, "us")
		below = delta.us
	}
	belowCheckin := coreCheckin.us

	// Rungs: hub task + MemStore → + FileStore → + SyncBatch, and what
	// durability costs off the request path.
	if w.durable {
		export, _ := timeOps(5*ladderGroup, func(int) error { srv.ExportState(); return nil })
		m.set("core.export_state_us", export.us, "us")

		mem, err := hubRung(ctx, w, stream, store.NewMemStore(), hub.SyncNone)
		if err != nil {
			return err
		}
		m.set("hub.checkin_mem_us", mem.us, "us")
		for _, rung := range []struct {
			metric string
			sync   hub.SyncPolicy
		}{{"hub.checkin_file_us", hub.SyncNone}, {"hub.checkin_fsync_us", hub.SyncBatch}} {
			dir, err := os.MkdirTemp(cfg.tmpRoot(), "rung-")
			if err != nil {
				return err
			}
			fs, err := store.NewFileStore(filepath.Join(dir, taskID))
			if err != nil {
				return err
			}
			cost, err := hubRung(ctx, w, stream, fs, rung.sync)
			if rerr := os.RemoveAll(dir); err == nil {
				err = rerr
			}
			if err != nil {
				return err
			}
			m.set(rung.metric, cost.us, "us")
			if rung.sync == hub.SyncNone {
				m.set("hub.checkin_file_alloc_b", cost.allocB, "B")
			}
		}
		belowCheckin = m["hub.checkin_file_us"].Value

		secs, entries, err := timeRecovery(ctx, w, cr, cfg.tmpRoot(), 1)
		if err != nil {
			return err
		}
		m.set("hub.restore_us_per_entry", secs*1e6/float64(entries), "us")
	}

	// Rung: wirecodec alone, on the frames this workload's wire carries.
	if w.wireBinary() {
		if err := codecRung(stream, srv.ParamView().Params, m); err != nil {
			return err
		}
	}

	// Rung: transport.Handler.ServeHTTP in memory, registry on and off.
	hin, hout, err := handlerRung(ctx, w, cfg, stream, false)
	if err != nil {
		return err
	}
	m.set("transport.handler_checkin_"+wire+"_us", hin.us, "us")
	m.set("transport.handler_checkout_"+wire+"_us", hout.us, "us")
	m.set("transport.handler_self_"+wire+"_us", hin.us+hout.us-belowCheckin-below, "us")
	m.set("transport.handler_checkin_alloc_b", hin.allocB, "B")
	offIn, offOut, err := handlerRung(ctx, w, cfg, stream, true)
	if err != nil {
		return err
	}
	m.set("telemetry.handler_overhead_us", hin.us+hout.us-offIn.us-offOut.us, "us")

	// Rung: shard.Group called directly (the router without HTTP).
	if w.shards > 0 {
		if err := shardRung(ctx, w, stream, m); err != nil {
			return err
		}
	}
	// Rung: what a follower does per shipped entry.
	if w.follower {
		if err := replicaRung(w, stream, m); err != nil {
			return err
		}
	}
	return nil
}

// codecRung times the binary codec on the stream's checkin frames and
// on a full checkout frame of the final parameters.
func codecRung(stream []recorded, params []float64, m metricSet) error {
	n := len(stream)
	var buf []byte
	frames := make([][]byte, n)
	encIn, _ := timeOps(n, func(i int) error {
		r := stream[i].req
		buf = wirecodec.AppendCheckin(buf[:0], r.Grad, r.Version, r.NumSamples, r.ErrCount, r.LabelCounts, false)
		return nil
	})
	for i, rc := range stream {
		r := rc.req
		frames[i] = wirecodec.AppendCheckin(nil, r.Grad, r.Version, r.NumSamples, r.ErrCount, r.LabelCounts, false)
	}
	decIn, err := timeOps(n, func(i int) error {
		_, err := wirecodec.Decode(frames[i])
		return err
	})
	if err != nil {
		return err
	}
	encOut, _ := timeOps(n, func(i int) error {
		buf = wirecodec.AppendCheckout(buf[:0], params, i, false, -1, nil, nil, false)
		return nil
	})
	full := wirecodec.AppendCheckout(nil, params, n, false, -1, nil, nil, false)
	decOut, err := timeOps(n, func(int) error {
		_, err := wirecodec.Decode(full)
		return err
	})
	if err != nil {
		return err
	}
	m.set("wirecodec.encode_checkin_us", encIn.us, "us")
	m.set("wirecodec.decode_checkin_us", decIn.us, "us")
	m.set("wirecodec.decode_checkin_alloc_b", decIn.allocB, "B")
	m.set("wirecodec.encode_checkout_us", encOut.us, "us")
	m.set("wirecodec.decode_checkout_us", decOut.us, "us")
	m.set("wirecodec.checkin_frame_bytes", float64(len(frames[0])), "B")
	m.set("wirecodec.checkout_frame_bytes", float64(len(full)), "B")
	return nil
}

// shardRung calls the router directly: checkin, merged checkout, and a
// merge after every mergeEveryCycles checkins.
func shardRung(ctx context.Context, w *workload, stream []recorded, m metricSet) error {
	h := hub.New()
	defer h.Close(ctx) //nolint:errcheck // a rung's throwaway hub
	g, err := shard.New(ctx, h, taskID,
		func(int) core.ServerConfig { return w.serverConfig("leader", seams{}) },
		shard.WithShards(w.shards), shard.WithMergeInterval(time.Hour))
	if err != nil {
		return err
	}
	defer g.Close(ctx) //nolint:errcheck // a rung's throwaway group
	tokens, err := enroll(ctx, stream, g.Register)
	if err != nil {
		return err
	}
	var merges []float64
	in, err := timeOps(len(stream), func(i int) error {
		rc := stream[i]
		return g.Checkin(ctx, rc.dev.id, tokens[rc.dev.id], rc.req)
	})
	if err != nil {
		return err
	}
	out, err := timeOps(len(stream), func(i int) error {
		_, err := g.Checkout(ctx, stream[i].dev.id, tokens[stream[i].dev.id])
		return err
	})
	if err != nil {
		return err
	}
	// Merges with fresh member progress behind each: replay another
	// stretch of the stream between them.
	for lo := 0; lo+mergeEveryCycles <= len(stream); lo += mergeEveryCycles {
		for _, rc := range stream[lo : lo+mergeEveryCycles] {
			if err := g.Checkin(ctx, rc.dev.id, tokens[rc.dev.id], rc.req); err != nil {
				return err
			}
		}
		t0 := time.Now()
		g.Merge()
		merges = append(merges, float64(time.Since(t0))/1e3)
	}
	m.set("shard.checkin_us", in.us, "us")
	m.set("shard.checkout_us", out.us, "us")
	m.set("shard.merge_us", median(merges), "us")
	return nil
}

// replicaRung times what one shipped journal entry costs a follower:
// the feed's encode + decode, and Server.Replay applying it.
func replicaRung(w *workload, stream []recorded, m metricSet) error {
	entries := make([]store.JournalEntry, len(stream))
	records := make([]core.ReplayRecord, len(stream))
	for i, rc := range stream {
		entries[i] = store.JournalEntry{
			AtUnixMillis: int64(i), DeviceID: rc.dev.id, Iteration: i + 1,
			NumSamples: rc.req.NumSamples, ErrCount: rc.req.ErrCount, GradNorm1: linalg.Norm1(rc.req.Grad),
			Grad: rc.req.Grad, LabelCounts: rc.req.LabelCounts, Version: min(rc.req.Version, i),
		}
		records[i] = core.ReplayRecord{DeviceID: rc.dev.id, Iteration: i + 1, Req: rc.req}
	}
	var wireBuf bytes.Buffer
	fw := store.NewFeedWriter(&wireBuf)
	encUs, err := timeOps(len(entries), func(i int) error { return fw.WriteEntry(entries[i]) })
	if err != nil {
		return err
	}
	if err := fw.WriteEOS(len(entries)); err != nil {
		return err
	}
	size := wireBuf.Len()
	fr := store.NewFeedReader(&wireBuf)
	decUs, err := timeOps(len(entries), func(int) error {
		_, err := fr.Next()
		return err
	})
	if err != nil {
		return err
	}
	if _, err := fr.Next(); !errors.Is(err, io.EOF) {
		return fmt.Errorf("feed did not end cleanly: %v", err)
	}
	m.set("replica.feed_entry_us", encUs.us+decUs.us, "us")
	m.set("replica.feed_bytes_per_entry", float64(size)/float64(len(entries)), "B")

	srv, err := core.NewServer(w.serverConfig("follower", seams{}))
	if err != nil {
		return err
	}
	// One Replay call per entry, the way a caught-up follower applies a
	// live tail.
	applyUs, err := timeOps(len(records), func(i int) error {
		_, err := srv.Replay(core.ReplaySlice(records[i : i+1]))
		return err
	})
	if err != nil {
		return err
	}
	m.set("replica.apply_us", applyUs.us, "us")
	return nil
}
