package main

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"net/http"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"github.com/crowdml/crowdml/internal/core"
)

// recorded is one checkin request of a replay: the stream every ladder
// rung is fed.
type recorded struct {
	dev *device
	req *core.CheckinRequest
}

// mergeEveryCycles is when a replay on the sharded tier merges: the
// wall-clock merger is parked so the replay repeats exactly.
const mergeEveryCycles = 25

// replay runs n device cycles one after the other with ONE client
// goroutine, the same on every workload shape:
//
//   - crowd_*: client 0 runs cycle k for device k mod pool (with the
//     sharded workload's churn and a merge every mergeEveryCycles);
//   - follower_reads: client 0 writes cycle k to the leader, the replay
//     waits (untimed) until the follower has applied and published it,
//     then client 1 checks out on the follower.
//
// tc is nil for the untraced twin that tracing overhead is measured
// against. It returns the checkin stream and the cycles per second.
func (r *rig) replay(ctx context.Context, n int, tc *traceCtx) ([]recorded, float64, error) {
	w := r.st.w
	out := make([]recorded, 0, n)
	writer := r.clients[0]
	t0 := time.Now()
	for k := 0; k < n; k++ {
		d := r.crowd.devs[k%len(r.crowd.devs)]
		var root int32
		if tc != nil {
			root = tc.beginCycle(k)
		}
		if w.churnEvery > 0 && (k+1)%w.churnEvery == 0 {
			tok, err := writer.raw.Register(ctx, d.id, joinKey)
			if err != nil {
				return nil, 0, fmt.Errorf("cycle %d: register: %w", k, err)
			}
			d.token = tok
		}
		_, req, err := r.crowd.cycle(ctx, writer.tr, d, tc)
		if tc != nil {
			tc.endCycle(root)
		}
		if err != nil {
			return nil, 0, fmt.Errorf("cycle %d: %w", k, err)
		}
		r.crowd.acked.Add(1)
		out = append(out, recorded{dev: d, req: req})
		if r.st.group != nil && (k+1)%mergeEveryCycles == 0 {
			r.st.group.Merge()
		}
		if r.st.follower != nil {
			// Applied means published: Iteration() moves while Replay still
			// holds the parameter lock, and a checkout that arrives then is
			// served the previous snapshot (core's documented bounded
			// staleness). Replay publishes before it returns.
			want := int(r.crowd.acked.Load())
			for waited := time.Now(); r.st.follower.Server().SnapshotVersion() < want; {
				if time.Since(waited) > 30*time.Second {
					return nil, 0, fmt.Errorf("cycle %d: follower stuck at %d", k, r.st.follower.Server().SnapshotVersion())
				}
				runtime.Gosched()
			}
			if tc != nil {
				root = tc.beginRead(k)
			}
			co, err := r.clients[1].tr.Checkout(ctx, d.id, d.token)
			if tc != nil {
				tc.endCycle(root)
			}
			if err != nil {
				return nil, 0, fmt.Errorf("cycle %d: follower checkout: %w", k, err)
			}
			if co.Version < want {
				return nil, 0, fmt.Errorf("cycle %d: follower served version %d after publishing %d", k, co.Version, want)
			}
		}
	}
	return out, float64(n) / time.Since(t0).Seconds(), nil
}

// beginRead opens the root span of the follower checkout that follows
// cycle n's write.
func (tc *traceCtx) beginRead(n int) int32 {
	tc.t.cycle.Store(int32(n))
	return tc.begin("read")
}

// requestHash fingerprints a checkin stream: same seed, same hash.
func requestHash(stream []recorded) string {
	h := sha256.New()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	for _, rc := range stream {
		h.Write([]byte(rc.dev.id))
		put(uint64(rc.req.Version))
		put(uint64(rc.req.NumSamples))
		put(uint64(int64(rc.req.ErrCount)))
		for _, c := range rc.req.LabelCounts {
			put(uint64(int64(c)))
		}
		for _, g := range rc.req.Grad {
			put(math.Float64bits(g))
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// traceFile is trace.json.
type traceFile struct {
	Workload string     `json:"workload"`
	Seed     uint64     `json:"seed"`
	Cycles   int        `json:"cycles"`
	Note     string     `json:"note"`
	Summary  []spanStat `json:"summary"`
	Spans    []span     `json:"spans"`
}

// runTraced produces the per-layer numbers of one workload:
//
//  1. an untraced saturation phase, to scrape the counters the program
//     publishes under load;
//  2. an untraced and a traced single-client replay of replayCycles
//     cycles from the same seed (their rate ratio is the tracing
//     overhead, the traced one's spans give seam and self times);
//  3. the ladder: direct timed calls into each layer, fed the replay's
//     checkin stream, each rung adding one layer.
func runTraced(ctx context.Context, w *workload, cfg runConfig) (*workloadResult, error) {
	res := &workloadResult{Workload: w.name, Traced: true, Metrics: zeroLayerMetrics(), Samples: map[string]int{}}
	m, cycles := res.Metrics, w.replayCycles
	res.ReplayCycles = cycles

	// 1. Counters under load.
	r, _, err := setUp(ctx, w, cfg, seams{}, nil)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	warmRec := r.warm(ctx, cfg.warmup(), w.writerRate).all()
	plans, _ := r.plans(0, w.writerRate)
	satRun := runPhase(ctx, plans, time.Duration(cfg.seconds/4*float64(time.Second)))
	sat := satRun.all()
	res.Phases = append(res.Phases, phaseOf("saturation", satRun.elapsed, sat))
	res.Scrape = r.scrape(ctx)
	scrapeLayerMetrics(m, res.Scrape, r, sat, satRun.recs[0])
	res.Attempted, res.Failed = warmRec.attempted+sat.attempted, warmRec.failed+sat.failed
	res.Checks = append(res.Checks, verdict("iteration_equals_acked", r.st.iteration() == int(r.crowd.acked.Load()),
		"saturation: server iteration %d, acked %d", r.st.iteration(), r.crowd.acked.Load()))
	if err := r.close(); err != nil {
		return nil, err
	}

	// 2a. The untraced twin of the replay.
	if r, _, err = setUp(ctx, w, cfg, w.replaySeams(), nil); err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	_, untracedRate, err := r.replay(ctx, cycles, nil)
	if cerr := r.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, fmt.Errorf("untraced replay: %w", err)
	}

	// 2b. The traced replay.
	t := newTracer()
	tc := &traceCtx{t: t}
	if r, _, err = setUp(ctx, w, cfg, t.seams(w), tc); err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	defer r.close() //nolint:errcheck // closed explicitly on the success path
	stream, tracedRate, err := r.replay(ctx, cycles, tc)
	if err != nil {
		return nil, fmt.Errorf("traced replay: %w", err)
	}
	res.Attempted += 2 * 2 * cycles
	res.RequestHash = requestHash(stream)
	res.Checks = append(res.Checks, verdict("iteration_equals_acked", r.st.iteration() == cycles,
		"traced replay: server iteration %d, cycles %d", r.st.iteration(), cycles))
	res.Checks = append(res.Checks, r.checkWireEquality(ctx))
	if w.durable {
		bytes, err := dirBytes(filepath.Join(r.st.stateDir, taskID), "checkpoint.json", "LOCK")
		if err != nil {
			return nil, err
		}
		m.set("store.append_bytes", float64(bytes)/float64(cycles), "B")
	}
	// Close before reading the spans: the final checkpoint is a span too.
	if err := r.close(); err != nil {
		return nil, err
	}
	spans := t.snapshot()
	stats := summarise(spans)
	res.SpanCounts = stats
	spanLayerMetrics(m, w, t, stats, spans)
	m.set("trace.overhead_ratio", tracedRate/untracedRate, "ratio")
	m.set("trace.untraced_cycles_per_s", untracedRate, "1/s")

	// 3. The ladder.
	if err := runLadder(ctx, w, cfg, r.crowd, stream, m); err != nil {
		return nil, fmt.Errorf("ladder: %w", err)
	}

	note := "Spans come from benchmark-owned wrappers at the program's public interfaces; " +
		"parent 0 is a root, cycle -1 is background work nobody waited for. See benchmark/README.md."
	err = writeJSON(filepath.Join(cfg.outDir, "trace_"+w.name+".json"),
		traceFile{Workload: w.name, Seed: cfg.seed, Cycles: cycles, Note: note, Summary: stats, Spans: spans})
	if err != nil {
		return nil, err
	}
	res.Correct = res.Failed == 0 && t.httpErrors.Load() == 0
	for _, c := range res.Checks {
		res.Correct = res.Correct && c.OK
	}
	return res, nil
}

// scrapeLayerMetrics fills the per-layer metrics that are counters the
// program publishes, read after the saturation phase, plus the two the
// phase's own records give (replica lag in iterations, shard load skew).
func scrapeLayerMetrics(m metricSet, scrape map[string]float64, r *rig, sat, writer *recorder) {
	if n := scrape["crowdml_checkin_batch_size_count"]; n > 0 {
		m.set("core.batch_size_mean", scrape["crowdml_checkin_batch_size_sum"]/n, "count")
	}
	m.set("hub.checkpoint_saves", scrape["crowdml_checkpoint_saves_total"], "count")
	m.set("hub.rotations", scrape["crowdml_journal_rotations_total"], "count")
	m.set("shard.merges", scrape["crowdml_shard_merges_total"], "count")
	m.set("shard.merge_staleness_iters", scrape["crowdml_shard_merge_staleness_iterations"], "count")
	m.set("replica.bootstraps", scrape["follower:crowdml_replica_bootstraps_total"], "count")
	m.set("replica.retries", scrape["follower:crowdml_replica_retries_total"], "count")
	if g := r.st.group; g != nil {
		var most, total float64
		members := g.Members()
		for _, t := range members {
			it := float64(t.Server().Iteration())
			most, total = max(most, it), total+it
		}
		if total > 0 {
			m.set("shard.load_skew", most/(total/float64(len(members))), "ratio")
		}
	}
	if r.st.follower != nil && len(sat.obs) > 0 {
		// Iterations a follower checkout trailed the leader by: acks the
		// writer had received when it returned, minus its version.
		acks := writer.acks
		var sum float64
		for _, o := range sat.obs {
			acked := sort.Search(len(acks), func(i int) bool { return acks[i].at.After(o.at) })
			if acked > 0 {
				sum += math.Max(float64(acks[acked-1].iteration-o.version), 0)
			}
		}
		m.set("replica.lag_iters_mean", sum/float64(len(sat.obs)), "count")
	}
}

// spanLayerMetrics fills the per-layer metrics the traced replay's
// spans and counters give.
func spanLayerMetrics(m metricSet, w *workload, t *tracer, stats []spanStat, spans []span) {
	wire := "json"
	if w.wireBinary() {
		wire = "bin"
	}
	us := func(name, role string) float64 { return findStat(stats, name, role).MedianUs }
	m.set("optimizer.avg_gradient_us", us("device.gradient", ""), "us")
	m.set("privacy.sanitize_us", us("device.sanitize", ""), "us")
	m.set("optimizer.update_calls", float64(findStat(stats, "updater.update", "leader").Count), "count")
	m.set("store.append_us", us("store.append", "leader"), "us")
	m.set("store.sync_us", us("store.sync", "leader"), "us")
	m.set("store.save_us", us("store.save", "leader"), "us")
	m.set("store.rotate_us", us("store.rotate", "leader"), "us")
	m.set("store.cursor_next_us", us("store.cursor_next", "leader"), "us")
	m.set("transport.client_checkin_"+wire+"_us", us("client.checkin", ""), "us")
	m.set("transport.client_checkout_"+wire+"_us", us("client.checkout", ""), "us")
	m.set("transport.net_self_us", findStat(stats, "http.roundtrip", "").SelfMedianUs, "us")
	m.set("transport.http_errors", float64(t.httpErrors.Load()), "count")
	if n := t.checkinReqs.Load(); n > 0 {
		m.set("transport.req_bytes_checkin", float64(t.checkinBytes.Load())/float64(n), "B")
	}
	if n := t.checkouts.Load(); n > 0 {
		m.set("transport.resp_bytes_checkout", float64(t.checkoutBytes.Load())/float64(n), "B")
	}
	if n := t.deltaAttempts.Load(); n > 0 {
		m.set("core.delta_hit_ratio", float64(t.deltaHits.Load())/float64(n), "ratio")
	}
	// The spans of one cycle form a tree, so their self times add up to
	// the roots' durations unless a child outlives its parent.
	self := selfTimes(spans)
	var selfSum, rootSum float64
	for i, s := range spans {
		if s.Cycle < 0 || s.End <= s.Start {
			continue
		}
		selfSum += float64(self[i])
		if s.Parent == 0 {
			rootSum += float64(s.End - s.Start)
		}
	}
	m.set("trace.cycle_us", us("cycle", ""), "us")
	if rootSum > 0 {
		m.set("trace.self_sum_ratio", selfSum/rootSum, "ratio")
	}
}

// wrapRoundTripper is the http.RoundTripper seam of a traced client.
func (tc *traceCtx) wrapRoundTripper(rt http.RoundTripper) http.RoundTripper {
	return tracedRoundTripper{inner: rt, tc: tc}
}
