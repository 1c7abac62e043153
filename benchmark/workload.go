package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"github.com/crowdml/crowdml/internal/core"
	"github.com/crowdml/crowdml/internal/dataset"
	"github.com/crowdml/crowdml/internal/hub"
	"github.com/crowdml/crowdml/internal/linalg"
	"github.com/crowdml/crowdml/internal/model"
	"github.com/crowdml/crowdml/internal/optimizer"
	"github.com/crowdml/crowdml/internal/privacy"
	"github.com/crowdml/crowdml/internal/replica"
	"github.com/crowdml/crowdml/internal/rng"
	"github.com/crowdml/crowdml/internal/shard"
	"github.com/crowdml/crowdml/internal/store"
	"github.com/crowdml/crowdml/internal/telemetry"
	"github.com/crowdml/crowdml/internal/transport"
)

// Constants of the load model, shared by every workload. They are part
// of the ruler: changing one invalidates every earlier baseline.
const (
	taskID  = "crowd"
	joinKey = "crowdbench-join"

	// poolSize virtual device identities are registered per stack and
	// multiplexed over the client goroutines.
	poolSize = 2000
	// minibatch is b of Algorithm 1: samples per flush cycle.
	minibatch = 20
	// The paper's ε⁻¹ settings used by the scenario harness too.
	gradEpsInv  = 0.05
	countEpsInv = 1.0
	// learningRate is c in η(t) = c/√t.
	learningRate = 8.0

	// latencyLimit is the service limit of within_limit_share: a paced
	// request must be done this long after it was due.
	latencyLimit = 10 * time.Millisecond

	shardMergeEvery = 50 * time.Millisecond
)

// workload is one frozen traffic mix and topology.
type workload struct {
	name string
	// shape of the logistic-regression task.
	classes, dim int
	// trainSize/testSize of the generated mixture; trainSize/minibatch
	// distinct minibatches are cycled over the device pool.
	trainSize, testSize int
	// noiseScale is the mixture's within-class spread: 2.2 is the
	// repo's "mnist-like" difficulty.
	noiseScale float64
	wire       transport.WireFormat
	durable    bool // leader journals into a FileStore
	// checkpointAfterN is the durable leader's checkpoint (and journal
	// rotation) trigger, sized so several complete inside a phase.
	checkpointAfterN int
	follower         bool // a replica serves the reads
	// followerPoll is the replica's feed poll interval.
	followerPoll time.Duration
	shards       int // >0: shard.Group behind the router
	// pacedRate is the open-loop rate of the workload's primary
	// operation (device cycles; follower checkouts on follower_reads),
	// whole crowd, per second.
	pacedRate float64
	// writerRate is the fixed cycle rate of follower_reads' one writer,
	// in both phases.
	writerRate float64
	// churnEvery re-registers a cycle's device before every N-th cycle.
	churnEvery int
	// replayCycles is the length of the traced single-client replay,
	// and replayAfterN / replayPoll its checkpoint trigger and follower
	// poll: the replay is too short to reach the production trigger, and
	// it waits for the follower after every write, so a production poll
	// interval would make it mostly waiting.
	replayCycles int
	replayAfterN int
	replayPoll   time.Duration
	// maxTestErr fails the run when the final model is worse: a server
	// that skips updates stays at the 0.9 of chance.
	maxTestErr float64
}

// workloads is the frozen set, in BENCHMARK.json order. Rates were
// fixed from the first runs on the 2-core reference box (each at most
// half the measured saturation rate) and thresholds from the first
// runs' test errors; see README.md.
var workloads = []workload{
	{name: "crowd_json", classes: 10, dim: 50, trainSize: 8000, testSize: 1000, noiseScale: 2.2,
		wire: transport.WireJSON, pacedRate: 600, replayCycles: 2000, maxTestErr: 0.30},
	{name: "crowd_durable", classes: 10, dim: 50, trainSize: 8000, testSize: 1000, noiseScale: 2.2,
		wire: transport.WireBinaryDelta, durable: true, checkpointAfterN: 512, pacedRate: 1000,
		replayCycles: 2000, replayAfterN: 512, maxTestErr: 0.30},
	// follower_reads is sized so that its reader's generator gets a
	// processor when its slot is due (README, "follower_reads was
	// re-sized"): a 14×14 image instead of the issue's 28×28, the server's
	// default follow-poll, a short live journal segment, and 40 reads per
	// write as in the issue (2,000 : 50).
	{name: "follower_reads", classes: 10, dim: 196, trainSize: 2000, testSize: 500, noiseScale: 1.4,
		wire: transport.WireBinaryDelta, durable: true, checkpointAfterN: 4,
		follower: true, followerPoll: 250 * time.Millisecond,
		pacedRate: 400, writerRate: 10,
		replayCycles: 160, replayAfterN: 4, replayPoll: 2 * time.Millisecond, maxTestErr: 0.60},
	{name: "crowd_sharded4", classes: 10, dim: 50, trainSize: 8000, testSize: 1000, noiseScale: 2.2,
		wire: transport.WireJSON, shards: 4, pacedRate: 600, churnEvery: 50,
		replayCycles: 2000, maxTestErr: 0.30},
}

func workloadByName(name string) (*workload, bool) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], true
		}
	}
	return nil, false
}

// seams are the wrappers a traced run installs at the program's public
// interfaces. The zero value wraps nothing, so an untraced stack holds
// the program's own objects only.
type seams struct {
	handler func(role string, h http.Handler) http.Handler
	updater func(role string, u optimizer.Updater) optimizer.Updater
	store   func(st store.Store) store.Store
	// afterN and poll override the workload's checkpoint trigger and
	// follower poll interval when positive.
	afterN int
	poll   time.Duration
	// parkMerger stops the sharded tier's wall-clock merger: the caller
	// merges at fixed points so its run repeats exactly.
	parkMerger bool
	// noTelemetry builds the stack without a metrics registry (the
	// telemetry ladder rung).
	noTelemetry bool
}

// replaySeams builds the stack for a single-client replay: the
// workload's replay checkpoint trigger and follower poll, and the merger
// parked.
func (w *workload) replaySeams() seams {
	return seams{afterN: w.replayAfterN, poll: w.replayPoll, parkMerger: true}
}

func (s seams) wrapHandler(role string, h http.Handler) http.Handler {
	if s.handler == nil {
		return h
	}
	return s.handler(role, h)
}

func (s seams) wrapUpdater(role string, u optimizer.Updater) optimizer.Updater {
	if s.updater == nil {
		return u
	}
	return s.updater(role, u)
}

func (s seams) wrapStore(st store.Store) store.Store {
	if s.store == nil {
		return st
	}
	return s.store(st)
}

// stack is one running topology, wired from the real layers the way
// cmd/crowdml-server wires them: hub, transport.Handler with enrollment
// and the telemetry registry on, net/http over loopback TCP.
type stack struct {
	w *workload

	leaderURL string // writes, and reads unless there is a follower
	readURL   string // where devices check out

	leaderHub   *hub.Hub
	leaderTask  *hub.Task    // nil when sharded
	group       *shard.Group // nil unless sharded
	followerHub *hub.Hub
	follower    *hub.Task
	// handler is the leader's transport handler before it is mounted on
	// the serving mux; the ladder drives it in memory.
	handler http.Handler

	stateDir string // durable leader's store root ("" otherwise)

	closers []func() error // run in reverse
}

// serverConfig is one task's configuration. Updaters are stateful in
// general, so every server gets a fresh one.
func (w *workload) serverConfig(role string, s seams) core.ServerConfig {
	return core.ServerConfig{
		Model:   w.model(),
		Updater: s.wrapUpdater(role, &optimizer.SGD{Schedule: optimizer.InvSqrt{C: learningRate}}),
	}
}

// wireBinary reports whether devices speak wirecodec frames.
func (w *workload) wireBinary() bool { return w.wire != transport.WireJSON }

func (w *workload) model() model.Model {
	return model.NewLogisticRegression(w.classes, w.dim)
}

// durableOptions mirrors createTask in cmd/crowdml-server with
// -state-dir: FileStore, the default SyncNone and KeepAll, and a count
// trigger so checkpoints (and the rotations behind them) complete
// several times inside a run.
func durableOptions(st store.Store, afterN int, sync hub.SyncPolicy) []hub.TaskOption {
	return []hub.TaskOption{
		hub.WithStore(st),
		hub.WithCheckpointPolicy(hub.CheckpointPolicy{AfterN: afterN}),
		hub.WithSyncPolicy(sync),
		hub.WithRetention(hub.KeepAll),
	}
}

// listenAndServe mounts h the way the server binary does and serves it
// on a loopback port.
func listenAndServe(h http.Handler) (url string, closeFn func() error, err error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, fmt.Errorf("listen: %w", err)
	}
	mux := http.NewServeMux()
	mux.Handle("/", h)
	srv := &http.Server{Handler: mux, ReadHeaderTimeout: 10 * time.Second}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = srv.Serve(ln) // returns ErrServerClosed on Close
	}()
	return "http://" + ln.Addr().String(), func() error {
		err := srv.Close()
		<-done
		return err
	}, nil
}

func newHandler(h *hub.Hub, reg *telemetry.Registry) *transport.Handler {
	hd := transport.NewHandler(h)
	hd.EnableEnrollment(joinKey)
	hd.EnableMetrics(reg)
	return hd
}

// buildStack assembles the workload's topology. tmpRoot is where a
// durable leader keeps its state directory.
func buildStack(ctx context.Context, w *workload, tmpRoot string, s seams) (st *stack, err error) {
	st = &stack{w: w}
	defer func() {
		if err != nil {
			_ = st.close()
		}
	}()
	var reg *telemetry.Registry
	if !s.noTelemetry {
		reg = telemetry.NewRegistry()
	}
	st.leaderHub = hub.New()
	st.closers = append(st.closers, func() error { return st.leaderHub.Close(context.Background()) })

	var taskOpts []hub.TaskOption
	if reg != nil {
		taskOpts = append(taskOpts, hub.WithMetrics(reg))
	}
	if w.durable {
		if err := os.MkdirAll(tmpRoot, 0o755); err != nil {
			return nil, err
		}
		st.stateDir, err = os.MkdirTemp(tmpRoot, "state-")
		if err != nil {
			return nil, err
		}
		fs, err := store.NewFileStore(filepath.Join(st.stateDir, taskID))
		if err != nil {
			return nil, err
		}
		afterN := w.checkpointAfterN
		if s.afterN > 0 {
			afterN = s.afterN
		}
		taskOpts = append(taskOpts, durableOptions(s.wrapStore(fs), afterN, hub.SyncNone)...)
	}

	if w.shards > 0 {
		every := shardMergeEvery
		if s.parkMerger {
			every = time.Hour
		}
		opts := []shard.Option{shard.WithShards(w.shards), shard.WithMergeInterval(every)}
		if reg != nil {
			opts = append(opts, shard.WithMetrics(reg))
		}
		st.group, err = shard.New(ctx, st.leaderHub, taskID,
			func(int) core.ServerConfig { return w.serverConfig("leader", s) }, opts...)
		if err != nil {
			return nil, err
		}
		st.closers = append(st.closers, func() error { return st.group.Close(context.Background()) })
	} else {
		st.leaderTask, err = st.leaderHub.CreateTask(ctx, taskID, w.serverConfig("leader", s), taskOpts...)
		if err != nil {
			return nil, err
		}
	}
	st.handler = newHandler(st.leaderHub, reg)
	url, closeSrv, err := listenAndServe(s.wrapHandler("leader", st.handler))
	if err != nil {
		return nil, err
	}
	st.closers = append(st.closers, closeSrv)
	st.leaderURL, st.readURL = url, url

	if w.follower {
		if err := st.addFollower(ctx, s); err != nil {
			return nil, err
		}
	}
	return st, nil
}

// addFollower starts a read replica of the leader task the way
// crowdml-server -follow does: leader-vouched auth, no local store, a
// Replicator tailing the leader's journal feed. The follower is another
// process in production, so it gets its own registry.
func (st *stack) addFollower(ctx context.Context, s seams) error {
	var reg *telemetry.Registry
	if !s.noTelemetry {
		reg = telemetry.NewRegistry()
	}
	feed := transport.NewHTTPClient(st.leaderURL, nil).WithTask(taskID).WithRetry(transport.RetryPolicy{})
	cfg := st.w.serverConfig("follower", s)
	cfg.AuthFallback = feed.AuthProbe
	st.followerHub = hub.New()
	st.closers = append(st.closers, func() error { return st.followerHub.Close(context.Background()) })
	opts := []hub.TaskOption{hub.AsReplicaOf(st.leaderURL)}
	if reg != nil {
		opts = append(opts, hub.WithMetrics(reg))
	}
	var err error
	st.follower, err = st.followerHub.CreateTask(ctx, taskID, cfg, opts...)
	if err != nil {
		return err
	}
	poll := st.w.followerPoll
	if s.poll > 0 {
		poll = s.poll
	}
	rep, err := replica.New(replica.Config{Task: st.follower, Feed: feed, PollInterval: poll, Metrics: reg})
	if err != nil {
		return err
	}
	repCtx, cancel := context.WithCancel(context.Background())
	rep.Start(repCtx)
	st.closers = append(st.closers, func() error { cancel(); rep.Stop(); return nil })
	url, closeSrv, err := listenAndServe(s.wrapHandler("follower", newHandler(st.followerHub, reg)))
	if err != nil {
		return err
	}
	st.closers = append(st.closers, closeSrv)
	st.readURL = url
	return nil
}

// shutdown stops the servers and closes the hubs (a durable leader
// flushes its final checkpoint), newest part first. It is idempotent
// and leaves the state directory in place.
func (st *stack) shutdown() error {
	var errs []error
	for i := len(st.closers) - 1; i >= 0; i-- {
		if err := st.closers[i](); err != nil && !errors.Is(err, http.ErrServerClosed) {
			errs = append(errs, err)
		}
	}
	st.closers = nil
	return errors.Join(errs...)
}

// close shuts the stack down and removes what it left on disk.
func (st *stack) close() error {
	err := st.shutdown()
	if st.stateDir != "" {
		err = errors.Join(err, os.RemoveAll(st.stateDir))
	}
	return err
}

// iteration is the leader-side iteration counter (Σ members when
// sharded).
func (st *stack) iteration() int {
	if st.group != nil {
		n := 0
		for _, t := range st.group.Members() {
			n += t.Server().Iteration()
		}
		return n
	}
	return st.leaderTask.Server().Iteration()
}

// device is one virtual device identity: credentials, its private noise
// stream and the minibatch it flushes.
type device struct {
	id    string
	token string
	noise *rng.RNG
	batch []model.Sample
}

// crowd is everything generated from the seed: the data, the device
// pool and the DP budget. The program under test only ever sees the
// requests these produce.
type crowd struct {
	w      *workload
	model  model.Model
	sens   float64
	budget privacy.Budget
	test   []model.Sample
	devs   []*device
	// acked counts acknowledged checkins over the crowd's whole life.
	acked atomic.Int64
}

// newCrowd generates the data and the device pool from the seed with
// split streams in a fixed order, then registers every device through
// the leader's HTTP enrollment route.
func newCrowd(ctx context.Context, w *workload, seed uint64, st *stack) (*crowd, error) {
	ds, err := dataset.GenerateMixture(dataset.MixtureConfig{
		Name: w.name, Classes: w.classes, Dim: w.dim,
		TrainSize: w.trainSize, TestSize: w.testSize,
		MeanScale: 1, NoiseScale: w.noiseScale, Seed: seed,
	})
	if err != nil {
		return nil, err
	}
	m := w.model()
	root := rng.New(seed)
	batches := dataset.Assign(ds.Train, w.trainSize/minibatch, root.Split())
	noiseRoot := root.Split()
	c := &crowd{
		w: w, model: m, sens: m.GradientSensitivity(), test: ds.Test,
		budget: privacy.Budget{
			Gradient:   privacy.FromInv(gradEpsInv),
			ErrCount:   privacy.FromInv(countEpsInv),
			LabelCount: privacy.FromInv(countEpsInv),
		},
	}
	enroll := transport.NewHTTPClient(st.leaderURL, nil).WithTask(taskID)
	for i := 0; i < poolSize; i++ {
		d := &device{
			id:    fmt.Sprintf("dev-%05d", i),
			noise: noiseRoot.Split(),
			batch: batches[i%len(batches)],
		}
		if d.token, err = enroll.Register(ctx, d.id, joinKey); err != nil {
			return nil, fmt.Errorf("register %s: %w", d.id, err)
		}
		c.devs = append(c.devs, d)
	}
	return c, nil
}

// cycleTimes are the instants of one Algorithm 1 flush.
type cycleTimes struct {
	checkoutDone time.Time // parameters received
	ready        time.Time // gradient sanitized: the checkin is due
	checkinDone  time.Time // acknowledged
}

// cycle runs one flush for d over tr: checkout → averaged minibatch
// gradient → local sanitization → checkin. tc (nil when tracing is off)
// records the device-side spans.
func (c *crowd) cycle(ctx context.Context, tr core.Transport, d *device, tc *traceCtx) (cycleTimes, *core.CheckinRequest, error) {
	var ct cycleTimes
	co, err := tr.Checkout(ctx, d.id, d.token)
	ct.checkoutDone = time.Now()
	if err != nil {
		return ct, nil, err
	}
	w, err := linalg.NewMatrixFrom(c.w.classes, c.w.dim, co.Params)
	if err != nil {
		return ct, nil, err
	}
	req := c.contribution(w, d, co.Version, tc)
	ct.ready = time.Now()
	err = tr.Checkin(ctx, d.id, d.token, req)
	ct.checkinDone = time.Now()
	return ct, req, err
}

// contribution is Device Routines 2 and 3 for d's minibatch against the
// parameters w: the averaged gradient and the counters, sanitized with
// d's own noise stream.
func (c *crowd) contribution(w *linalg.Matrix, d *device, version int, tc *traceCtx) *core.CheckinRequest {
	sp := tc.begin("device.gradient")
	g := optimizer.AverageGradient(c.model, w, d.batch, 0)
	errCount := 0
	labelCounts := make([]int, c.w.classes)
	for _, s := range d.batch {
		if c.model.Misclassified(w, s) {
			errCount++
		}
		labelCounts[s.Y]++
	}
	tc.end(sp)
	sp = tc.begin("device.sanitize")
	privacy.PerturbGradient(g, len(d.batch), c.sens, c.budget.Gradient, d.noise)
	errCount = privacy.SanitizeCount(errCount, c.budget.ErrCount, d.noise)
	labelCounts = privacy.SanitizeCounts(labelCounts, c.budget.LabelCount, d.noise)
	tc.end(sp)
	return &core.CheckinRequest{
		Grad: g.Data(), NumSamples: len(d.batch), ErrCount: errCount,
		LabelCounts: labelCounts, Version: version,
	}
}

// sampleCheckins returns the first n devices' contributions against the
// initial (zero) parameters: replayable journal payloads of the
// workload's shape for the prepared recovery store.
func (c *crowd) sampleCheckins(n int) []*core.CheckinRequest {
	w := model.NewParams(c.model)
	out := make([]*core.CheckinRequest, 0, n)
	for _, d := range c.devs[:n] {
		out = append(out, c.contribution(w, d, 0, nil))
	}
	return out
}

// connCounter counts the bytes that cross the connections one client
// dialed: both directions, HTTP headers included.
type connCounter struct {
	read, written atomic.Int64
}

func (cc *connCounter) total() int64 { return cc.read.Load() + cc.written.Load() }

type countedConn struct {
	net.Conn
	cc *connCounter
}

func (c countedConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.cc.read.Add(int64(n))
	return n, err
}

func (c countedConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.cc.written.Add(int64(n))
	return n, err
}

// client is one load-generator goroutine's connection to the stack: a
// transport clone with a single keep-alive connection, like one device
// process using crowdml.NewHTTPClient.
type client struct {
	conns connCounter
	http  *http.Client
	// tr is what the goroutine drives: the HTTPClient itself, or the
	// tracing wrapper around it.
	tr  core.Transport
	raw *transport.HTTPClient
}

// newClient dials baseURL lazily. wrapRT (nil when untraced) is the
// http.RoundTripper seam.
func newClient(baseURL string, wire transport.WireFormat, wrapRT func(http.RoundTripper) http.RoundTripper) *client {
	c := &client{}
	t := http.DefaultTransport.(*http.Transport).Clone()
	dialer := &net.Dialer{Timeout: 10 * time.Second, KeepAlive: 30 * time.Second}
	t.DialContext = func(ctx context.Context, network, addr string) (net.Conn, error) {
		conn, err := dialer.DialContext(ctx, network, addr)
		if err != nil {
			return nil, err
		}
		return countedConn{Conn: conn, cc: &c.conns}, nil
	}
	t.MaxConnsPerHost = 1
	var rt http.RoundTripper = t
	if wrapRT != nil {
		rt = wrapRT(rt)
	}
	c.http = &http.Client{Transport: rt, Timeout: 30 * time.Second}
	c.raw = transport.NewHTTPClient(baseURL, c.http).WithTask(taskID)
	if wire != transport.WireJSON {
		c.raw = c.raw.WithWire(wire)
	}
	c.tr = c.raw
	return c
}

func (c *client) close() {
	if t, ok := c.http.Transport.(interface{ CloseIdleConnections() }); ok {
		t.CloseIdleConnections()
	}
}
