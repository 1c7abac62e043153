package core

import (
	"context"
	"crypto/rand"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"github.com/crowdml/crowdml/internal/linalg"
	"github.com/crowdml/crowdml/internal/model"
	"github.com/crowdml/crowdml/internal/optimizer"
)

// The batched applier's limits (see batch.go). checkinBatchSize is the
// most queued checkins one batch leader applies per acquisition of the
// parameter lock: larger batches amortize lock traffic and snapshot
// publication under load, and a batch of 1 (the uncontended case) behaves
// exactly like an unbatched server. checkinQueueDepth is the capacity of
// the pending-checkin channel; Checkin is synchronous, so every queued
// item already has its caller blocked behind it and the depth bounds no
// memory the callers' goroutines do not.
const (
	checkinBatchSize  = 32
	checkinQueueDepth = 4 * checkinBatchSize
)

// ServerConfig configures a Crowd-ML server (Algorithm 2 inputs).
type ServerConfig struct {
	// Model defines the classifier (C, h, l of Eq. 2). Required.
	Model model.Model
	// Updater applies the parameter update of Eq. (3); required.
	// The paper's default is SGD with η(t) = c/√t.
	Updater optimizer.Updater
	// Tmax is the maximum number of iterations (checkins); 0 means
	// unbounded.
	Tmax int
	// TargetError is the desired overall error ρ; the server stops when
	// the running estimate ΣN_e/ΣN_s drops to ρ or below, once ΣN_s is at
	// least 10 × C (the model's class count), so a couple of lucky early
	// checkins cannot stop the task. 0 disables.
	TargetError float64
	// AuthFallback, if non-nil, is consulted when a device presents
	// credentials this server does not recognize: it receives the device
	// ID and token and returns nil to vouch for them. On success the
	// credential is provisioned locally (cached), so the fallback runs
	// once per unknown device, not once per request. This is how a
	// follower replica serves authenticated checkouts for devices that
	// registered on the leader — credentials are deliberately never part
	// of replicated state (see ServerState), so the replica verifies them
	// against the leader instead. A non-nil error keeps the original
	// ErrAuth; the fallback's own failure is never surfaced to the device
	// (it must not learn whether the fallback was even attempted).
	AuthFallback func(ctx context.Context, deviceID, token string) error
	// OnCommit, if non-nil, is the commit point of every batch that
	// applied at least one checkin: the batch leader calls it once, outside
	// the parameter lock and BEFORE any of the batch's Checkin calls
	// return, with one record per applied checkin in strictly increasing
	// iteration order — the record Replay takes back. Checkins rejected by
	// the stopping rule or aborted by a panic never appear. This is where a
	// durability sink (the hub's write-ahead journal) appends and syncs
	// once per batch, so every acknowledgment stands on it. A slow sink
	// back-pressures later checkins but never blocks checkouts or
	// statistics reads. The requests are sanitized, hence safe to log.
	//
	// Lifetime contract: records and each Req (with its Grad and
	// LabelCounts) are only valid until OnCommit returns. The server
	// reuses the slice for the next batch, and Checkin's caller may reuse
	// req the moment Checkin returns — the HTTP handler decodes every
	// gradient into a pooled scratch and does exactly that — so a sink
	// that keeps anything must copy it (as the hub's journal does).
	OnCommit func(records []ReplayRecord)
	// Metrics receives operational telemetry from the device-facing hot
	// paths (see NewServerMetrics for the series). Recording is lock-free
	// atomic adds on pre-bound handles; nil disables telemetry at the cost
	// of one branch per handle.
	Metrics *ServerMetrics
}

// DeviceStats are the server's per-device progress counters from
// Algorithm 2: N^m_s, N^m_e and N^{k,m}_y — one row of the registry's
// counter slab and of ServerState.DeviceRows.
type DeviceStats struct {
	// Samples is N^m_s, the total (unperturbed) sample count.
	Samples int `json:"samples"`
	// Errors is N^m_e, the accumulated sanitized misclassification count.
	Errors int `json:"errors"`
	// LabelCounts is N^{k,m}_y per class, accumulated sanitized counts.
	LabelCounts []int `json:"labelCounts"`
	// Checkins counts completed checkins from this device.
	Checkins int `json:"checkins"`
	// StalenessSum accumulates (t_apply − t_checkout) over checkins, for
	// latency analysis (Section IV-B3).
	StalenessSum int `json:"stalenessSum"`
}

// Server is the Crowd-ML server of Algorithm 2. It is safe for concurrent
// use by many devices and built for read-mostly traffic (Section IV-B1:
// devices do the heavy lifting, the server's update is O(C·D)):
//
//   - Checkouts and statistics reads are lock-free. Parameters are served
//     from a published snapshot that readers pin with one CAS (see
//     SnapshotRing), and the crowd totals are atomic counters, so a
//     million-device portal polling for parameters never serializes on
//     the update lock.
//   - Device credentials and per-device counters live in one registry:
//     credential rows in enrolment order, an index of them sorted by ID,
//     and one counter slab that a device joins with its first counter.
//     Authentication takes the registry's read lock; the counters are
//     guarded by the apply lock (wMu), and every counter write and the
//     export hold the registry's read lock under it too, so an enrolment
//     that moves the rows cannot lose a write.
//   - Checkins are applied in batches: callers enqueue their sanitized
//     delta into a bounded queue and one caller — the batch leader —
//     drains up to checkinBatchSize deltas and applies them under a
//     single acquisition of the parameter lock, preserving Algorithm 2
//     semantics exactly (each delta still gets its own iteration number,
//     η(t) step, staleness accounting and ρ-stop evaluation). Checkin
//     remains synchronous: it returns once its delta has been applied and
//     its batch's OnCommit has run.
type Server struct {
	cfg ServerConfig
	// updaterName is cfg.Updater.Name(), formatted once: a checkpoint's
	// export records it without allocating.
	updaterName string

	// wMu is the parameter/apply lock: it guards w and the registry's
	// counter slab (see deviceRegistry) and serializes batch application,
	// snapshot publication, and state import/export. The read paths never
	// take it.
	wMu sync.Mutex
	w   *linalg.Matrix

	// Learning-state counters, written only while wMu is held, read
	// lock-free by the stats endpoints.
	t        atomic.Int64 // iteration counter (completed checkins)
	stopped  atomic.Bool  // the stopping rule's or Stop's latched verdict
	totalNs  atomic.Int64
	totalNe  atomic.Int64
	totalNky []atomic.Int64

	// halted is Halt's latch: this process serves no more checkins. It is
	// not learning state, so no export carries it.
	halted atomic.Bool

	// epoch is the clock at NewServer (zero with metrics off), the origin
	// of a pending checkin's stage start (pendingCheckin.at).
	epoch time.Time

	devices *deviceRegistry

	// ring publishes the checkout snapshot and retains as many of the
	// last DefaultDeltaHistory as clients ask for, so ParamDelta can name
	// a client's base iteration. publishSnapshotLocked publishes into it;
	// ImportState resets it.
	ring *SnapshotRing

	// queue and leaderSem implement the batched applier: pending checkins
	// wait in queue; whoever holds the single leaderSem slot drains and
	// applies them, at most maxBatch per acquisition of wMu (see batch.go).
	queue     chan *pendingCheckin
	leaderSem chan struct{}
	maxBatch  int
	// batch, results and records (what OnCommit receives) are the
	// leader's working slices, reused from one leader to the next: whoever
	// holds leaderSem owns them, and applyBatch clears batch and records
	// before it returns.
	batch   []*pendingCheckin
	results []error
	records []ReplayRecord
}

// NewServer constructs a server. It returns an error if the config is
// incomplete or the initial parameters have the wrong shape.
func NewServer(cfg ServerConfig) (*Server, error) {
	if cfg.Model == nil {
		return nil, fmt.Errorf("core: ServerConfig.Model is required")
	}
	if cfg.Updater == nil {
		return nil, fmt.Errorf("core: ServerConfig.Updater is required")
	}
	classes, _ := cfg.Model.Shape()
	if cfg.Metrics == nil {
		cfg.Metrics = NewServerMetrics(nil, "")
	}
	s := &Server{
		cfg:         cfg,
		updaterName: cfg.Updater.Name(),
		w:           model.NewParams(cfg.Model),
		totalNky:    make([]atomic.Int64, classes),
		devices:     newDeviceRegistry(classes),
		ring:        NewSnapshotRing(DefaultDeltaHistory, cfg.Metrics.ring),
		queue:       make(chan *pendingCheckin, checkinQueueDepth),
		leaderSem:   make(chan struct{}, 1),
		maxBatch:    checkinBatchSize,
		batch:       make([]*pendingCheckin, 0, checkinBatchSize),
		results:     make([]error, checkinBatchSize),
		records:     make([]ReplayRecord, 0, checkinBatchSize),
	}
	ci, _ := s.Stages()
	s.epoch = ci.Start()
	s.publishSnapshotLocked() // initial snapshot at iteration 0
	return s, nil
}

// publishSnapshotLocked copies w into a vector the ring has retired (a
// new one only while the ring warms up, or when readers hold on to every
// spare) and makes it the current snapshot. Callers must hold wMu
// (NewServer is exempt: the server is not yet shared). Because t only
// advances under wMu, published versions are monotonically
// non-decreasing. Every path that advances t publishes before it
// releases wMu — that is the server's read-your-writes guarantee: once a
// Checkin has returned, every later Checkout serves a snapshot at or
// past that checkin's iteration.
func (s *Server) publishSnapshotLocked() {
	s.ring.PublishCopy(int(s.t.Load()), s.w.Data())
}

// RegisterDevice enrolls a device and returns its authentication token
// (the Web-portal "join task" step of Section V-A): 16 random bytes as 22
// URL-safe base64 characters, an opaque string the device sends back on
// every request. Registering an already known device rotates its token.
func (s *Server) RegisterDevice(ctx context.Context, deviceID string) (token string, err error) {
	if err := ctx.Err(); err != nil {
		return "", err
	}
	var tok [tokenBytes]byte
	if _, err := rand.Read(tok[:]); err != nil {
		return "", fmt.Errorf("core: token generation: %w", err)
	}
	s.devices.register(deviceID, tok)
	return tokenEncoding.EncodeToString(tok[:]), nil
}

// authenticate verifies a device's credentials, falling back to
// cfg.AuthFallback for devices this server does not know. A vouched-for
// credential is cached in the local registry, so the fallback's cost
// (for a replica, one round trip to the leader) is paid once per device,
// and the lock-free fast path is untouched for every later request. A
// token that is not 22 characters of strict URL-safe base64 cannot be one
// any server issued: it is refused here, without asking the fallback.
func (s *Server) authenticate(ctx context.Context, deviceID, token string) error {
	tok, ok := parseToken(token)
	if !ok {
		return ErrAuth
	}
	err := s.devices.authenticate(deviceID, tok)
	if err == nil || s.cfg.AuthFallback == nil || deviceID == "" {
		return err // nor is an empty ID laundered through the fallback
	}
	if s.cfg.AuthFallback(ctx, deviceID, token) != nil {
		return err // the device only ever learns ErrAuth
	}
	s.devices.register(deviceID, tok)
	return nil
}

// Checkout implements Server Routine 1: authenticate and hand out the
// current parameters. It is lock-free — authentication takes the registry
// read lock and the parameters come from the pinned snapshot — so
// checkout throughput scales with cores instead of serializing behind
// concurrent checkins. A stopped server still answers (with Done set) so
// devices learn to stand down.
func (s *Server) Checkout(ctx context.Context, deviceID, token string) (*CheckoutResponse, error) {
	start, authed, err := s.authCheckout(ctx, deviceID, token)
	if err != nil {
		return nil, err
	}
	v := s.ring.View()
	resp := &CheckoutResponse{
		Params:  linalg.Copy(v.Params), // callers own the returned slice
		Version: v.Version,
		Done:    s.Stopped(),
	}
	v.Release()
	s.cfg.Metrics.observeCheckout(start, authed, nil)
	return resp, nil
}

// authCheckout is a checkout's auth stage. It returns the checkout's
// start and the stage's end; a refusal is counted here.
func (s *Server) authCheckout(ctx context.Context, deviceID, token string) (start, authed time.Time, err error) {
	if err := ctx.Err(); err != nil {
		return start, authed, err
	}
	_, co := s.Stages()
	start = co.Start()
	if err := s.authenticate(ctx, deviceID, token); err != nil {
		s.cfg.Metrics.observeCheckout(start, start, err)
		return start, authed, err
	}
	return start, co.Lap(StageAuth, start), nil
}

// Checkin implements Server Routine 2: authenticate, accumulate the
// device's counters, and apply the SGD update w ← w − η(t)·ĝ. The update
// is applied through the batched applier (see the Server doc comment);
// the call returns once the delta has been applied — so callers may
// immediately reuse req's slices — or with the context's error if the
// bounded queue stays full past cancellation. A Version the server has
// not issued yet is clamped in req (see applyBatchLocked).
func (s *Server) Checkin(ctx context.Context, deviceID, token string, req *CheckinRequest) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	ci, _ := s.Stages()
	start := ci.Start()
	p := &pendingCheckin{deviceID: deviceID, req: req, at: start.Sub(s.epoch)}
	err := s.checkin(ctx, token, p)
	s.cfg.Metrics.observeCheckin(start, s.epoch.Add(p.at), err)
	return err
}

// checkin is Checkin's classification-free body: it validates p and
// submits it to the batched applier. The wrapper feeds the outcome to the
// telemetry layer.
func (s *Server) checkin(ctx context.Context, token string, p *pendingCheckin) error {
	req := p.req
	if err := s.authenticate(ctx, p.deviceID, token); err != nil {
		return err
	}
	if s.Stopped() {
		return ErrStopped
	}
	classes, dim := s.cfg.Model.Shape()
	if len(req.Grad) != classes*dim {
		return fmt.Errorf("gradient length %d, want %d: %w",
			len(req.Grad), classes*dim, ErrBadCheckin)
	}
	for _, v := range req.Grad {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			// One non-finite value would poison w for every later device,
			// and Replay would re-apply it faithfully after a restart, so a
			// malformed checkin must be rejected here, not applied.
			return fmt.Errorf("non-finite gradient value: %w", ErrBadCheckin)
		}
	}
	if len(req.LabelCounts) != classes {
		return fmt.Errorf("label counts length %d, want %d: %w",
			len(req.LabelCounts), classes, ErrBadCheckin)
	}
	if req.NumSamples < 0 {
		return fmt.Errorf("negative sample count: %w", ErrBadCheckin)
	}
	if req.Version < 0 {
		// It would put a huge staleness into the device's counters, the
		// checkpoint and every export after it.
		return fmt.Errorf("negative version: %w", ErrBadCheckin)
	}
	return s.submit(ctx, p)
}

// Stopped reports whether the server refuses checkins (and checkouts say
// Done): the stopping criteria have been met, Stop was called, or the
// server was halted.
func (s *Server) Stopped() bool {
	return s.learningStopped() || s.halted.Load()
}

// learningStopped evaluates the Algorithm 2 stopping criteria from the
// atomic counters. Once a criterion trips the decision is latched, matching
// the locked implementation's stickiness (the ρ estimate may drift back
// above the target later; a stopped task stays stopped). Batch leaders call
// this while holding wMu, which makes their view authoritative; lock-free
// callers may observe the transition one batch late, never early enough
// to matter (counters are updated errors-before-samples, so a torn read
// can only overestimate the error rate and delay the ρ stop).
func (s *Server) learningStopped() bool {
	if s.stopped.Load() {
		return true
	}
	if s.cfg.Tmax > 0 && int(s.t.Load()) >= s.cfg.Tmax {
		s.stopped.Store(true)
		return true
	}
	if s.cfg.TargetError > 0 {
		ns := s.totalNs.Load()
		if ns >= 10*int64(len(s.totalNky)) { // 10 × C samples first
			if est := float64(s.totalNe.Load()) / float64(ns); est <= s.cfg.TargetError {
				s.stopped.Store(true)
				return true
			}
		}
	}
	return false
}

// Stop ends the task for good. Like the stopping rule's verdict it is
// learning state: exports carry it, so a restored task stays stopped.
func (s *Server) Stop() {
	s.stopped.Store(true)
}

// Halt stops this process serving checkins — a shutdown, or a journal that
// can no longer keep its guarantee. Stopped and checkout Done report it,
// but it is not learning state: no export carries it, so a server restored
// from this one's state accepts checkins again.
func (s *Server) Halt() {
	s.halted.Store(true)
}

// ModelShape returns the task's (classes, dim) parameter shape — what a
// compatible device model must match.
func (s *Server) ModelShape() (classes, dim int) {
	return s.cfg.Model.Shape()
}

// Iteration returns the server iteration counter t.
func (s *Server) Iteration() int {
	return int(s.t.Load())
}

// SnapshotVersion returns the iteration of the currently published
// checkout snapshot. Every applied batch publishes before it releases the
// parameter lock, so it trails Iteration only while a batch is mid-apply,
// and it never decreases.
func (s *Server) SnapshotVersion() int {
	return s.ring.Version()
}

// Params returns a snapshot copy of the current parameter matrix.
func (s *Server) Params() *linalg.Matrix {
	v := s.ring.View()
	classes, dim := s.cfg.Model.Shape()
	m, err := linalg.NewMatrixFrom(classes, dim, linalg.Copy(v.Params))
	v.Release()
	if err != nil {
		// The snapshot is always published with the model's shape.
		panic(err)
	}
	return m
}

// ErrEstimate returns the running error estimate ΣN_e/ΣN_s of Eq. (14).
// The second return is false until any samples have been reported.
func (s *Server) ErrEstimate() (float64, bool) {
	ns := s.totalNs.Load()
	if ns == 0 {
		return 0, false
	}
	return float64(s.totalNe.Load()) / float64(ns), true
}

// PriorEstimate returns the running class-prior estimate P̂(y=k) of
// Eq. (14). The second return is false until any samples have been
// reported.
func (s *Server) PriorEstimate() ([]float64, bool) {
	ns := s.totalNs.Load()
	if ns == 0 {
		return nil, false
	}
	out := make([]float64, len(s.totalNky))
	for k := range s.totalNky {
		out[k] = float64(s.totalNky[k].Load()) / float64(ns)
	}
	return out, true
}
