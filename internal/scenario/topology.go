package scenario

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http/httptest"
	"slices"
	"time"

	"github.com/crowdml/crowdml/internal/core"
	"github.com/crowdml/crowdml/internal/hub"
	"github.com/crowdml/crowdml/internal/invariants"
	"github.com/crowdml/crowdml/internal/replica"
	"github.com/crowdml/crowdml/internal/store"
	"github.com/crowdml/crowdml/internal/telemetry"
	"github.com/crowdml/crowdml/internal/transport"
)

// taskID is the logical task every scenario crowd addresses.
const taskID = "scenario"

// joinKey is the enrollment key the harness's virtual devices present.
const joinKey = "scenario-join"

// backend is the engine's whole view of the server side: the device
// transport plus enrollment and the task statistics. *transport.HTTPClient
// satisfies it as it is; inProcess is the socket-free implementation.
type backend interface {
	core.Transport
	Register(ctx context.Context, deviceID, enrollKey string) (string, error)
	Stats(ctx context.Context) (*transport.StatsResponse, error)
}

// inProcess is the backend of TopologyInProcess: the hub task's server as
// the transport (or what Crowd.Intercept wrapped around it).
type inProcess struct {
	core.Transport
	srv *core.Server
}

func (b inProcess) Register(ctx context.Context, deviceID, _ string) (string, error) {
	return b.srv.RegisterDevice(ctx, deviceID)
}

func (b inProcess) Stats(context.Context) (*transport.StatsResponse, error) {
	resp := &transport.StatsResponse{TaskID: taskID, Iteration: b.srv.Iteration(), Stopped: b.srv.Stopped()}
	if est, ok := b.srv.ErrEstimate(); ok {
		resp.ErrorEstimate = &est
	}
	return resp, nil
}

// stack is one running topology: real hubs, behind real HTTP servers
// unless the topology is in-process, plus the hooks the engine reads the
// run's metrics and end-of-run checks through.
type stack struct {
	// entry is the backend devices contact first. In the follower
	// topology this is the follower, whose 409 leader hints redirect
	// every device's writes — exactly the production join flow.
	entry backend
	// scrape reads the exposition the report's metric deltas come from
	// (the leader's, where all deterministic counters live).
	scrape func() (map[string]float64, error)
	// finish runs end-of-run topology checks (the follower catch-up and
	// bit-exact comparison) and records them on the report.
	finish func(rep *Report) error
	// close tears the whole stack down.
	close func()

	// wire is the device wire format (Plan.Wire): every cached client
	// speaks it on checkout/checkin.
	wire transport.WireFormat

	// clients caches one task-bound HTTP client per base URL, shared by
	// every virtual device pointed at that URL.
	clients map[string]*transport.HTTPClient
}

// clientFor returns the shared task-bound client for a base URL.
func (st *stack) clientFor(baseURL string) *transport.HTTPClient {
	c, ok := st.clients[baseURL]
	if !ok {
		c = transport.NewHTTPClient(baseURL, nil).WithTask(taskID)
		if st.wire != transport.WireJSON {
			c = c.WithWire(st.wire)
		}
		st.clients[baseURL] = c
	}
	return c
}

// serverConfig builds one leader or follower ServerConfig. Called once per
// server — updaters are stateful and must never be shared.
func (c Crowd) serverConfig() core.ServerConfig {
	return core.ServerConfig{Model: c.Model, Updater: c.NewUpdater()}
}

// buildStack assembles the crowd's topology from the real layers: hub
// tasks (a leader, and a follower replica) and, for the HTTP
// topologies, the transport handler with enrollment and telemetry enabled
// behind httptest servers carrying real TCP traffic.
func buildStack(ctx context.Context, c Crowd) (*stack, error) {
	switch c.Topology {
	case TopologyInProcess:
		return buildInProcess(ctx, c)
	case TopologySingle:
		return buildSingle(ctx, c)
	case TopologyFollower:
		return buildFollower(ctx, c)
	}
	return nil, fmt.Errorf("scenario: unknown topology %q", c.Topology)
}

// httpStack points a stack at its HTTP servers. The wire format is a pure
// encoding choice (validate already vetted it); the replication feed and
// stats scrapes stay JSON regardless.
func httpStack(c Crowd, entryURL, metricsURL string, st *stack) *stack {
	st.wire, _ = transport.ParseWireFormat(c.Wire)
	st.clients = make(map[string]*transport.HTTPClient)
	st.entry = st.clientFor(entryURL)
	st.scrape = func() (map[string]float64, error) { return scrapeMetrics(metricsURL) }
	return st
}

func buildInProcess(ctx context.Context, c Crowd) (*stack, error) {
	reg := telemetry.NewRegistry()
	h := hub.New()
	task, err := h.CreateTask(ctx, taskID, c.serverConfig(), hub.WithMetrics(reg))
	if err != nil {
		return nil, err
	}
	srv := task.Server()
	var tr core.Transport = srv
	if c.Intercept != nil {
		tr = c.Intercept(srv, tr)
	}
	return &stack{
		entry: inProcess{Transport: tr, srv: srv},
		scrape: func() (map[string]float64, error) {
			var buf bytes.Buffer
			if err := reg.WritePrometheus(&buf); err != nil {
				return nil, err
			}
			return parseMetrics(&buf)
		},
		close: func() { _ = h.Close(context.Background()) },
	}, nil
}

// newHandler wires a hub behind the real HTTP handler with enrollment
// and metrics enabled, exactly as cmd/crowdml-server does.
func newHandler(h *hub.Hub, reg *telemetry.Registry) *transport.Handler {
	hd := transport.NewHandler(h)
	hd.EnableEnrollment(joinKey)
	hd.EnableMetrics(reg)
	return hd
}

func buildSingle(ctx context.Context, c Crowd) (*stack, error) {
	reg := telemetry.NewRegistry()
	h := hub.New()
	if _, err := h.CreateTask(ctx, taskID, c.serverConfig(), hub.WithMetrics(reg)); err != nil {
		return nil, err
	}
	srv := httptest.NewServer(newHandler(h, reg))
	return httpStack(c, srv.URL, srv.URL, &stack{
		close: func() {
			srv.Close()
			_ = h.Close(context.Background())
		},
	}), nil
}

// dropSilent removes device entries that never checked in.
func dropSilent(st *core.ServerState) {
	st.DeviceRows = slices.DeleteFunc(st.DeviceRows, func(r core.DeviceRow) bool { return r.Checkins == 0 })
}

func buildFollower(ctx context.Context, c Crowd) (*stack, error) {
	reg := telemetry.NewRegistry()
	leaderHub := hub.New()
	leaderTask, err := leaderHub.CreateTask(ctx, taskID, c.serverConfig(),
		hub.WithMetrics(reg), hub.WithStore(store.NewMemStore()))
	if err != nil {
		return nil, err
	}
	leaderSrv := httptest.NewServer(newHandler(leaderHub, reg))

	feed := transport.NewHTTPClient(leaderSrv.URL, nil).WithTask(taskID).
		WithRetry(transport.RetryPolicy{BaseDelay: 2 * time.Millisecond, MaxDelay: 50 * time.Millisecond})
	followerCfg := c.serverConfig()
	followerCfg.AuthFallback = feed.AuthProbe
	followerHub := hub.New()
	followerTask, err := followerHub.CreateTask(ctx, taskID, followerCfg,
		hub.AsReplicaOf(leaderSrv.URL))
	if err != nil {
		leaderSrv.Close()
		_ = leaderHub.Close(context.Background())
		return nil, err
	}
	followerSrv := httptest.NewServer(newHandler(followerHub, nil))
	rep, err := replica.New(replica.Config{
		Task:         followerTask,
		Feed:         feed,
		PollInterval: 2 * time.Millisecond,
	})
	if err != nil {
		followerSrv.Close()
		leaderSrv.Close()
		_ = followerHub.Close(context.Background())
		_ = leaderHub.Close(context.Background())
		return nil, err
	}
	repCtx, cancel := context.WithCancel(context.Background())
	rep.Start(repCtx)

	return httpStack(c, followerSrv.URL, leaderSrv.URL, &stack{
		finish: func(r *Report) error {
			leader := leaderTask.Server()
			deadline := time.Now().Add(30 * time.Second)
			for time.Now().Before(deadline) {
				lag, ok := followerTask.ReplicationLag()
				if ok && lag == 0 && followerTask.Server().Iteration() == leader.Iteration() {
					break
				}
				time.Sleep(2 * time.Millisecond)
			}
			// Registrations are not journaled (credentials never leave the
			// leader), so enrolled-but-silent devices — the probe, and any
			// device the arrival schedule never picked — exist only in the
			// leader's registry. The replicated learning state is everything
			// else: compare bit for bit with zero-checkin entries dropped.
			ls, fs := leader.ExportStateInto(nil), followerTask.Server().ExportStateInto(nil)
			dropSilent(ls)
			dropSilent(fs)
			diverged := invariants.Same(fs, ls)
			consistent := diverged == nil
			r.FollowerConsistent = &consistent
			if diverged != nil {
				return fmt.Errorf("scenario: follower state diverged from leader: %w", diverged)
			}
			if err := errors.Join(invariants.Counters(ls), invariants.Counters(fs)); err != nil {
				return fmt.Errorf("scenario: leader or follower counters: %w", err)
			}
			return nil
		},
		close: func() {
			cancel()
			rep.Stop()
			followerSrv.Close()
			leaderSrv.Close()
			_ = followerHub.Close(context.Background())
			_ = leaderHub.Close(context.Background())
		},
	}), nil
}
