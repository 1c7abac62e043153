package scenario

import (
	"container/heap"
	"context"
	"errors"
	"fmt"
	"math"
	"time"

	"github.com/crowdml/crowdml/internal/attack"
	"github.com/crowdml/crowdml/internal/core"
	"github.com/crowdml/crowdml/internal/dataset"
	"github.com/crowdml/crowdml/internal/linalg"
	"github.com/crowdml/crowdml/internal/metrics"
	"github.com/crowdml/crowdml/internal/model"
	"github.com/crowdml/crowdml/internal/rng"
	"github.com/crowdml/crowdml/internal/simnet"
	"github.com/crowdml/crowdml/internal/transport"
)

// vdevice is one multiplexed virtual device: a struct, not a goroutine —
// crowds are bounded by memory, and the one event loop carries the
// traffic, so per-device state needs no locking.
type vdevice struct {
	id        string
	byzantine bool
	straggler bool

	client backend // current write/read target (follows hints)
	token  string
	joined bool
	shard  []model.Sample
	pos    int
	buffer []model.Sample
	noise  *rng.RNG // DP noise + byzantine coordinates; one stream per device
}

type eventKind int

const (
	// evFlush performs the real checkout, runs core.DeviceStep on the
	// minibatch (honest or poisoned), and schedules the delivery.
	evFlush eventKind = iota + 1
	// evDeliver performs the real checkin with the echoed version.
	evDeliver
	// evRejoin re-registers a departed device (token rotation).
	evRejoin
)

// event is one scheduled action in virtual time. Credentials and the
// client are snapshotted at scheduling: a device that departs and
// rejoins while a checkin is in flight presents its rotated-away token
// and is rejected — exactly the real-world race the churn stressor is
// after.
type event struct {
	at      float64
	seq     int
	kind    eventKind
	dev     int
	batch   []model.Sample
	token   string
	client  backend
	ciDelay float64 // checkin leg, drawn at scheduling with the other two
	req     *core.CheckinRequest
}

// eventQueue is a min-heap on (at, seq).
type eventQueue []*event

func (q eventQueue) Len() int { return len(q) }
func (q eventQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}
func (q eventQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *eventQueue) Push(x any)   { *q = append(*q, x.(*event)) }
func (q *eventQueue) Pop() any {
	old := *q
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	return e
}

// engine is one run's mutable state.
type engine struct {
	crowd Crowd
	// step is the crowd's device configuration for core.DeviceStep;
	// poison is the byzantine cohort's gradient mechanism.
	step    core.DeviceConfig
	poison  core.GradientMechanism
	stack   *stack
	devs    []*vdevice
	evalSet []model.Sample
	delay   simnet.Uniform

	queue eventQueue
	seq   int

	// delayRNG is drawn only at scheduling time: an event carries its
	// pre-drawn checkin leg.
	delayRNG *rng.RNG

	rep *Report

	httpCalls  int
	probeToken string
}

func (e *engine) push(ev *event) {
	ev.seq = e.seq
	e.seq++
	heap.Push(&e.queue, ev)
}

// Run executes one scenario — the JSON description of a crowd — and
// returns its report.
func Run(ctx context.Context, spec Spec) (*Report, error) {
	spec = spec.withDefaults()
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	c, err := spec.crowd()
	if err != nil {
		return nil, err
	}
	return RunCrowd(ctx, c)
}

// RunCrowd executes one crowd against a freshly built real-stack topology
// and returns its report.
func RunCrowd(ctx context.Context, c Crowd) (*Report, error) {
	c.Plan = c.Plan.withDefaults()
	if err := c.validate(); err != nil {
		return nil, err
	}
	st, err := buildStack(ctx, c)
	if err != nil {
		return nil, err
	}
	defer st.close()

	// Every randomness consumer gets its own split, in a fixed order, so
	// one stressor's draw count can never perturb another's schedule:
	// same-seed runs are bit-identical, and same-seed runs that differ in
	// one knob differ only through that knob's effect.
	root := rng.New(c.Seed)
	assignRNG := root.Split()
	evalRNG := root.Split()
	cohortRNG := root.Split()
	arrivalRNG := root.Split()
	delayRNG := root.Split()
	churnRNG := root.Split()
	noiseRoot := root.Split()

	shards := dataset.Assign(c.Train, c.Devices, assignRNG)
	evalSet := c.Test
	if c.EvalSubset > 0 && c.EvalSubset < len(evalSet) {
		evalSet = dataset.Shuffled(evalSet, evalRNG)[:c.EvalSubset]
	}

	e := &engine{
		crowd:    c,
		step:     core.DeviceConfig{Model: c.Model, Budget: c.Budget},
		stack:    st,
		evalSet:  evalSet,
		delay:    simnet.Uniform{Max: c.Straggler.Tau},
		delayRNG: delayRNG,
		rep: &Report{
			Scenario: c.Name, Topology: c.Topology, Seed: c.Seed,
			Devices: c.Devices, Workers: 1,
			GlobalSamples: c.Samples,
		},
	}
	if c.Byzantine.Fraction > 0 {
		strat, _ := attack.ParseStrategy(c.Byzantine.Strategy)
		e.poison = func(g *linalg.Matrix, _ int, r *rng.RNG) {
			attack.Corrupt(g, strat, c.Byzantine.Magnitude, r)
		}
	}

	e.devs = make([]*vdevice, c.Devices)
	for i := range e.devs {
		e.devs[i] = &vdevice{
			id:     fmt.Sprintf("dev-%05d", i),
			client: st.entry,
			shard:  shards[i],
			noise:  noiseRoot.Split(),
		}
	}
	byzN := int(c.Byzantine.Fraction * float64(c.Devices))
	for _, idx := range cohortRNG.Perm(c.Devices)[:byzN] {
		e.devs[idx].byzantine = true
	}
	stragN := int(c.Straggler.Fraction * float64(c.Devices))
	for _, idx := range cohortRNG.Perm(c.Devices)[:stragN] {
		e.devs[idx].straggler = true
	}
	e.rep.ByzantineDevices = byzN
	e.rep.StragglerDevices = stragN

	before, err := st.scrape()
	if err != nil {
		return nil, err
	}
	start := time.Now()

	// Initial join wave: every device registers through the entry
	// backend, following leader hints (the follower topology's one
	// redirect hop).
	for _, d := range e.devs {
		if err := e.register(ctx, d); err != nil {
			return nil, fmt.Errorf("scenario: register %s: %w", d.id, err)
		}
	}
	// The evaluation probe is an ordinary registered device whose
	// checkouts read the real serving path at each measurement.
	probe := &vdevice{id: "probe", client: st.entry}
	if err := e.register(ctx, probe); err != nil {
		return nil, fmt.Errorf("scenario: register probe: %w", err)
	}
	e.probeToken = probe.token
	probeClient := probe.client

	// The virtual-time loop: one global sample per tick (the paper's
	// clock), every flush through the real server.
	for n := 1; n <= c.Samples; n++ {
		now := float64(n)
		if err := e.drainDue(ctx, now); err != nil {
			return nil, err
		}
		if c.Churn.Every > 0 && n%c.Churn.Every == 0 {
			e.departOne(churnRNG, now)
		}
		idx := arrivalRNG.Intn(c.Devices)
		d := e.devs[idx]
		switch {
		case !d.joined:
			e.rep.LostSamples++
		case len(d.shard) == 0:
			// A crowd larger than the training set leaves some devices
			// with no local data; their samples are never generated.
		default:
			d.buffer = append(d.buffer, d.shard[d.pos%len(d.shard)])
			d.pos++
			if len(d.buffer) >= c.Minibatch {
				batch := make([]model.Sample, len(d.buffer))
				copy(batch, d.buffer)
				d.buffer = d.buffer[:0]
				var reqD, coD, ciD float64
				if d.straggler {
					reqD = e.delay.Draw(e.delayRNG)
					coD = e.delay.Draw(e.delayRNG)
					ciD = e.delay.Draw(e.delayRNG)
				}
				e.push(&event{
					at: now + reqD + coD, kind: evFlush, dev: idx,
					batch: batch, token: d.token, client: d.client, ciDelay: ciD,
				})
			}
		}
		if n%c.EvalEvery == 0 && n != c.Samples {
			if err := e.eval(ctx, probeClient, n); err != nil {
				return nil, err
			}
		}
	}
	// Drain in-flight events so every scheduled checkin lands.
	for len(e.queue) > 0 {
		if err := e.drainDue(ctx, math.Inf(1)); err != nil {
			return nil, err
		}
	}
	if err := e.eval(ctx, probeClient, c.Samples); err != nil {
		return nil, err
	}
	if len(e.rep.Curve) > 0 {
		e.rep.FinalTestError = e.rep.Curve[len(e.rep.Curve)-1].TestError
	}

	stats, err := probeClient.Stats(ctx)
	if err != nil {
		return nil, fmt.Errorf("scenario: stats: %w", err)
	}
	e.httpCalls++
	e.rep.ServerIteration = stats.Iteration
	e.rep.ErrorEstimate = stats.ErrorEstimate

	if st.finish != nil {
		if err := st.finish(e.rep); err != nil {
			return nil, err
		}
	}

	after, err := st.scrape()
	if err != nil {
		return nil, err
	}
	e.rep.MetricsDeltas = metricsDelta(before, after)

	dur := time.Since(start).Seconds()
	e.rep.WallClock = WallClock{
		DurationSeconds: dur,
		CheckinsPerSec:  float64(e.rep.Checkins) / dur,
		RequestsPerSec:  float64(e.httpCalls) / dur,
	}
	return e.rep, nil
}

// register enrolls a device through its current client, following at
// most two leader hints (one hop is the contract; the second tolerates a
// hint chain during topology bring-up).
func (e *engine) register(ctx context.Context, d *vdevice) error {
	for hop := 0; ; hop++ {
		tok, err := d.client.Register(ctx, d.id, joinKey)
		e.httpCalls++
		if err == nil {
			d.token = tok
			d.joined = true
			e.rep.Churn.Joins++
			return nil
		}
		hint, ok := transport.LeaderHint(err)
		if !ok || hop >= 2 {
			return err
		}
		d.client = e.stack.clientFor(hint)
		e.rep.Retries++
	}
}

// departOne removes one joined device from the crowd (chosen from the
// churn stream with a deterministic probe walk) and schedules its
// re-registration.
func (e *engine) departOne(churnRNG *rng.RNG, now float64) {
	start := churnRNG.Intn(len(e.devs))
	for i := 0; i < len(e.devs); i++ {
		d := e.devs[(start+i)%len(e.devs)]
		if !d.joined {
			continue
		}
		d.joined = false
		d.buffer = nil // uncollected samples leave with the device
		e.rep.Churn.Leaves++
		if e.crowd.Churn.RejoinAfter > 0 {
			e.push(&event{at: now + e.crowd.Churn.RejoinAfter, kind: evRejoin, dev: (start + i) % len(e.devs)})
		}
		return
	}
}

// eval measures held-out test error through the probe's real checkout.
func (e *engine) eval(ctx context.Context, probe backend, n int) error {
	co, err := probe.Checkout(ctx, "probe", e.probeToken)
	if err != nil {
		return fmt.Errorf("scenario: probe checkout: %w", err)
	}
	e.httpCalls++
	classes, dim := e.crowd.Model.Shape()
	w, err := linalg.NewMatrixFrom(classes, dim, co.Params)
	if err != nil {
		return err
	}
	e.rep.Curve = append(e.rep.Curve, CurvePoint{
		Samples:   n,
		TestError: metrics.TestError(e.crowd.Model, w, e.evalSet),
	})
	return nil
}

// drainDue processes every event due by now, one at a time, in (at, seq)
// order, in waves: a wave is the currently due set; its follow-ups are
// pushed in wave order and picked up by the next wave if they are
// themselves due.
func (e *engine) drainDue(ctx context.Context, now float64) error {
	for {
		var due []*event
		for len(e.queue) > 0 && e.queue[0].at <= now {
			due = append(due, heap.Pop(&e.queue).(*event))
		}
		if len(due) == 0 {
			return nil
		}
		for _, ev := range due {
			f, err := e.process(ctx, ev)
			if err != nil {
				return err
			}
			if f != nil {
				e.push(f)
			}
		}
	}
}

// process executes one event against the real stack and returns its
// follow-up event, if any. Only fatal errors are returned; expected
// rejections (stale credentials after a rejoin rotated the token) are
// counted on the report.
func (e *engine) process(ctx context.Context, ev *event) (*event, error) {
	d := e.devs[ev.dev]
	switch ev.kind {
	case evRejoin:
		if err := e.register(ctx, d); err != nil {
			return nil, fmt.Errorf("scenario: rejoin %s: %w", d.id, err)
		}
		e.rep.Churn.Rejoins++
		return nil, nil

	case evFlush:
		co, err := ev.client.Checkout(ctx, d.id, ev.token)
		e.httpCalls++
		if err != nil {
			e.countReject(err)
			return nil, nil
		}
		// A malignant device poisons its gradient but reports its counts
		// honestly — the stealthiest variant: Eq. (14)'s progress
		// estimates stay plausible while the model degrades.
		mech := e.crowd.Mechanism
		if d.byzantine {
			mech = e.poison
		}
		req, err := core.DeviceStep(&e.step, mech, co, ev.batch, d.noise)
		if err != nil {
			return nil, err
		}
		return &event{
			at: ev.at + ev.ciDelay, kind: evDeliver, dev: ev.dev,
			token: ev.token, client: ev.client, req: req,
		}, nil

	case evDeliver:
		err := ev.client.Checkin(ctx, d.id, ev.token, ev.req)
		e.httpCalls++
		if err != nil {
			e.countReject(err)
			return nil, nil
		}
		e.rep.Checkins++
		if d.byzantine {
			e.rep.ByzantineCheckins++
		}
		return nil, nil
	}
	return nil, fmt.Errorf("scenario: unknown event kind %d", ev.kind)
}

// countReject classifies a device-visible request failure.
func (e *engine) countReject(err error) {
	if errors.Is(err, core.ErrAuth) {
		e.rep.RejectedAuth++
	} else {
		e.rep.RejectedOther++
	}
}
