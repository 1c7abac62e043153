// Package scenario is the repo's one crowd engine: the simulated
// environment of the paper's Section V-C (M virtual devices, one global
// sample per tick, three delayed communication legs, Device Routines 2–3
// on every flush) driven through the REAL hub/core stack — the same
// batching, registry and staleness accounting production runs — over
// HTTP (single, follower, sharded) or in process (inprocess). The paper's
// figures (internal/experiments) and the named stress scenarios are the
// same loop; it composes the orthogonal stressors Section V studies one at
// a time:
//
//   - device churn: join/leave mid-training with credential
//     re-registration (token rotation, in-flight old-token rejects);
//   - stragglers: a cohort whose request/checkout/checkin legs are
//     delayed by simnet's Δ = τ·M·F_s model, delivering stale gradients
//     (fraction 1 is the all-devices delay of Figs. 6/9);
//   - byzantine cohorts: internal/attack's poisoning strategies checked
//     in through the real write path;
//   - device-local DP noise: internal/privacy's Eq. (10)–(12)
//     sanitization at the configured budget.
//
// Time is virtual, in global-sample units (the x-axis of Figs. 4–9): a
// min-heap of events keyed on (at, seq) advances one sample per tick, and
// every piece of randomness (assignment, arrival order, cohort selection,
// churn schedule, delays, noise) flows through dedicated internal/rng
// split streams. With Workers == 1 (the default) the harness performs one
// request at a time, so a fixed seed reproduces the same schedule of
// joins, drops, delays, attacks AND the same server-side state evolution
// bit for bit — the determinism contract Report.CanonicalJSON captures.
// Workers > 1 keeps the schedule deterministic but races request
// interleaving for throughput (see docs/SCENARIOS.md).
//
// Scale: devices are multiplexed virtual endpoints (a struct plus a
// pooled HTTP connection), not goroutines, so crowds are bounded by
// memory, not threads — tens of thousands in tests, scalable toward
// millions with the same engine.
package scenario

import (
	"fmt"
	"time"

	"github.com/crowdml/crowdml/internal/attack"
	"github.com/crowdml/crowdml/internal/core"
	"github.com/crowdml/crowdml/internal/dataset"
	"github.com/crowdml/crowdml/internal/model"
	"github.com/crowdml/crowdml/internal/optimizer"
	"github.com/crowdml/crowdml/internal/privacy"
	"github.com/crowdml/crowdml/internal/transport"
)

// Topology selects which real server arrangement the crowd drives.
type Topology string

const (
	// TopologySingle is one leader task on one hub behind one HTTP server.
	TopologySingle Topology = "single"
	// TopologyFollower is a leader plus a read-only follower replica fed
	// by WAL shipping; devices contact the follower first and follow the
	// 409 leader hint (exactly one redirect hop per registration).
	TopologyFollower Topology = "follower"
	// TopologySharded is a sharded logical task: Shards member leaders
	// behind the routing front-end, merged reads, device-hash writes.
	TopologySharded Topology = "sharded"
	// TopologyInProcess is the single leader task without sockets: the
	// crowd calls the hub task's core.Server directly.
	// Same engine, same server; what it omits is the HTTP codec, the
	// enrollment key and the per-request HTTP metrics.
	TopologyInProcess Topology = "inprocess"
)

// ChurnSpec schedules mid-training departures and re-registrations.
type ChurnSpec struct {
	// Every departs one joined device every this many global samples
	// (0 disables churn).
	Every int `json:"every"`
	// RejoinAfter re-registers the departed device (fresh credentials —
	// the server rotates its token) this many global samples later.
	// 0 means departed devices never return.
	RejoinAfter float64 `json:"rejoinAfter"`
}

// StragglerSpec delays a cohort's communication legs, making them deliver
// stale gradients — the paper's Δ = τ·M·F_s delay model over real HTTP.
type StragglerSpec struct {
	// Fraction of devices that straggle, F_s in [0, 1].
	Fraction float64 `json:"fraction"`
	// Tau is τ: each of the three legs (request, checkout, checkin) draws
	// uniformly from [0, τ] in global-sample units.
	Tau float64 `json:"tau"`
}

// ByzantineSpec makes a cohort check in poisoned gradients through the
// real write path, using internal/attack's strategies.
type ByzantineSpec struct {
	// Fraction of devices that are malignant, in [0, 1).
	Fraction float64 `json:"fraction"`
	// Strategy is "large-gradient" or "sign-flip" (attack.ParseStrategy).
	Strategy string `json:"strategy"`
	// Magnitude scales the adversarial gradients (default 10).
	Magnitude float64 `json:"magnitude"`
}

// PrivacySpec sets the device-local DP budget in the paper's ε⁻¹
// plotting convention (0 disables noise).
type PrivacySpec struct {
	// GradientEpsInv is ε⁻¹ for the Eq. (10) gradient mechanism.
	GradientEpsInv float64 `json:"gradientEpsInv"`
	// CountEpsInv is ε⁻¹ for the Eq. (11)–(12) count mechanisms.
	CountEpsInv float64 `json:"countEpsInv"`
}

// Plan is the part of a run both descriptions share: the topology, the
// crowd's size and clock, and the composed stressors.
type Plan struct {
	// Name labels the run in reports and file names.
	Name string `json:"name"`
	// Topology is single, follower, sharded or inprocess.
	Topology Topology `json:"topology"`
	// Shards is the member count for TopologySharded (default 4).
	Shards int `json:"shards,omitempty"`
	// Devices is the crowd size M.
	Devices int `json:"devices"`
	// Samples is the virtual-run length in global samples (ticks).
	Samples int `json:"samples"`
	// Minibatch is the device buffer size b before a flush (default 1).
	Minibatch int `json:"minibatch,omitempty"`
	// Seed drives every random choice; same seed, same report
	// (modulo wall-clock fields) when Workers <= 1.
	Seed uint64 `json:"seed"`
	// Stressors; zero values disable each.
	Churn     ChurnSpec     `json:"churn,omitempty"`
	Straggler StragglerSpec `json:"straggler,omitempty"`
	Byzantine ByzantineSpec `json:"byzantine,omitempty"`
	// EvalEvery measures test error every this many global samples
	// (default Samples/25).
	EvalEvery int `json:"evalEvery,omitempty"`
	// EvalSubset caps test samples per evaluation (0 = all).
	EvalSubset int `json:"evalSubset,omitempty"`
	// Workers bounds concurrent requests per event wave. 1 (the
	// default) is the determinism contract; larger values trade
	// bit-reproducibility of the report for wall-clock speed.
	Workers int `json:"workers,omitempty"`
	// Wire selects the device wire format: "json" (default), "binary" or
	// "binary-delta" (docs/WIRE.md). Both binary encodings are bit-exact
	// for float64 parameters, so same-seed reports are identical across
	// wire formats — the convergence-equivalence tier-1 test pins this.
	// TopologyInProcess has no wire and accepts only the default.
	Wire string `json:"wire,omitempty"`
	// MergeEvery only applies to TopologySharded: the harness calls the
	// router's merge deterministically from the event loop every tick, so
	// this is the wall-clock fallback cadence handed to the router
	// (default 1h, i.e. effectively never).
	MergeEvery time.Duration `json:"-"`
}

// Spec is one scenario as a JSON file describes it: a Plan plus a
// generated Gaussian-mixture logistic-regression task and an updater by
// name. The zero value is not runnable; see Builtin for ready-made
// scenarios and Validate for the required fields.
type Spec struct {
	Plan
	// Classes and Dim shape the logistic-regression task.
	Classes int `json:"classes"`
	Dim     int `json:"dim"`
	// TrainSize and TestSize size the generated mixture dataset.
	TrainSize int `json:"trainSize"`
	TestSize  int `json:"testSize"`
	// LearningRate is c in the InvSqrt schedule η(t) = c/√t.
	LearningRate float64 `json:"learningRate"`
	// Updater is "sgd" (default) or "adagrad" (Remark 3's robust rule;
	// LearningRate is its Eta).
	Updater string `json:"updater,omitempty"`
	// Privacy is the device-local DP budget.
	Privacy PrivacySpec `json:"privacy,omitempty"`
}

// Crowd is one run as a program describes it: a Plan plus the learning
// task itself. Spec is a thin translation into it; internal/experiments
// builds the paper's figures from it directly.
type Crowd struct {
	Plan
	// Model is the classifier; required.
	Model model.Model
	// Train is dealt to the devices; Test is held out for the curve.
	Train, Test []model.Sample
	// Lambda is the regularization weight λ of Eq. (2).
	Lambda float64
	// NewUpdater builds the server-side update rule; called once per
	// server (updaters are stateful and must never be shared). Required.
	NewUpdater func() optimizer.Updater
	// Budget sets the device-local privacy levels.
	Budget privacy.Budget
	// Mechanism, if non-nil, replaces the Eq. (10) Laplace gradient
	// mechanism on honest devices (core.DeviceStep).
	Mechanism core.GradientMechanism
	// Intercept, if non-nil, wraps the transport between the crowd and
	// the task's server — TopologyInProcess with Workers <= 1 only, where
	// the server is reachable and the single-threaded loop makes what it
	// observes exact.
	Intercept func(*core.Server, core.Transport) core.Transport
}

// withDefaults returns a copy with optional fields defaulted.
func (p Plan) withDefaults() Plan {
	if p.Minibatch < 1 {
		p.Minibatch = 1
	}
	if p.Shards < 1 {
		p.Shards = 4
	}
	if p.EvalEvery <= 0 {
		p.EvalEvery = p.Samples / 25
		if p.EvalEvery == 0 {
			p.EvalEvery = 1
		}
	}
	if p.Workers < 1 {
		p.Workers = 1
	}
	if p.Wire == "" {
		p.Wire = "json"
	}
	if p.Byzantine.Fraction > 0 && p.Byzantine.Magnitude <= 0 {
		p.Byzantine.Magnitude = 10
	}
	if p.MergeEvery <= 0 {
		p.MergeEvery = time.Hour
	}
	return p
}

// validate reports the first problem with the plan.
func (p Plan) validate() error {
	switch p.Topology {
	case TopologySingle, TopologyFollower, TopologySharded, TopologyInProcess:
	default:
		return fmt.Errorf("scenario: unknown topology %q", p.Topology)
	}
	if p.Devices < 1 {
		return fmt.Errorf("scenario: Devices must be >= 1")
	}
	if p.Samples < 1 {
		return fmt.Errorf("scenario: Samples must be >= 1")
	}
	wire, err := transport.ParseWireFormat(p.Wire)
	if err != nil {
		return fmt.Errorf("scenario: %w", err)
	}
	if p.Topology == TopologyInProcess && wire != transport.WireJSON {
		return fmt.Errorf("scenario: topology %q has no wire; wire %q needs an HTTP topology", p.Topology, p.Wire)
	}
	if f := p.Straggler.Fraction; f < 0 || f > 1 {
		return fmt.Errorf("scenario: straggler fraction %v outside [0, 1]", f)
	}
	if f := p.Byzantine.Fraction; f < 0 || f >= 1 {
		return fmt.Errorf("scenario: byzantine fraction %v outside [0, 1)", f)
	}
	if p.Byzantine.Fraction > 0 {
		if _, err := attack.ParseStrategy(p.Byzantine.Strategy); err != nil {
			return err
		}
	}
	return nil
}

// withDefaults returns a copy with optional fields defaulted.
func (s Spec) withDefaults() Spec {
	s.Plan = s.Plan.withDefaults()
	if s.Updater == "" {
		s.Updater = "sgd"
	}
	return s
}

// Validate reports the first problem with the spec.
func (s Spec) Validate() error {
	if s.Classes < 2 || s.Dim < 1 {
		return fmt.Errorf("scenario: invalid task shape C=%d D=%d", s.Classes, s.Dim)
	}
	if s.TrainSize < 1 {
		return fmt.Errorf("scenario: TrainSize must be >= 1")
	}
	if s.LearningRate <= 0 {
		return fmt.Errorf("scenario: LearningRate must be > 0")
	}
	switch s.Updater {
	case "", "sgd", "adagrad":
	default:
		return fmt.Errorf("scenario: unknown updater %q", s.Updater)
	}
	return s.Plan.validate()
}

// crowd translates a validated spec: the mixture task is generated from
// the spec's seed and the updater is built by name.
func (s Spec) crowd() (Crowd, error) {
	ds, err := dataset.GenerateMixture(dataset.MixtureConfig{
		Name: s.Name, Classes: s.Classes, Dim: s.Dim,
		TrainSize: s.TrainSize, TestSize: s.TestSize,
		MeanScale: 1, NoiseScale: 0.35, Seed: s.Seed,
	})
	if err != nil {
		return Crowd{}, err
	}
	counts := privacy.FromInv(s.Privacy.CountEpsInv)
	return Crowd{
		Plan:  s.Plan,
		Model: model.NewLogisticRegression(s.Classes, s.Dim),
		Train: ds.Train, Test: ds.Test,
		NewUpdater: func() optimizer.Updater {
			if s.Updater == "adagrad" {
				return &optimizer.AdaGrad{Eta: s.LearningRate}
			}
			return &optimizer.SGD{Schedule: optimizer.InvSqrt{C: s.LearningRate}}
		},
		Budget: privacy.Budget{
			Gradient: privacy.FromInv(s.Privacy.GradientEpsInv),
			ErrCount: counts, LabelCount: counts,
		},
	}, nil
}

// validate reports the first problem with the crowd.
func (c Crowd) validate() error {
	if c.Model == nil || c.NewUpdater == nil {
		return fmt.Errorf("scenario: Model and NewUpdater are required")
	}
	if len(c.Train) == 0 {
		return fmt.Errorf("scenario: empty training set")
	}
	if c.Intercept != nil && (c.Topology != TopologyInProcess || c.Workers > 1) {
		return fmt.Errorf("scenario: Intercept needs topology %q and workers <= 1", TopologyInProcess)
	}
	return c.Plan.validate()
}

// Builtin returns one of the named ready-made scenarios (the ones the CI
// smoke step and the acceptance tests run), or false.
func Builtin(name string) (Spec, bool) {
	for _, s := range builtins {
		if s.Name == name {
			return s, true
		}
	}
	return Spec{}, false
}

// BuiltinNames lists the built-in scenario names, in declaration order.
func BuiltinNames() []string {
	names := make([]string, len(builtins))
	for i, s := range builtins {
		names[i] = s.Name
	}
	return names
}

// builtins are the named scenarios: the ~2k-device smoke set that doubles
// as tier-1 tests, each under a minute single-threaded. churn-straggler-2k
// is the single-leader control the 4-shard variant is pinned against.
var builtins = []Spec{
	{
		Plan: Plan{
			Name: "churn-straggler-2k", Topology: TopologySingle,
			Devices: 2000, Samples: 6000, Minibatch: 1, Seed: 42,
			Churn:     ChurnSpec{Every: 50, RejoinAfter: 120},
			Straggler: StragglerSpec{Fraction: 0.2, Tau: 200},
		},
		Classes: 3, Dim: 10, TrainSize: 3000, TestSize: 600,
		LearningRate: 8,
		Privacy:      PrivacySpec{GradientEpsInv: 0.05, CountEpsInv: 1},
	},
	{
		Plan: Plan{
			Name: "churn-straggler-2k-4shard", Topology: TopologySharded, Shards: 4,
			Devices: 2000, Samples: 6000, Minibatch: 1, Seed: 42,
			Churn:     ChurnSpec{Every: 50, RejoinAfter: 120},
			Straggler: StragglerSpec{Fraction: 0.2, Tau: 200},
		},
		Classes: 3, Dim: 10, TrainSize: 3000, TestSize: 600,
		LearningRate: 8,
		Privacy:      PrivacySpec{GradientEpsInv: 0.05, CountEpsInv: 1},
	},
	{
		Plan: Plan{
			Name: "byzantine-2k", Topology: TopologySingle,
			Devices: 2000, Samples: 6000, Minibatch: 1, Seed: 42,
			Byzantine: ByzantineSpec{Fraction: 0.3, Strategy: "sign-flip", Magnitude: 10},
		},
		Classes: 3, Dim: 10, TrainSize: 3000, TestSize: 600,
		LearningRate: 8,
	},
	{
		Plan: Plan{
			Name: "follower-hint-1k", Topology: TopologyFollower,
			Devices: 1000, Samples: 3000, Minibatch: 1, Seed: 42,
			Straggler: StragglerSpec{Fraction: 0.1, Tau: 100},
		},
		Classes: 3, Dim: 10, TrainSize: 2000, TestSize: 400,
		LearningRate: 8,
	},
	// The paper's "crowd of smart devices" at a size the HTTP topologies
	// cannot reach in CI: every stressor on, no sockets.
	{
		Plan: Plan{
			Name: "crowd-100k-inprocess", Topology: TopologyInProcess,
			Devices: 100000, Samples: 300000, Minibatch: 1, Seed: 42,
			Churn:      ChurnSpec{Every: 500, RejoinAfter: 2000},
			Straggler:  StragglerSpec{Fraction: 0.2, Tau: 5000},
			EvalSubset: 1000,
		},
		Classes: 3, Dim: 10, TrainSize: 100000, TestSize: 2000,
		LearningRate: 8,
		Privacy:      PrivacySpec{GradientEpsInv: 0.05, CountEpsInv: 1},
	},
}
