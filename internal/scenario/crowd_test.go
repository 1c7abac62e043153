package scenario

import (
	"context"
	"math"
	"testing"

	"github.com/crowdml/crowdml/internal/baseline"
	"github.com/crowdml/crowdml/internal/core"
	"github.com/crowdml/crowdml/internal/dataset"
	"github.com/crowdml/crowdml/internal/model"
	"github.com/crowdml/crowdml/internal/optimizer"
	"github.com/crowdml/crowdml/internal/privacy"
)

// These tests hold the engine, over its in-process topology, to the
// paper-shaped behaviour the figures rest on: Section V-C's convergence,
// minibatch, privacy and delay properties, the determinism contract at
// the bit level, and Remark 3's robustness claims under a byzantine
// cohort.

func mnistTask(t *testing.T, train, test int, seed uint64) (*dataset.Dataset, model.Model) {
	t.Helper()
	ds, err := dataset.MNISTLike(train, test, seed)
	if err != nil {
		t.Fatal(err)
	}
	return ds, model.NewLogisticRegression(ds.Classes, ds.Dim)
}

func smallTask(t *testing.T) (*dataset.Dataset, model.Model) {
	return mnistTask(t, 3000, 800, 11)
}

func sgd50() optimizer.Updater {
	return &optimizer.SGD{Schedule: optimizer.InvSqrt{C: 50}}
}

// baseCrowd is 50 devices, b = 1, two passes, no privacy, no delay.
func baseCrowd(ds *dataset.Dataset, m model.Model) Crowd {
	return Crowd{
		Plan: Plan{
			Name: "test", Topology: TopologyInProcess,
			Devices: 50, Minibatch: 1, Samples: 2 * len(ds.Train),
			EvalSubset: 400, Seed: 3,
		},
		Model: m, Train: ds.Train, Test: ds.Test,
		NewUpdater: sgd50,
	}
}

func allDelayed(tau float64) StragglerSpec { return StragglerSpec{Fraction: 1, Tau: tau} }

func mustRunCrowd(t *testing.T, c Crowd) *Report {
	t.Helper()
	rep, err := RunCrowd(context.Background(), c)
	if err != nil {
		t.Fatalf("crowd %s: %v", c.Name, err)
	}
	return rep
}

// runCrowdState runs the crowd and also returns the task server's
// end-of-run learning state, reached through an identity Intercept.
func runCrowdState(t *testing.T, c Crowd) (*Report, *core.ServerState) {
	t.Helper()
	var srv *core.Server
	c.Intercept = func(s *core.Server, tr core.Transport) core.Transport {
		srv = s
		return tr
	}
	rep := mustRunCrowd(t, c)
	return rep, srv.ExportState()
}

// meanStaleness is the average number of server updates between a
// gradient's checkout and its application, from the server's own
// per-device StalenessSum.
func meanStaleness(st *core.ServerState) float64 {
	sum := 0
	for _, d := range st.Devices {
		sum += d.StalenessSum
	}
	return float64(sum) / float64(st.Iteration)
}

func TestCrowdValidation(t *testing.T) {
	ds, m := smallTask(t)
	tests := []struct {
		name   string
		mutate func(*Crowd)
	}{
		{name: "no model", mutate: func(c *Crowd) { c.Model = nil }},
		{name: "no updater", mutate: func(c *Crowd) { c.NewUpdater = nil }},
		{name: "no devices", mutate: func(c *Crowd) { c.Devices = 0 }},
		{name: "no data", mutate: func(c *Crowd) { c.Train = nil }},
		{name: "bad byzantine fraction", mutate: func(c *Crowd) {
			c.Byzantine = ByzantineSpec{Fraction: 1.5, Strategy: "sign-flip"}
		}},
		{name: "unknown strategy", mutate: func(c *Crowd) {
			c.Byzantine = ByzantineSpec{Fraction: 0.1, Strategy: "nope"}
		}},
		{name: "intercept over sockets", mutate: func(c *Crowd) {
			c.Topology = TopologySingle
			c.Intercept = func(*core.Server, core.Transport) core.Transport { return nil }
		}},
		{name: "intercept under parallel workers", mutate: func(c *Crowd) {
			c.Workers = 2
			c.Intercept = func(_ *core.Server, tr core.Transport) core.Transport { return tr }
		}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			c := baseCrowd(ds, m)
			tt.mutate(&c)
			if _, err := RunCrowd(context.Background(), c); err == nil {
				t.Error("expected config error")
			}
		})
	}
}

func TestCrowdConverges(t *testing.T) {
	ds, m := smallTask(t)
	rep := mustRunCrowd(t, baseCrowd(ds, m))
	if len(rep.Curve) == 0 {
		t.Fatal("empty curve")
	}
	if rep.FinalTestError > 0.2 {
		t.Errorf("final error %v, want < 0.2 (near central batch ~0.1)", rep.FinalTestError)
	}
	if first := rep.Curve[0].TestError; first <= rep.FinalTestError {
		t.Errorf("error did not decrease: first %v, final %v", first, rep.FinalTestError)
	}
	// Every sample becomes exactly one update at b=1 (after drain).
	if rep.Checkins != len(ds.Train)*2 || rep.ServerIteration != rep.Checkins {
		t.Errorf("checkins = %d, server iteration %d, want %d", rep.Checkins, rep.ServerIteration, len(ds.Train)*2)
	}
}

func TestCrowdMinibatchReducesCheckins(t *testing.T) {
	ds, m := smallTask(t)
	c := baseCrowd(ds, m)
	c.Minibatch = 20
	rep := mustRunCrowd(t, c)
	// Communication reduction by ~b (Section IV-B2); buffers may retain a
	// partial batch, so allow slack.
	maxCheckins := len(ds.Train) * 2 / 20
	if rep.Checkins > maxCheckins || rep.Checkins < maxCheckins/2 {
		t.Errorf("checkins = %d, want ~%d", rep.Checkins, maxCheckins)
	}
}

// Privacy ordering (Fig. 5): with ε=10, larger minibatches must give lower
// error, and every private run is worse than the non-private one.
func TestCrowdPrivacyOrdering(t *testing.T) {
	ds, m := smallTask(t)
	run := func(b int, eps privacy.Eps) float64 {
		c := baseCrowd(ds, m)
		c.Minibatch = b
		c.Budget = privacy.Budget{Gradient: eps}
		c.Samples = 3 * len(ds.Train)
		return mustRunCrowd(t, c).FinalTestError
	}
	eps := privacy.FromInv(0.1)
	clean := run(1, 0)
	b1 := run(1, eps)
	b20 := run(20, eps)
	if b1 <= clean {
		t.Errorf("privacy should cost accuracy: clean %v, b=1 private %v", clean, b1)
	}
	if b20 >= b1 {
		t.Errorf("larger minibatch should mitigate noise: b=20 %v, b=1 %v", b20, b1)
	}
}

// Delay tolerance (Fig. 6): with b=20 the delayed run must stay close to
// the undelayed one.
func TestCrowdDelayToleranceAtLargeB(t *testing.T) {
	ds, m := smallTask(t)
	run := func(tau float64) float64 {
		c := baseCrowd(ds, m)
		c.Minibatch = 20
		c.Budget = privacy.Budget{Gradient: privacy.FromInv(0.1)}
		c.Straggler = allDelayed(tau)
		c.Samples = 3 * len(ds.Train)
		return mustRunCrowd(t, c).FinalTestError
	}
	undelayed := run(0)
	delayed := run(200)
	if delayed > undelayed+0.1 {
		t.Errorf("b=20 should tolerate delay: undelayed %v, delayed %v", undelayed, delayed)
	}
}

func TestCrowdStalenessGrowsWithDelay(t *testing.T) {
	ds, m := smallTask(t)
	c := baseCrowd(ds, m)
	c.Straggler = allDelayed(100)
	if _, st := runCrowdState(t, c); meanStaleness(st) <= 0 {
		t.Errorf("mean staleness = %v, want > 0 under delay", meanStaleness(st))
	}
	c.Straggler = StragglerSpec{}
	if _, st := runCrowdState(t, c); meanStaleness(st) != 0 {
		t.Errorf("mean staleness = %v without delay, want 0", meanStaleness(st))
	}
}

func TestCrowdDrainsInFlight(t *testing.T) {
	// Huge delays relative to the run length: updates must still all be
	// applied by the final drain, and the final point measured after it.
	ds, m := smallTask(t)
	c := baseCrowd(ds, m)
	c.Samples = len(ds.Train)
	c.Straggler = allDelayed(1e9)
	rep := mustRunCrowd(t, c)
	if rep.Checkins != len(ds.Train) {
		t.Errorf("checkins = %d, want %d after drain", rep.Checkins, len(ds.Train))
	}
	if n := len(rep.Curve); n < 2 || rep.Curve[n-2].TestError <= rep.FinalTestError {
		t.Errorf("final point should see the drained updates: curve %v", rep.Curve)
	}
}

func TestCrowdCustomUpdater(t *testing.T) {
	ds, m := smallTask(t)
	c := baseCrowd(ds, m)
	c.Samples = len(ds.Train)
	c.NewUpdater = func() optimizer.Updater { return &optimizer.AdaGrad{Eta: 0.3} }
	if final := mustRunCrowd(t, c).FinalTestError; final > 0.4 {
		t.Errorf("AdaGrad crowd run final error %v, want < 0.4", final)
	}
}

// The data-sharing gap of Figs. 4/7: decentralized must be clearly worse
// (paper: ~0.5 vs ~0.1).
func TestDecentralWorseThanCrowd(t *testing.T) {
	ds, m := smallTask(t)
	crowd := mustRunCrowd(t, baseCrowd(ds, m))
	dec, err := baseline.RunDecentral(baseline.DecentralConfig{
		Model: m, Train: ds.Train, Test: ds.Test,
		Devices: 50, Schedule: optimizer.InvSqrt{C: 50},
		Passes: 2, EvalDevices: 10, EvalSubset: 300, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if dec.Final() < crowd.FinalTestError+0.1 {
		t.Errorf("decentralized %v should be well above crowd %v", dec.Final(), crowd.FinalTestError)
	}
}

// paramsBits compares two runs' final parameters at the bit level — the
// strongest possible "same trajectory" check.
func paramsBits(t *testing.T, a, b *core.ServerState, what string) {
	t.Helper()
	da, db := a.Params, b.Params
	if len(da) != len(db) {
		t.Fatalf("%s: parameter lengths differ: %d vs %d", what, len(da), len(db))
	}
	for i := range da {
		if math.Float64bits(da[i]) != math.Float64bits(db[i]) {
			t.Fatalf("%s: params diverge at [%d]: %v vs %v", what, i, da[i], db[i])
		}
	}
}

// TestCrowdBitIdenticalSameSeed pins the full determinism contract: two
// same-seed runs agree on every observable bit for bit, not just on the
// rounded curve — and a different seed is a different run.
func TestCrowdBitIdenticalSameSeed(t *testing.T) {
	ds, m := smallTask(t)
	c := baseCrowd(ds, m)
	c.Straggler = allDelayed(40)
	a, sa := runCrowdState(t, c)
	b, sb := runCrowdState(t, c)
	paramsBits(t, sa, sb, "same seed")
	if a.Checkins != b.Checkins || meanStaleness(sa) != meanStaleness(sb) || a.RejectedOther != b.RejectedOther {
		t.Errorf("counters diverged: (%d, %v, %d) vs (%d, %v, %d)",
			a.Checkins, meanStaleness(sa), a.RejectedOther, b.Checkins, meanStaleness(sb), b.RejectedOther)
	}
	if len(a.Curve) != len(b.Curve) {
		t.Fatalf("curve lengths differ: %d vs %d", len(a.Curve), len(b.Curve))
	}
	for i := range a.Curve {
		if a.Curve[i] != b.Curve[i] {
			t.Fatalf("curves diverge at point %d", i)
		}
	}
	c.Seed++
	other := mustRunCrowd(t, c)
	same := true
	for i := range a.Curve {
		same = same && a.Curve[i] == other.Curve[i]
	}
	if same {
		t.Error("different seeds produced identical curves")
	}
}

// TestCrowdEvalSubsetStreamIsolation is the regression test for the
// shared-stream seed leak: evaluation sub-sampling draws from its own
// stream, so changing EvalSubset must not perturb the data assignment,
// arrival schedule or noise — the final parameters must be bit-identical.
func TestCrowdEvalSubsetStreamIsolation(t *testing.T) {
	ds, m := smallTask(t)
	full, sub := baseCrowd(ds, m), baseCrowd(ds, m)
	full.EvalSubset = 0
	sub.EvalSubset = 100
	a, sa := runCrowdState(t, full)
	b, sb := runCrowdState(t, sub)
	paramsBits(t, sa, sb, "EvalSubset change")
	if a.Checkins != b.Checkins {
		t.Errorf("EvalSubset change altered the schedule: %d vs %d checkins", a.Checkins, b.Checkins)
	}
}

// TestCrowdDelayStreamIsolation checks the delay model draws from a
// dedicated stream: switching no delay (which consumes no draws) for a
// vanishingly small uniform delay on every device (three draws per flush)
// keeps event ordering — and therefore the learning trajectory —
// bit-identical. Only the delay stream's consumption changes.
func TestCrowdDelayStreamIsolation(t *testing.T) {
	ds, m := smallTask(t)
	none, tiny := baseCrowd(ds, m), baseCrowd(ds, m)
	tiny.Straggler = allDelayed(1e-12)
	a, sa := runCrowdState(t, none)
	b, sb := runCrowdState(t, tiny)
	paramsBits(t, sa, sb, "tiny-delay swap")
	if a.Checkins != b.Checkins || meanStaleness(sa) != meanStaleness(sb) {
		t.Errorf("tiny delays changed the schedule: (%d, %v) vs (%d, %v)",
			a.Checkins, meanStaleness(sa), b.Checkins, meanStaleness(sb))
	}
}

// ---- Malignant devices (Section III-C, Remark 3) ----

// poisonedCrowd is the model-poisoning experiment: a crowd whose
// byzantine cohort checks in adversarial gradients for the given number
// of rounds (= samples at b = 1), under the update rule on trial.
func poisonedCrowd(t *testing.T, devices, rounds int, seed uint64, byz ByzantineSpec, up func() optimizer.Updater) *Report {
	t.Helper()
	ds, m := mnistTask(t, 3000, 600, 31)
	return mustRunCrowd(t, Crowd{
		Plan: Plan{
			Name: "poisoning", Topology: TopologyInProcess,
			Devices: devices, Samples: rounds, Seed: seed, Byzantine: byz,
		},
		Model: m, Train: ds.Train, Test: ds.Test,
		NewUpdater: up,
	})
}

var largeGradient = ByzantineSpec{Fraction: 0.1, Strategy: "large-gradient", Magnitude: 100}

func TestPoisoningDegradesPlainSGD(t *testing.T) {
	clean := poisonedCrowd(t, 100, 6000, 1, ByzantineSpec{}, sgd50)
	poisoned := poisonedCrowd(t, 100, 6000, 1, largeGradient, sgd50)
	if poisoned.ByzantineCheckins == 0 {
		t.Fatal("no malicious checkins happened")
	}
	if poisoned.FinalTestError < clean.FinalTestError+0.1 {
		t.Errorf("poisoning should hurt plain SGD: clean %v, poisoned %v",
			clean.FinalTestError, poisoned.FinalTestError)
	}
}

// Remark 3's claim: adaptive learning rates provide robustness to large
// gradients from malignant devices. AdaGrad's per-coordinate normalization
// caps the damage a huge gradient can do.
func TestAdaGradMoreRobustThanSGDUnderPoisoning(t *testing.T) {
	sgd := poisonedCrowd(t, 100, 6000, 1, largeGradient, sgd50).FinalTestError
	ada := poisonedCrowd(t, 100, 6000, 1, largeGradient, func() optimizer.Updater {
		return &optimizer.AdaGrad{Eta: 0.5}
	}).FinalTestError
	if ada >= sgd {
		t.Errorf("AdaGrad (%v) should beat SGD (%v) under poisoning", ada, sgd)
	}
}

func TestPoisonSignFlipStrategy(t *testing.T) {
	rep := poisonedCrowd(t, 50, 3000, 2,
		ByzantineSpec{Fraction: 0.2, Strategy: "sign-flip", Magnitude: 10}, sgd50)
	if rep.ByzantineCheckins < 400 {
		t.Errorf("expected ~600 malicious checkins, got %d", rep.ByzantineCheckins)
	}
}

// The sensitivity-aware server-side clip (optimizer.Clip) must neutralize
// the large-gradient attack almost completely: honest averaged gradients
// have L1 norm at most 2, so a clip at 4 never touches them.
func TestClipNeutralizesPoisoning(t *testing.T) {
	rep := poisonedCrowd(t, 100, 6000, 1, largeGradient, func() optimizer.Updater {
		return &optimizer.Clip{Inner: sgd50(), MaxNorm1: 4}
	})
	if rep.FinalTestError > 0.2 {
		t.Errorf("clipped server still poisoned: test error %v", rep.FinalTestError)
	}
}
