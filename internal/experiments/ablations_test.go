package experiments

import (
	"context"
	"testing"

	"github.com/crowdml/crowdml/internal/scenario"
)

func TestAblationMinibatchMonotone(t *testing.T) {
	fig, err := AblationMinibatch(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Curves) != 5 {
		t.Fatalf("%d curves, want 5", len(fig.Curves))
	}
	b1 := findCurve(t, fig, "b=1")
	b50 := findCurve(t, fig, "b=50")
	// The Eq. (13) trade-off: more averaging, less noise, lower error.
	if b50.Final() >= b1.Final() {
		t.Errorf("b=50 (%v) should beat b=1 (%v)", b50.Final(), b1.Final())
	}
}

func TestAblationScheduleVariantsAllLearn(t *testing.T) {
	fig, err := AblationSchedule(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Curves) != 5 {
		t.Fatalf("%d curves, want 5", len(fig.Curves))
	}
	for _, c := range fig.Curves {
		// Every variant must do substantially better than chance (0.9).
		if c.Final() > 0.5 {
			t.Errorf("schedule %q failed to learn: final %v", c.Name, c.Final())
		}
	}
}

func TestAblationProjectionCurves(t *testing.T) {
	fig, err := AblationProjection(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Curves) != 4 {
		t.Fatalf("%d curves, want 4", len(fig.Curves))
	}
	none := findCurve(t, fig, "no projection")
	generous := findCurve(t, fig, "R=50")
	// A generous ball barely binds: must track the unprojected run.
	if diff := generous.Final() - none.Final(); diff > 0.1 || diff < -0.1 {
		t.Errorf("R=50 (%v) should track no projection (%v)",
			generous.Final(), none.Final())
	}
}

func TestAblationStaleDropHasCurves(t *testing.T) {
	fig, err := AblationStale(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Curves) != 3 {
		t.Fatalf("%d curves, want 3", len(fig.Curves))
	}
	apply := findCurve(t, fig, "apply all")
	if apply.Final() > 0.5 {
		t.Errorf("apply-stale failed to learn under delay: %v", apply.Final())
	}
}

// TestDropStaleDeclinesAndConserves drives the drop-stale wrapper with
// delays far beyond its threshold: gradients must be dropped, every one of
// them accounted for, and none of them applied.
func TestDropStaleDeclinesAndConserves(t *testing.T) {
	setup, err := newComparisonSetup(quickCfg(), true)
	if err != nil {
		t.Fatal(err)
	}
	c := setup.crowdBase(quickCfg(), 1)
	c.Straggler = scenario.StragglerSpec{Fraction: 1, Tau: 1500}
	c.Intercept = DropStale(1)
	rep, err := scenario.RunCrowd(context.Background(), c)
	if err != nil {
		t.Fatal(err)
	}
	if rep.RejectedOther == 0 {
		t.Error("long delays with threshold 1 should drop gradients")
	}
	if rep.Checkins+rep.RejectedOther != len(setup.ds.Train) || rep.ServerIteration != rep.Checkins {
		t.Errorf("checkins %d + dropped %d != total %d (server applied %d)",
			rep.Checkins, rep.RejectedOther, len(setup.ds.Train), rep.ServerIteration)
	}
}

// TestAblationGaussianBothLearn holds both mechanisms to beating chance
// (0.9) clearly at ≈ 900 noisy updates. At the quick config's ≈ 180 the
// Gaussian bar was a coin flip over seeds (docs/EXPERIMENTS.md), so the
// bars are asserted where they mean something.
func TestAblationGaussianBothLearn(t *testing.T) {
	cfg := quickCfg()
	cfg.Scale = 0.1
	fig, err := AblationGaussian(cfg)
	if err != nil {
		t.Fatal(err)
	}
	lap := findCurve(t, fig, "laplace")
	gau := findCurve(t, fig, "gaussian")
	if lap.Final() > 0.8 {
		t.Errorf("laplace variant did not learn: %v", lap.Final())
	}
	// The Gaussian mechanism at ε=10, δ=1e-5 has larger σ than the Laplace
	// scale here, but must still beat chance clearly.
	if gau.Final() > 0.85 {
		t.Errorf("gaussian variant near chance: %v", gau.Final())
	}
}

func TestAblationsRegistry(t *testing.T) {
	want := []string{
		"ablation-minibatch", "ablation-schedule", "ablation-projection",
		"ablation-stale", "ablation-gaussian", "ablation-distinguish",
	}
	for _, id := range want {
		if Ablations[id] == nil {
			t.Errorf("missing %s", id)
		}
	}
	want = append(want, "ablation-poisoning")
	if len(Ablations) != len(want) {
		t.Errorf("registry has %d entries, want %d", len(Ablations), len(want))
	}
}

func TestAblationPoisoningClipWins(t *testing.T) {
	fig, err := AblationPoisoning(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Curves) != 3 {
		t.Fatalf("%d curves, want 3", len(fig.Curves))
	}
	sgd := findCurve(t, fig, "sgd")
	clip := findCurve(t, fig, "sgd+clip")
	if clip.Final() >= sgd.Final() {
		t.Errorf("clip (%v) should beat plain SGD (%v) under poisoning",
			clip.Final(), sgd.Final())
	}
	if clip.Final() > 0.3 {
		t.Errorf("clipped updater should stay usable: %v", clip.Final())
	}
}

func TestAblationsRegistryHasPoisoning(t *testing.T) {
	if Ablations["ablation-poisoning"] == nil {
		t.Error("missing ablation-poisoning")
	}
}
