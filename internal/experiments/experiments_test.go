package experiments

import (
	"strings"
	"testing"

	"github.com/crowdml/crowdml/internal/metrics"
)

// quickCfg is the smallest config that still shows the paper's shapes.
func quickCfg() Config {
	return Config{Scale: 0.02, Trials: 1, Seed: 5, EvalPoints: 10}
}

func findCurve(t *testing.T, fig *Figure, name string) metrics.Series {
	t.Helper()
	for _, c := range fig.Curves {
		if c.Name == name {
			return c
		}
	}
	t.Fatalf("figure %s has no curve %q (have %v)", fig.ID, name, curveNames(fig))
	return metrics.Series{}
}

func curveNames(fig *Figure) []string {
	out := make([]string, len(fig.Curves))
	for i, c := range fig.Curves {
		out[i] = c.Name
	}
	return out
}

func TestFig3ShapesAndConvergence(t *testing.T) {
	fig, err := Fig3(Config{Trials: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Curves) != len(Fig3Rates) {
		t.Fatalf("%d curves, want %d", len(fig.Curves), len(Fig3Rates))
	}
	// The well-tuned rates must converge to a low time-averaged error
	// within 300 samples (paper: converged after ~50 samples).
	best := findCurve(t, fig, "c=10")
	if best.Final() > 0.35 {
		t.Errorf("c=10 final online error = %v, want < 0.35", best.Final())
	}
	for _, c := range fig.Curves {
		if c.Len() == 0 {
			t.Errorf("curve %s is empty", c.Name)
		}
	}
}

func TestFig4Ordering(t *testing.T) {
	fig, err := Fig4(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	crowd := findCurve(t, fig, "Crowd-ML (SGD)")
	dec := findCurve(t, fig, "Decentral (SGD)")
	batch := findCurve(t, fig, "Central (batch)")
	// Paper's shape: crowd ≈ batch ≪ decentralized.
	if crowd.Final() > batch.Final()+0.1 {
		t.Errorf("crowd %v should track central batch %v", crowd.Final(), batch.Final())
	}
	if dec.Final() < crowd.Final()+0.1 {
		t.Errorf("decentralized %v should be well above crowd %v",
			dec.Final(), crowd.Final())
	}
}

func TestFig5Ordering(t *testing.T) {
	fig, err := Fig5(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Curves) != 7 {
		t.Fatalf("%d curves, want 7", len(fig.Curves))
	}
	crowd1 := findCurve(t, fig, "Crowd-ML (SGD,b=1)")
	crowd20 := findCurve(t, fig, "Crowd-ML (SGD,b=20)")
	central20 := findCurve(t, fig, "Central (SGD,b=20)")
	batch := findCurve(t, fig, "Central (batch)")
	// Minibatching mitigates gradient noise (Eq. 13)...
	if crowd20.Final() >= crowd1.Final() {
		t.Errorf("b=20 (%v) should beat b=1 (%v)", crowd20.Final(), crowd1.Final())
	}
	// ...and beats both centralized baselines.
	if crowd20.Final() >= batch.Final() {
		t.Errorf("crowd b=20 (%v) should beat perturbed central batch (%v)",
			crowd20.Final(), batch.Final())
	}
	// Central SGD on perturbed inputs sits near chance regardless of b.
	if central20.Final() < 0.5 {
		t.Errorf("central SGD b=20 (%v) should be near chance", central20.Final())
	}
}

func TestFig6DelayTolerance(t *testing.T) {
	fig, err := Fig6(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Curves) != 9 { // 2 b-values × 4 delays + batch reference
		t.Fatalf("%d curves, want 9", len(fig.Curves))
	}
	b20small := findCurve(t, fig, "Crowd-ML (b=20,1Δ)")
	b20big := findCurve(t, fig, "Crowd-ML (b=20,1000Δ)")
	// Fig. 6: with b=20, even 1000Δ delays barely move the error.
	if b20big.Final() > b20small.Final()+0.15 {
		t.Errorf("b=20 delay tolerance violated: 1Δ %v vs 1000Δ %v",
			b20small.Final(), b20big.Final())
	}
}

func TestFig7HarderThanFig4(t *testing.T) {
	cfg := quickCfg()
	f4, err := Fig4(cfg)
	if err != nil {
		t.Fatal(err)
	}
	f7, err := Fig7(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c4 := findCurve(t, f4, "Crowd-ML (SGD)")
	c7 := findCurve(t, f7, "Crowd-ML (SGD)")
	// Appendix D: same shapes, larger error on the object task.
	if c7.Final() <= c4.Final() {
		t.Errorf("object task (%v) should be harder than digit task (%v)",
			c7.Final(), c4.Final())
	}
}

// TestCrowdCurveAveragesTrials pins the "averaged test errors from 10
// trials" protocol: the curve of n trials is the pointwise mean of the
// single-trial curves at seeds Seed, Seed+1_000_003, ….
func TestCrowdCurveAveragesTrials(t *testing.T) {
	cfg := quickCfg()
	setup, err := newComparisonSetup(cfg, true)
	if err != nil {
		t.Fatal(err)
	}
	base := setup.crowdBase(cfg, 1)
	cfg.Trials = 3
	avg, err := crowdCurve(cfg, base, "avg")
	if err != nil {
		t.Fatal(err)
	}
	if avg.Name != "avg" || avg.Len() != cfg.EvalPoints {
		t.Fatalf("averaged curve %q has %d points, want %d", avg.Name, avg.Len(), cfg.EvalPoints)
	}
	sum := make([]float64, avg.Len())
	for i := 0; i < 3; i++ {
		one := cfg
		one.Trials, one.Seed = 1, cfg.Seed+uint64(i)*1_000_003
		c, err := crowdCurve(one, base, "one")
		if err != nil {
			t.Fatal(err)
		}
		for j, y := range c.Y {
			sum[j] += y
		}
	}
	for j := range sum {
		if d := avg.Y[j] - sum[j]/3; d > 1e-12 || d < -1e-12 {
			t.Errorf("point %d: averaged %v, mean of trials %v", j, avg.Y[j], sum[j]/3)
		}
	}
}

func TestAllRegistryComplete(t *testing.T) {
	for _, id := range []string{"fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9"} {
		if All[id] == nil {
			t.Errorf("missing %s in registry", id)
		}
	}
	if len(All) != 7 {
		t.Errorf("registry has %d entries, want 7", len(All))
	}
}

func TestRender(t *testing.T) {
	fig := &Figure{
		ID: "figX", Title: "test", XLabel: "Iteration", YLabel: "Error",
		Notes: []string{"note-1"},
		Curves: []metrics.Series{
			{Name: "a", X: []float64{1, 2}, Y: []float64{0.5, 0.25}},
			{Name: "b", X: []float64{1}, Y: []float64{0.9}},
		},
	}
	var sb strings.Builder
	if err := Render(&sb, fig); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"figX", "note-1", "0.2500", "0.9000", "final:", "-"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered output missing %q:\n%s", want, out)
		}
	}
	empty := &Figure{ID: "e", Title: "empty"}
	sb.Reset()
	if err := Render(&sb, empty); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "no curves") {
		t.Error("empty figure should render a placeholder")
	}
}

func TestConfigNormalization(t *testing.T) {
	c := Config{}.normalized()
	if c.Scale != 1 || c.Trials != 1 || c.EvalPoints != 50 {
		t.Errorf("normalized zero config = %+v", c)
	}
	if got := scaleInt(1000, 0.001, 20); got != 20 {
		t.Errorf("scaleInt floor = %d, want 20", got)
	}
	if got := scaleInt(1000, 0.5, 20); got != 500 {
		t.Errorf("scaleInt = %d, want 500", got)
	}
}
