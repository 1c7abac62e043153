package experiments

import (
	"encoding/json"
	"flag"
	"math"
	"os"
	"sort"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/figures.golden.json from this run")

const (
	goldenPath = "testdata/figures.golden.json"
	// goldenTol is how far a curve's final test error may sit from the
	// recorded one: wide enough for a libm or FMA difference to move a few
	// test samples across the boundary, narrow enough that a bent curve
	// (the smallest gap between two curves a figure orders is ~0.1) fails.
	goldenTol = 0.03
)

// TestFiguresGolden is the regression gate that ties the system back to
// the paper: the final test error of every curve of Figs. 3–9 at the
// tests' quick config, and each figure's curve ordering. A change to core,
// optimizer, privacy or the engine that bends a paper curve fails here by
// figure and curve name. Regenerate only on purpose:
//
//	go test ./internal/experiments -run TestFiguresGolden -update
func TestFiguresGolden(t *testing.T) {
	got := map[string]map[string]float64{}
	for id, run := range All {
		cfg := quickCfg()
		if id == "fig3" {
			cfg = Config{Trials: 2, Seed: 1}
		}
		fig, err := run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		got[id] = map[string]float64{}
		for _, c := range fig.Curves {
			got[id][c.Name] = c.Final()
		}
	}

	if *update {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", goldenPath)
	}
	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]map[string]float64
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}

	ids := make([]string, 0, len(want))
	for id := range want {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		if len(got[id]) != len(want[id]) {
			t.Errorf("%s: %d curves, golden has %d", id, len(got[id]), len(want[id]))
		}
		for name, w := range want[id] {
			g, ok := got[id][name]
			if !ok {
				t.Errorf("%s / %q: curve missing", id, name)
			} else if math.Abs(g-w) > goldenTol {
				t.Errorf("%s / %q: final test error %.4f, golden %.4f (± %v)", id, name, g, w, goldenTol)
			}
		}
	}

	// The orderings the paper's figures show, by figure.
	final := func(id, name string) float64 {
		v, ok := got[id][name]
		if !ok {
			t.Fatalf("%s has no curve %q", id, name)
		}
		return v
	}
	for _, id := range []string{"fig4", "fig7"} {
		crowd, batch, dec := final(id, "Crowd-ML (SGD)"), final(id, "Central (batch)"), final(id, "Decentral (SGD)")
		if crowd > batch+0.1 || dec < crowd+0.1 {
			t.Errorf("%s: want crowd ≈ batch ≪ decentral, got crowd %v, batch %v, decentral %v", id, crowd, batch, dec)
		}
	}
	for _, id := range []string{"fig5", "fig8"} {
		b1, b20, batch := final(id, "Crowd-ML (SGD,b=1)"), final(id, "Crowd-ML (SGD,b=20)"), final(id, "Central (batch)")
		if b20 >= b1 || b20 >= batch {
			t.Errorf("%s: want b=20 (%v) to beat b=1 (%v) and the perturbed central batch (%v)", id, b20, b1, batch)
		}
	}
	for _, id := range []string{"fig6", "fig9"} {
		small, big := final(id, "Crowd-ML (b=20,1Δ)"), final(id, "Crowd-ML (b=20,1000Δ)")
		if big > small+0.15 {
			t.Errorf("%s: b=20 delay tolerance: 1Δ %v vs 1000Δ %v", id, small, big)
		}
	}
	if d, o := final("fig4", "Crowd-ML (SGD)"), final("fig7", "Crowd-ML (SGD)"); o <= d {
		t.Errorf("object task (%v) should be harder than digit task (%v)", o, d)
	}
}
