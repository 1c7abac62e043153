package privacy

import (
	"math"
	"testing"
	"testing/quick"

	"github.com/crowdml/crowdml/internal/linalg"
	"github.com/crowdml/crowdml/internal/rng"
)

func TestEpsConversions(t *testing.T) {
	tests := []struct {
		name    string
		inv     float64
		enabled bool
		eps     float64
	}{
		{name: "disabled", inv: 0, enabled: false, eps: 0},
		{name: "paper fig5", inv: 0.1, enabled: true, eps: 10},
		{name: "high privacy", inv: 10, enabled: true, eps: 0.1},
		{name: "negative treated as disabled", inv: -1, enabled: false, eps: 0},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			e := FromInv(tt.inv)
			if e.Enabled() != tt.enabled {
				t.Errorf("Enabled = %v, want %v", e.Enabled(), tt.enabled)
			}
			if math.Abs(float64(e)-tt.eps) > 1e-12 {
				t.Errorf("eps = %v, want %v", float64(e), tt.eps)
			}
		})
	}
}

func TestBudgetTotal(t *testing.T) {
	tests := []struct {
		name    string
		b       Budget
		classes int
		want    float64
	}{
		{
			name:    "all enabled",
			b:       Budget{Gradient: 1, ErrCount: 0.1, LabelCount: 0.01},
			classes: 10,
			want:    1 + 0.1 + 10*0.01,
		},
		{
			name:    "gradient only",
			b:       Budget{Gradient: 2},
			classes: 5,
			want:    2,
		},
		{
			name:    "disabled gradient disables total",
			b:       Budget{ErrCount: 1, LabelCount: 1},
			classes: 3,
			want:    0,
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.b.Total(tt.classes); math.Abs(float64(got)-tt.want) > 1e-12 {
				t.Errorf("Total = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestPerturbGradientDisabledIsNoop(t *testing.T) {
	g, _ := linalg.NewMatrixFrom(1, 3, []float64{1, 2, 3})
	PerturbGradient(g, 10, 4, 0, rng.New(1))
	if !linalg.Equal(g.Data(), []float64{1, 2, 3}, 0) {
		t.Errorf("disabled mechanism changed data: %v", g.Data())
	}
}

func TestPerturbGradientNoiseScale(t *testing.T) {
	// Empirical variance of added noise must match 2*(S/(bε))² per element.
	const (
		dims = 20000
		b    = 20
		sens = 4.0
	)
	eps := Eps(10)
	g := linalg.NewMatrix(1, dims)
	r := rng.New(99)
	PerturbGradient(g, b, sens, eps, r)
	scale := sens / (float64(b) * float64(eps))
	wantVar := 2 * scale * scale
	gotVar := linalg.Variance(g.Data())
	if math.Abs(gotVar-wantVar) > 0.1*wantVar {
		t.Errorf("noise variance = %v, want ~%v", gotVar, wantVar)
	}
	if math.Abs(linalg.Mean(g.Data())) > 3*scale/math.Sqrt(dims)*3 {
		t.Errorf("noise mean = %v, want ~0", linalg.Mean(g.Data()))
	}
}

func TestGradientNoiseVarianceMatchesEq13(t *testing.T) {
	// Eq. (13): E‖z‖² = 32 D / (b ε_g)² for logistic regression (S=4).
	const (
		d    = 50
		b    = 10
		sens = 4.0
	)
	eps := Eps(10)
	got := GradientNoiseVariance(d, b, sens, eps)
	want := 32 * float64(d) / math.Pow(float64(b)*float64(eps), 2)
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("GradientNoiseVariance = %v, want %v", got, want)
	}
	if GradientNoiseVariance(d, b, sens, 0) != 0 {
		t.Error("disabled variance should be 0")
	}
}

func TestGradientNoiseVarianceEmpirical(t *testing.T) {
	// The mechanism's measured E‖z‖² must match the analytic Eq. (13) value.
	const (
		dims   = 50
		b      = 5
		sens   = 4.0
		trials = 20000
	)
	eps := Eps(2)
	r := rng.New(7)
	var sum float64
	for i := 0; i < trials; i++ {
		g := linalg.NewMatrix(1, dims)
		PerturbGradient(g, b, sens, eps, r)
		sum += linalg.Norm2Sq(g.Data())
	}
	got := sum / trials
	want := GradientNoiseVariance(dims, b, sens, eps)
	if math.Abs(got-want) > 0.05*want {
		t.Errorf("empirical E||z||^2 = %v, want ~%v", got, want)
	}
}

func TestSanitizeCountDisabled(t *testing.T) {
	if got := SanitizeCount(7, 0, rng.New(1)); got != 7 {
		t.Errorf("disabled SanitizeCount = %d, want 7", got)
	}
}

func TestSanitizeCountUnbiased(t *testing.T) {
	r := rng.New(11)
	eps := Eps(1)
	const n = 100000
	var sum float64
	for i := 0; i < n; i++ {
		sum += float64(SanitizeCount(5, eps, r))
	}
	mean := sum / n
	if math.Abs(mean-5) > 0.05 {
		t.Errorf("sanitized count mean = %v, want ~5", mean)
	}
}

func TestSanitizeCountVariance(t *testing.T) {
	r := rng.New(13)
	eps := Eps(2)
	want := CountNoiseVariance(eps)
	const n = 200000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		v := float64(SanitizeCount(0, eps, r))
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	got := sumSq/n - mean*mean
	if math.Abs(got-want) > 0.05*want {
		t.Errorf("count noise variance = %v, want ~%v", got, want)
	}
}

func TestSanitizeCounts(t *testing.T) {
	r := rng.New(17)
	in := []int{1, 2, 3}
	out := SanitizeCounts(in, 0, r)
	for i := range in {
		if out[i] != in[i] {
			t.Errorf("disabled SanitizeCounts changed element %d", i)
		}
	}
	out2 := SanitizeCounts(in, 1, r)
	if len(out2) != 3 {
		t.Fatalf("wrong length %d", len(out2))
	}
	if &out2[0] == &in[0] {
		t.Error("SanitizeCounts must return a fresh slice")
	}
}

func TestPerturbFeaturesDisabled(t *testing.T) {
	x := []float64{0.5, -0.5}
	PerturbFeatures(x, 0, rng.New(1))
	if !linalg.Equal(x, []float64{0.5, -0.5}, 0) {
		t.Error("disabled PerturbFeatures changed data")
	}
}

func TestPerturbFeaturesScale(t *testing.T) {
	// Eq. (15): noise scale 2/ε per element, variance 8/ε².
	eps := Eps(4)
	x := make([]float64, 50000)
	PerturbFeatures(x, eps, rng.New(19))
	wantVar := 8 / float64(eps*eps)
	gotVar := linalg.Variance(x)
	if math.Abs(gotVar-wantVar) > 0.05*wantVar {
		t.Errorf("feature noise variance = %v, want ~%v (8/eps^2)", gotVar, wantVar)
	}
}

func TestPerturbLabelKeepProbability(t *testing.T) {
	// Eq. (16): P(keep) = e^{ε/2} / (e^{ε/2} + C − 1).
	const classes = 10
	eps := Eps(10)
	want := LabelKeepProbability(classes, eps)
	r := rng.New(23)
	const n = 200000
	kept := 0
	for i := 0; i < n; i++ {
		if PerturbLabel(3, classes, eps, r) == 3 {
			kept++
		}
	}
	got := float64(kept) / n
	if math.Abs(got-want) > 0.01 {
		t.Errorf("keep fraction = %v, want ~%v", got, want)
	}
}

func TestPerturbLabelFlipsUniformly(t *testing.T) {
	const classes = 4
	eps := Eps(0.1) // near-uniform output
	r := rng.New(29)
	counts := make([]int, classes)
	const n = 200000
	for i := 0; i < n; i++ {
		counts[PerturbLabel(0, classes, eps, r)]++
	}
	// Non-true labels must be equally likely among themselves.
	for k := 2; k < classes; k++ {
		ratio := float64(counts[k]) / float64(counts[1])
		if math.Abs(ratio-1) > 0.05 {
			t.Errorf("flip distribution skewed: counts=%v", counts)
		}
	}
}

func TestPerturbLabelDisabled(t *testing.T) {
	if got := PerturbLabel(2, 5, 0, rng.New(1)); got != 2 {
		t.Errorf("disabled PerturbLabel = %d, want 2", got)
	}
	if got := LabelKeepProbability(5, 0); got != 1 {
		t.Errorf("disabled keep probability = %v, want 1", got)
	}
}

// Property: perturbed labels are always valid class indices.
func TestPerturbLabelRangeProperty(t *testing.T) {
	r := rng.New(31)
	f := func(ySeed, cSeed uint8, epsRaw float64) bool {
		classes := 2 + int(cSeed%20)
		y := int(ySeed) % classes
		eps := Eps(math.Abs(math.Mod(epsRaw, 20)))
		got := PerturbLabel(y, classes, eps, r)
		return got >= 0 && got < classes
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}
