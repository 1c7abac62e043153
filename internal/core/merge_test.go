package core

import (
	"context"
	"math"
	"testing"

	"github.com/crowdml/crowdml/internal/model"
	"github.com/crowdml/crowdml/internal/optimizer"
)

func mergeTestServer(t *testing.T) *Server {
	t.Helper()
	s, err := NewServer(ServerConfig{
		Model:   model.NewLogisticRegression(2, 3),
		Updater: &optimizer.SGD{Schedule: optimizer.InvSqrt{C: 1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestParamViewZeroCopyAndVersion(t *testing.T) {
	ctx := context.Background()
	s := mergeTestServer(t)
	token, err := s.RegisterDevice(ctx, "d1")
	if err != nil {
		t.Fatal(err)
	}
	v0 := s.ParamView()
	if v0.Version != 0 {
		t.Fatalf("fresh view version = %d, want 0", v0.Version)
	}
	req := &CheckinRequest{
		Grad:        []float64{1, 0, 0, 0, 0, 0},
		NumSamples:  1,
		LabelCounts: []int{1, 0},
	}
	if err := s.Checkin(ctx, "d1", token, req); err != nil {
		t.Fatal(err)
	}
	v1 := s.ParamView()
	if v1.Version != 1 {
		t.Fatalf("view version after checkin = %d, want 1", v1.Version)
	}
	// Two views of the same published snapshot must alias the same backing
	// array (the whole point of the zero-copy hook).
	v2 := s.ParamView()
	if &v1.Params[0] != &v2.Params[0] {
		t.Error("consecutive views of one snapshot do not share backing storage")
	}
	// And the pre-checkin view must be unaffected by the update (snapshots
	// are immutable once published).
	if v0.Params[0] != 0 {
		t.Errorf("old view mutated by later checkin: %v", v0.Params[:3])
	}
}

func TestAuthenticateExported(t *testing.T) {
	ctx := context.Background()
	s := mergeTestServer(t)
	token, err := s.RegisterDevice(ctx, "d1")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Authenticate(ctx, "d1", token); err != nil {
		t.Fatalf("Authenticate(valid) = %v", err)
	}
	if err := s.Authenticate(ctx, "d1", "wrong"); err != ErrAuth {
		t.Fatalf("Authenticate(bad token) = %v, want ErrAuth", err)
	}
	// The replica-style fallback must apply (and cache) exactly as it does
	// for Checkout.
	calls := 0
	s.cfg.AuthFallback = func(ctx context.Context, deviceID, tok string) error {
		calls++
		return nil
	}
	if err := s.Authenticate(ctx, "d2", "vouched"); err != nil {
		t.Fatalf("Authenticate(vouched) = %v", err)
	}
	if err := s.Authenticate(ctx, "d2", "vouched"); err != nil {
		t.Fatalf("Authenticate(cached vouched) = %v", err)
	}
	if calls != 1 {
		t.Fatalf("fallback ran %d times, want 1 (cached after vouch)", calls)
	}
}

func TestCrowdTotals(t *testing.T) {
	ctx := context.Background()
	s := mergeTestServer(t)
	token, err := s.RegisterDevice(ctx, "d1")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		req := &CheckinRequest{
			Grad:        []float64{0.1, 0, 0, 0, 0, 0},
			NumSamples:  5,
			ErrCount:    2,
			LabelCounts: []int{3, 2},
		}
		if err := s.Checkin(ctx, "d1", token, req); err != nil {
			t.Fatal(err)
		}
	}
	ns, ne, nky := s.CrowdTotals()
	if ns != 15 || ne != 6 {
		t.Fatalf("CrowdTotals = (%d, %d), want (15, 6)", ns, ne)
	}
	if len(nky) != 2 || nky[0] != 9 || nky[1] != 6 {
		t.Fatalf("CrowdTotals labels = %v, want [9 6]", nky)
	}
}

func TestMergeParamViews(t *testing.T) {
	views := []ParamView{
		{Params: []float64{1, 2}, Version: 1},
		{Params: []float64{3, 6}, Version: 3},
	}
	// Weighted by versions: (1·1 + 3·3)/4 = 2.5, (1·2 + 3·6)/4 = 5. What the
	// destination held before (a recycled snapshot's old contents) is ignored.
	got := []float64{math.Inf(1), math.NaN()}
	if err := MergeParamViews(got, views, []float64{1, 3}); err != nil {
		t.Fatal(err)
	}
	if math.Abs(got[0]-2.5) > 1e-12 || math.Abs(got[1]-5) > 1e-12 {
		t.Fatalf("weighted merge = %v, want [2.5 5]", got)
	}
	// All-zero weights fall back to a uniform average.
	if err := MergeParamViews(got, views, []float64{0, 0}); err != nil {
		t.Fatal(err)
	}
	if math.Abs(got[0]-2) > 1e-12 || math.Abs(got[1]-4) > 1e-12 {
		t.Fatalf("uniform merge = %v, want [2 4]", got)
	}
	// The inputs must not be mutated.
	if views[0].Params[0] != 1 || views[1].Params[0] != 3 {
		t.Fatalf("merge mutated its inputs: %v", views)
	}

	if err := MergeParamViews(got, nil, nil); err == nil {
		t.Error("MergeParamViews(no views) did not error")
	}
	if err := MergeParamViews(got, views, []float64{1}); err == nil {
		t.Error("MergeParamViews(weight/view mismatch) did not error")
	}
	if err := MergeParamViews(got, views, []float64{1, -1}); err == nil {
		t.Error("MergeParamViews(negative weight) did not error")
	}
	bad := []ParamView{{Params: []float64{1}}, {Params: []float64{1, 2}}}
	if err := MergeParamViews(got, bad, []float64{1, 1}); err == nil {
		t.Error("MergeParamViews(shape mismatch) did not error")
	}
}
