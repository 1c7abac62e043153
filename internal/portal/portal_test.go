package portal

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"

	"github.com/crowdml/crowdml/internal/core"
	"github.com/crowdml/crowdml/internal/hub"
	"github.com/crowdml/crowdml/internal/model"
	"github.com/crowdml/crowdml/internal/optimizer"
)

func testSetup(t *testing.T) (*core.Server, *Portal) {
	t.Helper()
	srv, err := core.NewServer(core.ServerConfig{
		Model:   model.NewLogisticRegression(3, 4),
		Updater: &optimizer.SGD{Schedule: optimizer.Constant{C: 0.1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	p := New(func() hub.Progress { return hub.ProgressOf(srv) }, TaskInfo{
		Name:       "Activity recognition study",
		Objective:  "Learn user activities from motion",
		SensorData: "accelerometer magnitudes, FFT on device",
		Labels:     []string{"Still", "On Foot", "In Vehicle"},
		Algorithm:  "multiclass logistic regression via private SGD",
	})
	return srv, p
}

func fetch(t *testing.T, p *Portal) string {
	t.Helper()
	ts := httptest.NewServer(p)
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

func TestPortalRendersTaskDetails(t *testing.T) {
	_, p := testSetup(t)
	page := fetch(t, p)
	for _, want := range []string{
		"Activity recognition study",
		"Learn user activities",
		"accelerometer",
		"Still", "On Foot", "In Vehicle",
		"logistic regression",
		"never sends its samples",
		"Laplace noise",
		"No contributions received yet",
	} {
		if !strings.Contains(page, want) {
			t.Errorf("page missing %q", want)
		}
	}
}

// TestPortalMakesNoPrivacyClaim renders a task described the way
// crowdml-server describes one: name, algorithm and labels. Each device
// picks its own ε, so the server cannot know a privacy level, and the
// page must not state one — least of all that the task runs without
// differential privacy.
func TestPortalMakesNoPrivacyClaim(t *testing.T) {
	srv, err := core.NewServer(core.ServerConfig{
		Model:   model.NewLogisticRegression(2, 4),
		Updater: &optimizer.SGD{Schedule: optimizer.Constant{C: 0.1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	page := fetch(t, New(func() hub.Progress { return hub.ProgressOf(srv) }, TaskInfo{
		Name:      "activity",
		Algorithm: "logreg via privacy-preserving distributed SGD",
		Labels:    []string{"class 0", "class 1"},
	}))
	for _, claim := range []string{"ε⁻¹ = 0", "without differential privacy"} {
		if strings.Contains(page, claim) {
			t.Errorf("page claims %q:\n%s", claim, page)
		}
	}
	if m := regexp.MustCompile(`ε\s*=\s*[0-9.]`).FindString(page); m != "" {
		t.Errorf("page states a privacy level %q:\n%s", m, page)
	}
	if !strings.Contains(page, "sanitizes") || !strings.Contains(page, "on the device") {
		t.Errorf("page does not say that sanitization happens on the device:\n%s", page)
	}
}

func TestPortalShowsStatsAfterCheckins(t *testing.T) {
	srv, p := testSetup(t)
	ctx := context.Background()
	token, _ := srv.RegisterDevice(ctx, "d1")
	req := &core.CheckinRequest{
		Grad: make([]float64, 12), NumSamples: 10, ErrCount: 3,
		LabelCounts: []int{5, 3, 2},
	}
	if err := srv.Checkin(ctx, "d1", token, req); err != nil {
		t.Fatal(err)
	}
	page := fetch(t, p)
	if !strings.Contains(page, "0.300") {
		t.Errorf("page missing error estimate 0.300:\n%s", page)
	}
	if !strings.Contains(page, "Still") || !strings.Contains(page, "0.50") {
		t.Error("page missing label distribution")
	}
	if !strings.Contains(page, "█") {
		t.Error("page missing distribution bars")
	}
}

func TestPortalHistoryAccumulates(t *testing.T) {
	srv, p := testSetup(t)
	ctx := context.Background()
	token, _ := srv.RegisterDevice(ctx, "d1")
	for i := 0; i < 3; i++ {
		req := &core.CheckinRequest{
			Grad: make([]float64, 12), NumSamples: 10, ErrCount: 3 - i,
			LabelCounts: []int{5, 3, 2},
		}
		if err := srv.Checkin(ctx, "d1", token, req); err != nil {
			t.Fatal(err)
		}
		fetch(t, p)
	}
	history := func() []historyPoint {
		p.mu.Lock()
		defer p.mu.Unlock()
		return append([]historyPoint(nil), p.history...)
	}
	h := history()
	if len(h) != 3 {
		t.Fatalf("history has %d points, want 3", len(h))
	}
	if h[2].Error >= h[0].Error {
		t.Errorf("history not tracking improvement: %+v", h)
	}
	// Re-render without new checkins: no duplicate point.
	fetch(t, p)
	if len(history()) != 3 {
		t.Error("duplicate history point for unchanged iteration")
	}
}

func TestPortalRejectsNonGET(t *testing.T) {
	_, p := testSetup(t)
	ts := httptest.NewServer(p)
	defer ts.Close()
	resp, err := http.Post(ts.URL, "text/plain", strings.NewReader("x"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("status = %d, want 405", resp.StatusCode)
	}
}

func TestBarClamps(t *testing.T) {
	if got := bar(-0.5); !strings.Contains(got, "░") || strings.Contains(got, "█") {
		t.Errorf("bar(-0.5) = %q", got)
	}
	if got := bar(2); strings.Contains(got, "░") {
		t.Errorf("bar(2) = %q, want fully filled", got)
	}
}

func TestSparkline(t *testing.T) {
	if sparkline(nil) != "" {
		t.Error("empty history should give empty sparkline")
	}
	pts := []historyPoint{{1, 0.9}, {2, 0.5}, {3, 0.1}}
	s := sparkline(pts)
	runes := []rune(s)
	if len(runes) != 3 {
		t.Fatalf("sparkline length %d, want 3", len(runes))
	}
	if runes[0] <= runes[2] {
		t.Errorf("sparkline should descend with error: %q", s)
	}
	// Flat history: all same level, no panic.
	flat := sparkline([]historyPoint{{1, 0.5}, {2, 0.5}})
	if len([]rune(flat)) != 2 {
		t.Errorf("flat sparkline = %q", flat)
	}
}
