package scenario

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"

	"github.com/crowdml/crowdml/internal/core"
)

// wireTap is an http.RoundTripper that keeps a copy of every checkin
// request body and every 200 checkout response body passing through it.
type wireTap struct {
	base http.RoundTripper

	mu                  sync.Mutex
	checkins, checkouts [][]byte
	unsized             int // checkout responses without a Content-Length
}

func (w *wireTap) RoundTrip(req *http.Request) (*http.Response, error) {
	if strings.HasSuffix(req.URL.Path, "/checkin") {
		body, err := io.ReadAll(req.Body)
		req.Body.Close()
		if err != nil {
			return nil, err
		}
		w.mu.Lock()
		w.checkins = append(w.checkins, body)
		w.mu.Unlock()
		req = req.Clone(req.Context())
		req.Body = io.NopCloser(bytes.NewReader(body))
		return w.base.RoundTrip(req)
	}
	resp, err := w.base.RoundTrip(req)
	if err != nil || resp.StatusCode != http.StatusOK || !strings.HasSuffix(req.URL.Path, "/checkout") {
		return resp, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	resp.Body = io.NopCloser(bytes.NewReader(body))
	w.mu.Lock()
	w.checkouts = append(w.checkouts, body)
	if resp.ContentLength != int64(len(body)) {
		w.unsized++
	}
	w.mu.Unlock()
	return resp, nil
}

// checkWireIsEncodingJSON holds the recorded JSON traffic to the
// original protocol: every body re-encodes, through encoding/json and
// the core wire structs, to exactly the bytes that crossed the wire.
func (w *wireTap) checkWireIsEncodingJSON(t *testing.T) {
	t.Helper()
	if len(w.checkins) == 0 || len(w.checkouts) == 0 {
		t.Fatalf("recorded %d checkins and %d checkouts", len(w.checkins), len(w.checkouts))
	}
	if w.unsized != 0 {
		t.Errorf("%d of %d checkout responses came without a matching Content-Length", w.unsized, len(w.checkouts))
	}
	for i, body := range w.checkins {
		var req core.CheckinRequest
		if err := json.Unmarshal(body, &req); err != nil {
			t.Fatalf("checkin %d: %v", i, err)
		}
		if again, _ := json.Marshal(&req); !bytes.Equal(body, again) {
			t.Fatalf("checkin %d is not encoding/json's encoding:\n got %s\nwant %s", i, body, again)
		}
	}
	for i, body := range w.checkouts {
		var resp core.CheckoutResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			t.Fatalf("checkout %d: %v", i, err)
		}
		var again bytes.Buffer
		if err := json.NewEncoder(&again).Encode(&resp); err != nil || !bytes.Equal(body, again.Bytes()) {
			t.Fatalf("checkout %d is not encoding/json's encoding (%v):\n got %s\nwant %s", i, err, body, again.Bytes())
		}
	}
}

// writeReport drops a run's full JSON into SCENARIO_REPORT_DIR when set,
// so the CI smoke step can upload the reports as an artifact.
func writeReport(t *testing.T, rep *Report, name string) {
	t.Helper()
	dir := os.Getenv("SCENARIO_REPORT_DIR")
	if dir == "" {
		return
	}
	data, err := rep.JSON()
	if err != nil {
		t.Fatalf("render report: %v", err)
	}
	if err := os.WriteFile(filepath.Join(dir, name+".json"), append(data, '\n'), 0o644); err != nil {
		t.Fatalf("write report: %v", err)
	}
}

func mustRun(t *testing.T, spec Spec) *Report {
	t.Helper()
	rep, err := Run(context.Background(), spec)
	if err != nil {
		t.Fatalf("scenario %s: %v", spec.Name, err)
	}
	return rep
}

func mustBuiltin(t *testing.T, name string) Spec {
	t.Helper()
	spec, ok := Builtin(name)
	if !ok {
		t.Fatalf("missing builtin %q", name)
	}
	return spec
}

// checkAccounting verifies the sample conservation law: with Minibatch 1
// every global sample either lands as an accepted checkin, is rejected at
// checkout or checkin, or arrives at a departed device.
func checkAccounting(t *testing.T, rep *Report) {
	t.Helper()
	got := rep.Checkins + rep.RejectedAuth + rep.RejectedOther + rep.LostSamples
	if got != rep.GlobalSamples {
		t.Errorf("sample accounting: checkins %d + rejectedAuth %d + rejectedOther %d + lost %d = %d, want %d",
			rep.Checkins, rep.RejectedAuth, rep.RejectedOther, rep.LostSamples, got, rep.GlobalSamples)
	}
}

// TestScenarioSameSeedReportsIdentical is the determinism acceptance
// gate: two runs of the same spec must agree on every report
// byte outside the wall-clock section — schedule, convergence curve,
// churn effects, rejects AND the scraped server-side metric deltas. It
// doubles as the JSON wire's golden test over real traffic.
func TestScenarioSameSeedReportsIdentical(t *testing.T) {
	spec := mustBuiltin(t, "churn-straggler-2k")
	// The first run's device traffic is recorded on the way (the
	// scenario's clients use http.DefaultTransport): the JSON wire must
	// be byte for byte what encoding/json would have sent, and tapping it
	// must not change the report.
	tap := &wireTap{base: http.DefaultTransport}
	http.DefaultTransport = tap
	t.Cleanup(func() { http.DefaultTransport = tap.base }) // also when mustRun fails
	rep1 := mustRun(t, spec)
	http.DefaultTransport = tap.base
	tap.checkWireIsEncodingJSON(t)
	rep2 := mustRun(t, spec)
	writeReport(t, rep1, spec.Name)

	j1, err := rep1.CanonicalJSON()
	if err != nil {
		t.Fatal(err)
	}
	j2, err := rep2.CanonicalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(j1, j2) {
		t.Fatalf("same-seed reports differ:\n--- run 1 ---\n%s\n--- run 2 ---\n%s", j1, j2)
	}

	// The stressors must actually have fired, or determinism is vacuous.
	checkAccounting(t, rep1)
	if want := spec.Samples / spec.Churn.Every; rep1.Churn.Leaves != want {
		t.Errorf("Leaves = %d, want %d", rep1.Churn.Leaves, want)
	}
	if rep1.Churn.Rejoins != rep1.Churn.Leaves {
		t.Errorf("Rejoins = %d, want %d (every departure rejoins)", rep1.Churn.Rejoins, rep1.Churn.Leaves)
	}
	// Joins = initial crowd + probe + every rejoin.
	if want := spec.Devices + 1 + rep1.Churn.Rejoins; rep1.Churn.Joins != want {
		t.Errorf("Joins = %d, want %d", rep1.Churn.Joins, want)
	}
	if rep1.StragglerDevices == 0 || rep1.Checkins == 0 || len(rep1.Curve) == 0 {
		t.Errorf("degenerate report: stragglers %d, checkins %d, curve %d points",
			rep1.StragglerDevices, rep1.Checkins, len(rep1.Curve))
	}
	if len(rep1.MetricsDeltas) == 0 {
		t.Error("no metrics deltas scraped")
	}
	// A seed change must produce a different schedule.
	spec.Seed++
	rep3 := mustRun(t, spec)
	j3, err := rep3.CanonicalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(j1, j3) {
		t.Error("different seeds produced identical reports")
	}
}

// TestScenarioByzantineDegradesConvergence runs the byzantine builtin
// against its attack-free twin: the poisoned crowd's final error must be
// measurably worse, and the damage must be visible in the report.
func TestScenarioByzantineDegradesConvergence(t *testing.T) {
	spec := mustBuiltin(t, "byzantine-2k")
	poisoned := mustRun(t, spec)
	writeReport(t, poisoned, spec.Name)
	checkAccounting(t, poisoned)

	clean := spec
	clean.Name = "byzantine-2k-control"
	clean.Byzantine = ByzantineSpec{}
	honest := mustRun(t, clean)

	if poisoned.ByzantineDevices == 0 || poisoned.ByzantineCheckins == 0 {
		t.Fatalf("attack never fired: %d byzantine devices, %d poisoned checkins",
			poisoned.ByzantineDevices, poisoned.ByzantineCheckins)
	}
	const margin = 0.10
	if poisoned.FinalTestError < honest.FinalTestError+margin {
		t.Errorf("poisoning not visible: byzantine final error %v vs honest %v (want ≥ %v worse)",
			poisoned.FinalTestError, honest.FinalTestError, margin)
	}
	if honest.FinalTestError > 0.10 {
		t.Errorf("honest control failed to converge: final error %v", honest.FinalTestError)
	}
}

// TestScenarioFollowerHintRedirectAndConsistency drives the crowd at the
// follower: every registration must follow exactly one 409 leader hint,
// and at the end the follower's replicated learning state must match the
// leader's bit for bit.
func TestScenarioFollowerHintRedirectAndConsistency(t *testing.T) {
	spec := mustBuiltin(t, "follower-hint-1k")
	rep := mustRun(t, spec)
	writeReport(t, rep, spec.Name)
	checkAccounting(t, rep)

	// One redirect hop per registration: the crowd plus the eval probe.
	if want := spec.Devices + 1; rep.Retries != want {
		t.Errorf("Retries = %d, want %d (one leader-hint hop per registration)", rep.Retries, want)
	}
	if rep.FollowerConsistent == nil || !*rep.FollowerConsistent {
		t.Errorf("FollowerConsistent = %v, want true", rep.FollowerConsistent)
	}
	if rep.Checkins == 0 || rep.RejectedOther != 0 {
		t.Errorf("checkins %d, rejectedOther %d", rep.Checkins, rep.RejectedOther)
	}
	if rep.FinalTestError > 0.10 {
		t.Errorf("failed to converge through the redirected write path: final error %v", rep.FinalTestError)
	}
}

// TestScenarioWireEquivalence is the wire-protocol acceptance gate: the
// binary and binary-delta encodings are bit-exact for float64 payloads,
// so a same-seed run must produce a report byte-identical to the JSON
// control — same convergence curve, same schedule, same metric deltas.
// The stressors stay on so deltas are exercised across churn-driven
// re-registrations and straggler-stale checkouts, not just the happy
// path.
func TestScenarioWireEquivalence(t *testing.T) {
	spec := mustBuiltin(t, "churn-straggler-2k")
	spec.Devices = 400
	spec.Samples = 1500
	spec.TrainSize = 1500
	spec.TestSize = 300

	control := mustRun(t, spec)
	cj, err := control.CanonicalJSON()
	if err != nil {
		t.Fatal(err)
	}
	checkAccounting(t, control)
	if control.Checkins == 0 || len(control.Curve) == 0 {
		t.Fatalf("degenerate control: checkins %d, curve %d points", control.Checkins, len(control.Curve))
	}
	for _, wire := range []string{"binary", "binary-delta"} {
		run := spec
		run.Wire = wire
		rep := mustRun(t, run)
		j, err := rep.CanonicalJSON()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(cj, j) {
			t.Errorf("wire=%s report diverged from the JSON control:\n--- json ---\n%s\n--- %s ---\n%s",
				wire, cj, wire, j)
		}
	}
}

// TestScenarioValidate covers spec validation and defaulting edges.
func TestScenarioValidate(t *testing.T) {
	base := mustBuiltin(t, "churn-straggler-2k")
	cases := []struct {
		name   string
		mutate func(*Spec)
	}{
		{"unknown topology", func(s *Spec) { s.Topology = "ring" }},
		{"no devices", func(s *Spec) { s.Devices = 0 }},
		{"no samples", func(s *Spec) { s.Samples = 0 }},
		{"bad shape", func(s *Spec) { s.Classes = 1 }},
		{"bad updater", func(s *Spec) { s.Updater = "adam" }},
		{"bad straggler fraction", func(s *Spec) { s.Straggler.Fraction = 1.5 }},
		{"bad byzantine fraction", func(s *Spec) { s.Byzantine.Fraction = 1 }},
		{"bad byzantine strategy", func(s *Spec) { s.Byzantine = ByzantineSpec{Fraction: 0.1, Strategy: "nope"} }},
		{"no learning rate", func(s *Spec) { s.LearningRate = 0 }},
		{"negative gradient eps-inv", func(s *Spec) { s.Privacy.GradientEpsInv = -0.1 }},
		{"negative count eps-inv", func(s *Spec) { s.Privacy.CountEpsInv = -1 }},
		{"bad wire", func(s *Spec) { s.Wire = "protobuf" }},
		{"wire without sockets", func(s *Spec) { s.Topology, s.Wire = TopologyInProcess, "binary" }},
	}
	for _, tc := range cases {
		spec := base
		tc.mutate(&spec)
		if err := spec.withDefaults().Validate(); err == nil {
			t.Errorf("%s: Validate accepted invalid spec", tc.name)
		}
	}
	if err := base.withDefaults().Validate(); err != nil {
		t.Errorf("builtin spec invalid: %v", err)
	}
	for _, name := range BuiltinNames() {
		spec := mustBuiltin(t, name)
		if err := spec.withDefaults().Validate(); err != nil {
			t.Errorf("builtin %s invalid: %v", name, err)
		}
	}
}

// TestBuiltinGoldens holds the engine to the three HTTP built-ins' reports
// as the commit before the in-process refactor produced them
// (testdata/<builtin>.canonical.json, recorded there and committed
// untouched): byte for byte on amd64, where Go does not fuse
// multiply-adds; the integer accounting everywhere.
func TestBuiltinGoldens(t *testing.T) {
	for _, name := range []string{
		"churn-straggler-2k", "byzantine-2k", "follower-hint-1k",
	} {
		t.Run(name, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("testdata", name+".canonical.json"))
			if err != nil {
				t.Fatal(err)
			}
			got, err := mustRun(t, mustBuiltin(t, name)).CanonicalJSON()
			if err != nil {
				t.Fatal(err)
			}
			if runtime.GOARCH == "amd64" {
				if !bytes.Equal(append(got, '\n'), want) {
					t.Fatalf("report moved:\n--- got ---\n%s\n--- want ---\n%s", got, want)
				}
				return
			}
			var g, w Report
			if err := json.Unmarshal(got, &g); err != nil {
				t.Fatal(err)
			}
			if err := json.Unmarshal(want, &w); err != nil {
				t.Fatal(err)
			}
			for _, r := range []*Report{&g, &w} {
				r.Curve, r.FinalTestError, r.ErrorEstimate = nil, 0, nil
			}
			if !reflect.DeepEqual(g, w) {
				t.Fatalf("accounting moved:\n got %+v\nwant %+v", g, w)
			}
		})
	}
}

// TestInProcessEqualsHTTP is the proof that the in-process seam is the
// HTTP path minus sockets: the same crowd run as single and as inprocess
// produces the same report apart from the topology label and the scraped
// metric deltas.
func TestInProcessEqualsHTTP(t *testing.T) {
	for _, name := range []string{"churn-straggler-2k", "byzantine-2k"} {
		t.Run(name, func(t *testing.T) {
			spec := mustBuiltin(t, name)
			overHTTP := mustRun(t, spec)
			spec.Topology = TopologyInProcess
			inProc := mustRun(t, spec)
			inProc.Topology, inProc.MetricsDeltas = overHTTP.Topology, overHTTP.MetricsDeltas
			a, err := overHTTP.CanonicalJSON()
			if err != nil {
				t.Fatal(err)
			}
			b, err := inProc.CanonicalJSON()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(a, b) {
				t.Fatalf("in-process report diverged from HTTP:\n--- single ---\n%s\n--- inprocess ---\n%s", a, b)
			}
		})
	}
}

// TestScenarioCrowd100kInProcess is the paper's "crowd of smart devices"
// at a size the HTTP topologies cannot reach in CI: 100,000 devices with
// churn, stragglers and DP noise against the real server, no sockets.
func TestScenarioCrowd100kInProcess(t *testing.T) {
	spec := mustBuiltin(t, "crowd-100k-inprocess")
	rep := mustRun(t, spec)
	writeReport(t, rep, spec.Name)
	checkAccounting(t, rep)
	if rep.ServerIteration != rep.Checkins || rep.Checkins < spec.Samples*99/100 {
		t.Errorf("checkins %d, server iteration %d of %d samples", rep.Checkins, rep.ServerIteration, spec.Samples)
	}
	if rep.Churn.Rejoins == 0 || rep.RejectedAuth == 0 || rep.StragglerDevices != spec.Devices/5 {
		t.Errorf("stressors idle: rejoins %d, stale-token rejects %d, stragglers %d",
			rep.Churn.Rejoins, rep.RejectedAuth, rep.StragglerDevices)
	}
	if rep.FinalTestError > 0.10 {
		t.Errorf("the crowd failed to converge: final error %v", rep.FinalTestError)
	}
}
