package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func smokeConfig(t *testing.T) runConfig {
	t.Helper()
	return runConfig{seed: 1, seconds: 2, outDir: t.TempDir()}
}

// smokeWorkload is w at a fifth of its frozen rates and with a short
// replay: the smoke tests must pass on a slow machine and under the race
// detector.
func smokeWorkload(w workload) *workload {
	w.pacedRate *= 0.2
	w.writerRate *= 0.2
	w.replayCycles = 40
	return &w
}

func mustManifest(t *testing.T) *manifest {
	t.Helper()
	mf, err := loadManifest(manifestPath)
	if err != nil {
		t.Fatal(err)
	}
	return mf
}

// A 1-second-per-phase run of every workload emits every end-to-end
// metric of the manifest and every named metric the workload has, finite,
// with no failed request and every output check passing. (The test-error threshold is frozen for
// full-length runs; a 2-second crowd has not converged yet.)
func TestSmokeEndToEnd(t *testing.T) {
	mf := mustManifest(t)
	for i := range workloads {
		w := smokeWorkload(workloads[i])
		t.Run(w.name, func(t *testing.T) {
			res, err := runWorkload(context.Background(), w, smokeConfig(t))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := contractMetrics(res.Metrics, mf.EndToEnd); err != nil {
				t.Error(err)
			}
			for _, nm := range namedMetrics {
				v, ok := res.Metrics[nm.name]
				switch {
				case ok != nm.on(w):
					t.Errorf("%s emitted: %v, want %v", nm.name, ok, nm.on(w))
				case ok && (v.Unit != nm.unit || math.IsNaN(v.Value) || math.IsInf(v.Value, 0)):
					t.Errorf("%s = %v %s, want a finite number of %s", nm.name, v.Value, v.Unit, nm.unit)
				}
			}
			if got := res.Metrics["failed_share"].Value; got != 0 || res.Failed != 0 {
				t.Errorf("failed_share = %v (%d of %d requests failed)", got, res.Failed, res.Attempted)
			}
			for _, c := range res.Checks {
				if !c.OK && c.Name != "test_error_below_threshold" {
					t.Errorf("check %s failed: %s", c.Name, c.Detail)
				}
			}
		})
	}
}

// A shortened traced run of every workload emits every per-layer metric
// of the manifest, and each layer reports work only on the workloads
// that use it.
func TestSmokeTraced(t *testing.T) {
	mf := mustManifest(t)
	for i := range workloads {
		w := smokeWorkload(workloads[i])
		t.Run(w.name, func(t *testing.T) {
			cfg := smokeConfig(t)
			res, err := runTraced(context.Background(), w, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := contractMetrics(res.Metrics, mf.PerLayer); err != nil {
				t.Error(err)
			}
			for _, c := range res.Checks {
				if !c.OK {
					t.Errorf("check %s failed: %s", c.Name, c.Detail)
				}
			}
			used := func(metric string) bool { return res.Metrics[metric].Value != 0 }
			for metric, want := range map[string]bool{
				"store.append_us":             w.durable,
				"hub.checkin_file_us":         w.durable,
				"wirecodec.encode_checkin_us": w.wireBinary(),
				"shard.checkin_us":            w.shards > 0,
				"replica.apply_us":            w.follower,
				"optimizer.update_us":         true,
				"core.checkin_us":             true,
			} {
				if used(metric) != want {
					t.Errorf("%s = %v, want non-zero: %v", metric, res.Metrics[metric].Value, want)
				}
			}
			if _, err := os.Stat(filepath.Join(cfg.outDir, "trace_"+w.name+".json")); err != nil {
				t.Error(err)
			}
		})
	}
}

// replayOnce runs a short traced replay and returns the request hash
// and the count of foreground spans per name.
func replayOnce(t *testing.T, w *workload, seed uint64) (string, map[string]int) {
	t.Helper()
	ctx := context.Background()
	cfg := smokeConfig(t)
	cfg.seed = seed
	tr := newTracer()
	tc := &traceCtx{t: tr}
	r, _, err := setUp(ctx, w, cfg, tr.seams(w), tc)
	if err != nil {
		t.Fatal(err)
	}
	stream, _, err := r.replay(ctx, w.replayCycles, tc)
	if cerr := r.close(); err == nil {
		err = cerr
	}
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	for _, s := range tr.snapshot() {
		if s.Cycle >= 0 {
			counts[s.Role+"/"+s.Name]++
		}
	}
	return requestHash(stream), counts
}

// The same seed generates the same request stream and the same traced
// counts; another seed generates another stream.
func TestReplayIsDeterministic(t *testing.T) {
	for _, name := range []string{"crowd_json", "crowd_sharded4"} {
		full, _ := workloadByName(name)
		w := smokeWorkload(*full)
		h1, c1 := replayOnce(t, w, 7)
		h2, c2 := replayOnce(t, w, 7)
		h3, _ := replayOnce(t, w, 8)
		if h1 != h2 {
			t.Errorf("%s: same seed, different request hashes %s / %s", name, h1, h2)
		}
		if h1 == h3 {
			t.Errorf("%s: different seeds, same request hash %s", name, h1)
		}
		if len(c1) == 0 || len(c1) != len(c2) {
			t.Fatalf("%s: span names differ: %v / %v", name, c1, c2)
		}
		for k, n := range c1 {
			if c2[k] != n {
				t.Errorf("%s: span %s counted %d then %d", name, k, n, c2[k])
			}
		}
	}
}

// Self time is a span's duration minus the part its children cover:
// overlapping children count once, and a child is clipped to its parent.
func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Parent: 0, Name: "cycle", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "b", Start: 30, End: 60},   // overlaps a by 10
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 130},  // outlives the parent by 30
		{ID: 5, Parent: 2, Name: "a.a", Start: 15, End: 25}, // grandchild
		{ID: 6, Parent: 1, Name: "open", Start: 70, End: 0}, // never finished
	}
	want := []int64{100 - (30 + 20 + 10), 30 - 10, 30, 40, 10, 0}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of span %d (%s) = %d, want %d", spans[i].ID, spans[i].Name, got[i], want[i])
		}
	}
	st := findStat(summarise(spans), "cycle", "")
	if st.Count != 1 || st.MedianUs != 0.1 || st.SelfMedianUs != 0.04 {
		t.Errorf("summary of cycle = %+v", st)
	}
}

// quartiles must agree with Python's statistics.quantiles(xs, n=4),
// which the pipeline uses.
func TestQuartilesMatchPython(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	q1, q2, q3 = quartiles([]float64{1, 2, 4, 8, 16})
	if q1 != 1.5 || q2 != 4 || q3 != 12 {
		t.Errorf("quartiles(1,2,4,8,16) = %v %v %v, want 1.5 4 12", q1, q2, q3)
	}
}

func TestCompareVerdicts(t *testing.T) {
	lower := namedMetric{name: "lat", unit: "us", better: "lower", bound: 0.10}
	higher := namedMetric{name: "rate", unit: "1/s", better: "higher", bound: 0.10}
	share := namedMetric{name: "share", unit: "share", better: "higher", bound: 0.01, abs: true}
	noRise := namedMetric{name: "failed", unit: "share", better: "lower", bound: 0, abs: true}
	steady := func(c float64) []float64 { return []float64{c * 0.99, c, c * 1.01, c, c} }
	same := func(c float64) []float64 { return []float64{c, c, c, c, c} }
	for _, tc := range []struct {
		name string
		nm   namedMetric
		a, b []float64
		want string
	}{
		{"same", lower, steady(100), steady(100), "ok"},
		{"slower within bound", lower, steady(100), steady(108), "ok"},
		{"slower beyond bound", lower, steady(100), steady(120), "worse"},
		{"faster", lower, steady(100), steady(50), "ok"},
		{"rate dropped", higher, steady(100), steady(80), "worse"},
		{"rate rose", higher, steady(100), steady(150), "ok"},
		{"too noisy to tell", lower, []float64{60, 100, 140, 80, 120}, steady(120), "unresolved"},
		{"share fell by less than the absolute bound", share, same(1), same(0.995), "ok"},
		{"share fell by more", share, same(1), same(0.98), "worse"},
		{"share too noisy to tell", share, same(1), []float64{0.9, 0.95, 1, 1, 0.93}, "unresolved"},
		{"no failures on either side", noRise, same(0), same(0), "ok"},
		{"failures appeared", noRise, same(0), same(0.001), "worse"},
	} {
		if _, _, got := verdictOf(tc.nm, tc.a, tc.b); got != tc.want {
			t.Errorf("%s: verdict %q, want %q", tc.name, got, tc.want)
		}
	}
}

// -compare pools several result files per side, prints one row per
// workload × named metric with the change, its base and the verdict, and
// fails on a worse row whether or not BENCHMARK.json gates the metric.
func TestCompareFiles(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, scale map[string]float64) string {
		rec := runRecord{}
		for i := range workloads {
			w := &workloads[i]
			res := &workloadResult{Workload: w.name, Metrics: metricSet{}}
			for _, nm := range namedMetrics {
				if !nm.on(w) {
					continue
				}
				f, ok := scale[nm.name]
				if !ok {
					f = scale[""]
				}
				if nm.abs { // the two shares: all in time, none failed
					f = map[string]float64{"within_limit_share": 0.01, "failed_share": 0}[nm.name]
				}
				res.Metrics.set(nm.name, 100*f, nm.unit)
			}
			rec.Results = append(rec.Results, res)
		}
		path := filepath.Join(dir, name)
		if err := writeJSON(path, rec); err != nil {
			t.Fatal(err)
		}
		return path
	}
	a1, a2 := write("a1.json", map[string]float64{"": 1}), write("a2.json", map[string]float64{"": 1.0001})
	b := write("b.json", map[string]float64{"": 1.0002})
	var out bytes.Buffer
	if err := compareFiles(&out, []string{a1, a2}, []string{b}); err != nil {
		t.Fatalf("compare: %v\n%s", err, out.String())
	}
	rows := 0
	for i := range workloads {
		for _, nm := range namedMetrics {
			if nm.on(&workloads[i]) {
				rows++
			}
		}
	}
	if got := strings.Count(out.String(), " ok\n"); got != rows {
		t.Errorf("%d ok rows, want %d:\n%s", got, rows, out.String())
	}
	if !strings.Contains(out.String(), "base (a)") {
		t.Errorf("no base column:\n%s", out.String())
	}
	// ops_per_s is not in BENCHMARK.json's gated set; losing 40 % of it
	// fails the comparison all the same.
	slow := write("slow.json", map[string]float64{"": 1, "ops_per_s": 0.6})
	out.Reset()
	if err := compareFiles(&out, []string{a1, a2}, []string{slow}); err == nil {
		t.Errorf("a side with 40 %% less throughput compared as not worse:\n%s", out.String())
	}
}

func TestReadLags(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	acks := []ack{{at(10), 1}, {at(20), 2}, {at(90), 3}}
	obs := []observation{{at(5), 0}, {at(12), 0}, {at(18), 1}, {at(19), 2}, {at(30), 2}}
	// ack 1 at 10 ms: first checkout at or after it with version ≥ 1 is at 18.
	// ack 2 at 20 ms: version 2 was served at 19 already; the first
	// checkout after the ack is at 30. ack 3 is never observed.
	got := readLagsMs(acks, obs)
	if len(got) != 2 || got[0] != 8 || got[1] != 10 {
		t.Errorf("lags = %v, want [8 10]", got)
	}
}

// The manifest and the code name the same workloads and per-layer
// metrics, and the manifest keeps to the pipeline's contract.
func TestManifestMatchesCode(t *testing.T) {
	mf := mustManifest(t)
	if len(mf.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in the manifest, %d in code", len(mf.Workloads), len(workloads))
	}
	for i, wl := range mf.Workloads {
		if wl.Name != workloads[i].name {
			t.Errorf("workload %d: manifest %q, code %q", i, wl.Name, workloads[i].name)
		}
		if wl.Why == "" || len(wl.Why) > 200 || strings.Contains(wl.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", wl.Name)
		}
	}
	if len(mf.PerLayer) != len(layerUnits) || len(mf.PerLayer) > 128 {
		t.Errorf("%d per-layer metrics in the manifest, %d in code", len(mf.PerLayer), len(layerUnits))
	}
	for _, mm := range mf.PerLayer {
		if layerUnits[mm.Name] != mm.Unit {
			t.Errorf("per-layer %s: manifest unit %q, code %q", mm.Name, mm.Unit, layerUnits[mm.Name])
		}
	}
	hasSetup := false
	named := map[string]namedMetric{}
	for _, nm := range namedMetrics {
		named[nm.name] = nm
	}
	for _, mm := range mf.EndToEnd {
		if nm, ok := named[mm.Name]; !ok || nm.unit != mm.Unit || nm.better != mm.Better {
			t.Errorf("end-to-end %s (%s, %s) is not a named metric of the code", mm.Name, mm.Unit, mm.Better)
		}
		if mm.Bound <= 0 || mm.Bound > 0.25 {
			t.Errorf("end-to-end %s: bound %v outside (0, 0.25]", mm.Name, mm.Bound)
		}
		if mm.Better != "lower" && mm.Better != "higher" {
			t.Errorf("end-to-end %s: better %q", mm.Name, mm.Better)
		}
		hasSetup = hasSetup || (mm.Name == "setup_s" && mm.Unit == "s" && mm.Better == "lower")
	}
	if !hasSetup || len(mf.EndToEnd) > 16 {
		t.Errorf("end_to_end needs setup_s and at most 16 metrics, has %d", len(mf.EndToEnd))
	}
	if mf.RunSeconds < 1 || mf.RunSeconds > 60 {
		t.Errorf("run_seconds %d", mf.RunSeconds)
	}
}

// A single-workload run ends with the contract's JSON line.
func TestContractLine(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-workload", "crowd_json", "-seed", "3", "-seconds", "1", "-trace", "0", "-out", t.TempDir()}, &out)
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var line struct {
		Correct   *bool                  `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    *int                   `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}
	if jerr := json.Unmarshal([]byte(lines[len(lines)-1]), &line); jerr != nil {
		t.Fatalf("last line is not JSON (%v): %q (run error: %v)", jerr, lines[len(lines)-1], err)
	}
	mf := mustManifest(t)
	if line.Correct == nil || line.Failed == nil || line.Attempted < 1 || len(line.Metrics) != len(mf.EndToEnd) {
		t.Errorf("contract line incomplete: %s", lines[len(lines)-1])
	}
	for name, v := range line.Metrics {
		if math.IsNaN(v.Value) || v.Value == 0 {
			t.Errorf("metric %s = %v", name, v.Value)
		}
	}
}
