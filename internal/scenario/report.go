package scenario

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
)

// CurvePoint is one convergence measurement: held-out test error after
// the given number of global samples — the x-axis of the paper's
// Figs. 4–9.
type CurvePoint struct {
	Samples   int     `json:"samples"`
	TestError float64 `json:"testError"`
}

// ChurnReport counts the churn schedule's effects.
type ChurnReport struct {
	// Joins is every successful registration, initial or rejoin.
	Joins int `json:"joins"`
	// Leaves is scheduled departures.
	Leaves int `json:"leaves"`
	// Rejoins is departed devices that re-registered (token rotation).
	Rejoins int `json:"rejoins"`
}

// WallClock is the timing section of a report. It is the ONLY part that
// may differ between two same-seed runs; CanonicalJSON zeroes it.
type WallClock struct {
	DurationSeconds float64 `json:"durationSeconds"`
	CheckinsPerSec  float64 `json:"checkinsPerSec"`
	RequestsPerSec  float64 `json:"requestsPerSec"`
}

// Report is the machine-readable outcome of one scenario run. Every
// field except WallClock is a deterministic function of the Spec (see
// docs/SCENARIOS.md for the determinism contract and a field-by-field
// reading guide).
type Report struct {
	Scenario string   `json:"scenario"`
	Topology Topology `json:"topology"`
	Seed     uint64   `json:"seed"`
	Devices  int      `json:"devices"`
	// Workers is always 1: the engine performs one request at a time.
	// It stays so reports keep their recorded shape.
	Workers int `json:"workers"`

	// GlobalSamples is the virtual-run length actually executed.
	GlobalSamples int `json:"globalSamples"`
	// LostSamples arrived at departed devices and were never collected.
	LostSamples int `json:"lostSamples"`

	// Checkins is client-observed accepted checkins; RejectedAuth counts
	// checkins/checkouts refused with stale credentials after a rejoin
	// rotated the token; RejectedOther is every other write failure.
	// Retries counts 409 leader-hint redirect hops devices followed.
	Checkins      int `json:"checkins"`
	RejectedAuth  int `json:"rejectedAuth"`
	RejectedOther int `json:"rejectedOther"`
	Retries       int `json:"retries"`

	Churn ChurnReport `json:"churn"`

	// ByzantineDevices/Checkins and StragglerDevices size the cohorts.
	ByzantineDevices  int `json:"byzantineDevices"`
	ByzantineCheckins int `json:"byzantineCheckins"`
	StragglerDevices  int `json:"stragglerDevices"`

	// ServerIteration and the Eq. (14) estimate come from the task's
	// statistics (the real /stats endpoint over HTTP) at the end of the run.
	ServerIteration int      `json:"serverIteration"`
	ErrorEstimate   *float64 `json:"errorEstimate,omitempty"`

	// Convergence: test error vs global samples, and its final value.
	Curve          []CurvePoint `json:"curve"`
	FinalTestError float64      `json:"finalTestError"`

	// FollowerConsistent is set by the follower topology: whether the
	// follower's replicated state matched the leader's bit for bit after
	// catch-up.
	FollowerConsistent *bool `json:"followerConsistent,omitempty"`

	// MetricsDeltas is the end-minus-start change of the deterministic
	// counter families scraped from the real /v1/metrics endpoint (in
	// process: from the same registry's exposition), keyed by the full
	// series name including labels.
	MetricsDeltas map[string]float64 `json:"metricsDeltas"`

	WallClock WallClock `json:"wallClock"`
}

// CanonicalJSON renders the report with WallClock zeroed — the byte
// representation two same-seed runs must agree on exactly.
func (r *Report) CanonicalJSON() ([]byte, error) {
	cp := *r
	cp.WallClock = WallClock{}
	return json.MarshalIndent(&cp, "", "  ")
}

// JSON renders the full report, wall-clock fields included.
func (r *Report) JSON() ([]byte, error) {
	return json.MarshalIndent(r, "", "  ")
}

// deterministicMetricFamilies is the allowlist of scraped counter
// families whose deltas are a pure function of the virtual schedule.
// Families driven by wall-clock machinery (HTTP request counts inflated by
// replicator feed polls, every *_seconds histogram) are deliberately
// excluded so same-seed reports stay byte-identical.
var deterministicMetricFamilies = []string{
	"crowdml_checkouts_total",
	"crowdml_checkins_applied_total",
	"crowdml_checkins_rejected_total",
}

// scrapeMetrics fetches baseURL's Prometheus exposition and returns the
// allowlisted series as name{labels} -> value.
func scrapeMetrics(baseURL string) (map[string]float64, error) {
	resp, err := http.Get(baseURL + "/v1/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("scenario: metrics scrape: status %d", resp.StatusCode)
	}
	return parseMetrics(resp.Body)
}

// parseMetrics reads the allowlisted series out of a text exposition.
func parseMetrics(r io.Reader) (map[string]float64, error) {
	out := make(map[string]float64)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp <= 0 {
			continue
		}
		series, valStr := line[:sp], line[sp+1:]
		if !allowlisted(series) {
			continue
		}
		v, err := strconv.ParseFloat(valStr, 64)
		if err != nil {
			continue
		}
		out[series] = v
	}
	return out, sc.Err()
}

// allowlisted reports whether a series belongs to a deterministic family.
func allowlisted(series string) bool {
	name := series
	if i := strings.IndexByte(series, '{'); i >= 0 {
		name = series[:i]
	}
	for _, fam := range deterministicMetricFamilies {
		if name == fam {
			return true
		}
	}
	return false
}

// metricsDelta subtracts the before scrape from the after scrape,
// dropping zero deltas so reports stay small.
func metricsDelta(before, after map[string]float64) map[string]float64 {
	out := make(map[string]float64)
	for k, v := range after {
		if d := v - before[k]; d != 0 {
			out[k] = d
		}
	}
	return out
}
