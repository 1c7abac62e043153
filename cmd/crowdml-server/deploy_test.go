package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	crowdml "github.com/crowdml/crowdml"
)

// TestDeploymentFig3 runs the paper's "real environment" (Fig. 3) on the
// shipped commands: seven crowdml-device processes, b = 1 and no noise,
// contribute 300 samples over HTTP to crowdml-server's built-in task on a
// state directory, once per device wire. The server runs in process, so
// the test can stop it and start it again on the same directory; the
// devices are the built binary, as an operator deploys them. Every check
// is a count or a tolerance, never a byte: the seven processes
// interleave as the scheduler pleases.
func TestDeploymentFig3(t *testing.T) {
	device := filepath.Join(t.TempDir(), "crowdml-device")
	if out, err := exec.Command("go", "build", "-o", device, "github.com/crowdml/crowdml/cmd/crowdml-device").CombinedOutput(); err != nil {
		t.Fatalf("go build crowdml-device: %v\n%s", err, out)
	}
	for _, c := range []struct{ wire, checkinForm string }{
		{"json", "json"},
		{"binary-delta", "bin"},
	} {
		t.Run(c.wire, func(t *testing.T) { deployFig3(t, device, c.wire, c.checkinForm) })
	}
}

func deployFig3(t *testing.T, device, wire, checkinForm string) {
	const task = `{task="default"}`
	stateDir := t.TempDir()
	base, stop := startServer(t, "-state-dir", stateDir, "-enroll-key", "join")

	// 43·6 + 42 = 300 samples, one checkin each.
	var wg sync.WaitGroup
	for i := 0; i < 7; i++ {
		samples := 43
		if i == 6 {
			samples = 42
		}
		cmd := exec.Command(device, "-server", base, "-id", fmt.Sprintf("phone-%d", i), "-enroll-key", "join",
			"-samples", strconv.Itoa(samples), "-minibatch", "1", "-eps-inv", "0",
			"-seed", strconv.Itoa(1000+i), "-wire", wire)
		wg.Add(1)
		go func() {
			defer wg.Done()
			if out, err := cmd.CombinedOutput(); err != nil {
				t.Errorf("%s: %v\n%s", cmd, err, out)
			}
		}()
	}
	wg.Wait()

	stats := taskStats(t, base)
	if stats.Iteration != 300 {
		t.Errorf("iteration %d after 300 samples at b = 1, want 300", stats.Iteration)
	}
	if stats.ErrorEstimate == nil {
		t.Fatal("/stats carries no errorEstimate")
	}
	// Chance is 2/3; 60 in-process seeds of the same crowd all end below 0.21.
	if *stats.ErrorEstimate > 0.25 {
		t.Errorf("errorEstimate %v, want ≤ 0.25", *stats.ErrorEstimate)
	}

	m := scrape(t, base)
	applied := m[`crowdml_checkins_applied_total`+task]
	if applied != 300 {
		t.Errorf("crowdml_checkins_applied_total = %v, want 300", applied)
	}
	// A batch applies, publishes and journals once for all its checkins;
	// every other stage runs once per checkin.
	batches := m[`crowdml_checkin_batch_size_count`+task]
	if sum := m[`crowdml_checkin_batch_size_sum`+task]; sum != applied {
		t.Errorf("checkin batches hold %v checkins, %v applied", sum, applied)
	}
	t.Logf("%s: error estimate %.3f after %v checkins in %v batches", wire, *stats.ErrorEstimate, applied, batches)
	for _, c := range []struct {
		stage string
		want  float64
	}{
		{"decode", applied}, {"queue_wait", applied}, {"ack", applied},
		{"apply", batches}, {"publish", batches}, {"journal", batches},
	} {
		name := fmt.Sprintf(`crowdml_checkin_stage_seconds_count{task="default",stage=%q}`, c.stage)
		if got := m[name]; got != c.want {
			t.Errorf("%s = %v, want %v", name, got, c.want)
		}
	}
	if got, total := m[fmt.Sprintf(`crowdml_checkin_body_bytes_count{task="default",form=%q}`, checkinForm)],
		sumFamily(m, `crowdml_checkin_body_bytes_count{`); got != 300 || total != 300 {
		t.Errorf("checkin bodies: %v of form %s, %v in all; want 300 and 300", got, checkinForm, total)
	}
	if forms, total := sumFamily(m, `crowdml_checkout_body_bytes_count{`), m[`crowdml_checkouts_total`+task]; forms != total || total == 0 {
		t.Errorf("checkout bodies by form add up to %v, crowdml_checkouts_total = %v", forms, total)
	}

	if err := stop(); err != nil {
		t.Fatalf("run after cancel = %v, want nil", err)
	}

	// The same directory, a new process life: the task resumes where it was.
	base, stop = startServer(t, "-state-dir", stateDir, "-enroll-key", "join")
	again := taskStats(t, base)
	if again.Iteration != stats.Iteration || again.ErrorEstimate == nil || *again.ErrorEstimate != *stats.ErrorEstimate {
		t.Errorf("restarted at iteration %d, error %v; stopped at %d, error %v",
			again.Iteration, again.ErrorEstimate, stats.Iteration, *stats.ErrorEstimate)
	}
	if err := stop(); err != nil {
		t.Fatalf("second run after cancel = %v, want nil", err)
	}
}

// lockedBuffer is a writer run can log to while the test reads it.
type lockedBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (l *lockedBuffer) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Write(p)
}

func (l *lockedBuffer) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.String()
}

var boundAddr = regexp.MustCompile(`hosting \d+ task\(s\) on (\S+) `)

// startServer runs the command in process on a free loopback port with
// args. It returns the base URL, read from the address the server
// prints, and stop, which cancels run's context and returns its result.
// The test's cleanup stops a server the test left running.
func startServer(t *testing.T, args ...string) (string, func() error) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	stderr := &lockedBuffer{}
	exited := make(chan struct{})
	var runErr error
	go func() {
		defer close(exited)
		runErr = run(ctx, append([]string{"-addr", "127.0.0.1:0"}, args...), io.Discard, stderr)
	}()
	stop := func() error {
		cancel()
		<-exited
		return runErr
	}
	t.Cleanup(func() { _ = stop() })
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); {
		if m := boundAddr.FindStringSubmatch(stderr.String()); m != nil {
			return "http://" + m[1], stop
		}
		select {
		case <-exited:
			t.Fatalf("run returned %v before serving:\n%s", runErr, stderr)
		case <-time.After(10 * time.Millisecond):
		}
	}
	t.Fatalf("no bound address printed in 10s:\n%s", stderr)
	return "", nil
}

func taskStats(t *testing.T, base string) *crowdml.StatsResponse {
	t.Helper()
	stats, err := crowdml.NewHTTPClient(base, nil).WithTask("default").Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return stats
}

// scrape reads base's /v1/metrics into sample name (labels included) →
// value.
func scrape(t *testing.T, base string) map[string]float64 {
	t.Helper()
	resp, err := http.Get(base + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	m := make(map[string]float64)
	for _, line := range strings.Split(string(body), "\n") {
		sp := strings.LastIndexByte(line, ' ')
		if line == "" || line[0] == '#' || sp < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			t.Fatalf("sample %q: %v", line, err)
		}
		m[line[:sp]] = v
	}
	return m
}

// sumFamily adds every sample whose name starts with prefix.
func sumFamily(m map[string]float64, prefix string) float64 {
	var sum float64
	for name, v := range m {
		if strings.HasPrefix(name, prefix) {
			sum += v
		}
	}
	return sum
}
