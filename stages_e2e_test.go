// Where a checkin spends its time, how stale it was, and which echoed
// versions a server takes, read back from the running system: a task with
// a metrics registry behind the real HTTP handler, its /v1/metrics scraped
// and checked against the journal and the exported state.
package crowdml_test

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	crowdml "github.com/crowdml/crowdml"
	"github.com/crowdml/crowdml/internal/invariants"
	"github.com/crowdml/crowdml/internal/linalg"
)

// parseSamples reads a text exposition into series → value.
func parseSamples(t *testing.T, body string) map[string]float64 {
	t.Helper()
	out := make(map[string]float64)
	for _, line := range strings.Split(body, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			t.Fatalf("sample %q: %v", line, err)
		}
		out[line[:sp]] = v
	}
	return out
}

// registrySamples renders reg's exposition without a server.
func registrySamples(t *testing.T, reg *crowdml.MetricsRegistry) map[string]float64 {
	t.Helper()
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	return parseSamples(t, b.String())
}

// stage names one stage series of a task's checkin or checkout family.
func stage(family, task, name, suffix string) string {
	return fmt.Sprintf(`crowdml_%s_stage_seconds_%s{task=%q,stage=%q}`, family, suffix, task, name)
}

// sleepyUpdater takes d inside every Update, under the apply lock.
type sleepyUpdater struct {
	crowdml.Updater
	d time.Duration
}

func (u sleepyUpdater) Update(w, g *linalg.Matrix, t int) {
	time.Sleep(u.d)
	u.Updater.Update(w, g, t)
}

// slowSyncStore is a memory store whose journal Sync takes d.
type slowSyncStore struct {
	*crowdml.FileStore
	d time.Duration
}

type slowSyncJournal struct {
	crowdml.Journal
	d time.Duration
}

func (s *slowSyncStore) OpenJournal(ctx context.Context) (crowdml.Journal, error) {
	j, err := s.FileStore.OpenJournal(ctx)
	return &slowSyncJournal{Journal: j, d: s.d}, err
}

func (j *slowSyncJournal) Sync(ctx context.Context) error {
	time.Sleep(j.d)
	return j.Journal.Sync(ctx)
}

// checkinSequentially registers deviceID and checks in n times, one
// checkout → checkin round at a time, in process.
func checkinSequentially(t *testing.T, srv *crowdml.Server, deviceID string, n int) {
	t.Helper()
	ctx := context.Background()
	token, err := srv.RegisterDevice(ctx, deviceID)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		co, err := srv.Checkout(ctx, deviceID, token)
		if err != nil {
			t.Fatal(err)
		}
		req := &crowdml.CheckinRequest{Grad: make([]float64, repClasses*repDim), NumSamples: 1,
			LabelCounts: []int{1, 0, 0}, Version: co.Version}
		if err := srv.Checkin(ctx, deviceID, token, req); err != nil {
			t.Fatal(err)
		}
	}
}

// TestCheckinStageAttribution: time spent in a layer lands in that
// layer's stage and in no other, and every stage counts what it claims
// to count — per applied checkin, per applying batch, per checkout.
func TestCheckinStageAttribution(t *testing.T) {
	ctx := context.Background()
	const n = 4

	t.Run("apply", func(t *testing.T) {
		const nap = 5 * time.Millisecond
		reg := crowdml.NewMetricsRegistry()
		cfg := repServerConfig()
		cfg.Updater = sleepyUpdater{Updater: cfg.Updater, d: nap}
		task, err := crowdml.NewHub().CreateTask(ctx, "t", cfg, crowdml.WithMetrics(reg))
		if err != nil {
			t.Fatal(err)
		}
		checkinSequentially(t, task.Server(), "d", n)
		m := registrySamples(t, reg)
		apply, publish, wait := m[stage("checkin", "t", "apply", "sum")], m[stage("checkin", "t", "publish", "sum")], m[stage("checkin", "t", "queue_wait", "sum")]
		if floor := (n * nap).Seconds(); apply < floor {
			t.Errorf("apply stage holds %.4fs of %d Updater naps of %v (≥ %.4fs)", apply, n, nap, floor)
		}
		if publish > apply/2 || wait > apply/2 {
			t.Errorf("the Updater's time leaked: publish %.4fs, queue_wait %.4fs, apply %.4fs", publish, wait, apply)
		}
	})

	t.Run("fsync", func(t *testing.T) {
		const nap = 10 * time.Millisecond
		reg := crowdml.NewMetricsRegistry()
		h := crowdml.NewHub()
		task, err := h.CreateTask(ctx, "t", repServerConfig(),
			crowdml.WithStore(&slowSyncStore{FileStore: crowdml.NewMemStore(), d: nap}),
			crowdml.WithSyncPolicy(crowdml.SyncBatch),
			crowdml.WithCheckpointPolicy(crowdml.CheckpointPolicy{Every: time.Hour}),
			crowdml.WithMetrics(reg))
		if err != nil {
			t.Fatal(err)
		}
		defer h.Close(ctx)
		checkinSequentially(t, task.Server(), "d", n)
		m := registrySamples(t, reg)
		fsync, journal, ack := m[stage("checkin", "t", "fsync", "sum")], m[stage("checkin", "t", "journal", "sum")], m[stage("checkin", "t", "ack", "sum")]
		if floor := (n * nap).Seconds(); fsync < floor {
			t.Errorf("fsync stage holds %.4fs of %d Sync naps of %v (≥ %.4fs)", fsync, n, nap, floor)
		}
		if journal > fsync/2 || ack > fsync/2 {
			t.Errorf("the Sync's time leaked: journal %.4fs, ack %.4fs, fsync %.4fs", journal, ack, fsync)
		}
		for _, s := range []string{"journal", "fsync"} {
			if got := m[stage("checkin", "t", s, "count")]; got != n {
				t.Errorf("%s observed %v times for %d one-checkin batches", s, got, n)
			}
		}
	})

	t.Run("counts", func(t *testing.T) {
		reg := crowdml.NewMetricsRegistry()
		h := crowdml.NewHub()
		if _, err := h.CreateTask(ctx, "t", repServerConfig(), crowdml.WithMetrics(reg)); err != nil {
			t.Fatal(err)
		}
		srv := httptest.NewServer(crowdml.NewHTTPHandler(h, "join", reg))
		defer srv.Close()
		var wg sync.WaitGroup
		for i := 0; i < 6; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				client := crowdml.NewHTTPClient(srv.URL, nil).WithTask("t")
				if i%2 == 1 {
					client = client.WithWire(crowdml.WireBinaryDelta)
				}
				id := fmt.Sprintf("d%d", i)
				token, err := client.Register(ctx, id, "join")
				if err != nil {
					t.Error(err)
					return
				}
				for r := 0; r < 15; r++ {
					co, err := client.Checkout(ctx, id, token)
					if err == nil {
						err = client.Checkin(ctx, id, token, &crowdml.CheckinRequest{
							Grad: make([]float64, repClasses*repDim), NumSamples: 1,
							LabelCounts: []int{1, 0, 0}, Version: co.Version})
					}
					if err != nil {
						t.Errorf("%s round %d: %v", id, r, err)
						return
					}
				}
			}(i)
		}
		wg.Wait()
		m := parseSamples(t, scrapeMetrics(t, srv.URL))
		identities := []struct {
			total  string
			family string
			stages []string
		}{
			{`crowdml_checkins_applied_total{task="t"}`, "checkin", []string{"decode", "queue_wait", "ack"}},
			{`crowdml_checkin_batch_size_count{task="t"}`, "checkin", []string{"apply", "publish"}},
			{`crowdml_checkouts_total{task="t"}`, "checkout", []string{"auth", "view", "encode"}},
		}
		for _, id := range identities {
			want := m[id.total]
			if want == 0 {
				t.Fatalf("%s is 0 after the crowd ran", id.total)
			}
			for _, s := range id.stages {
				if got := m[stage(id.family, "t", s, "count")]; got != want {
					t.Errorf("%s stage %s observed %v times, %s = %v", id.family, s, got, id.total, want)
				}
			}
		}
		if got := m[`crowdml_checkins_applied_total{task="t"}`]; got != 6*15 {
			t.Errorf("%v checkins applied, want %d", got, 6*15)
		}
	})
}

// TestCheckinVersionBounds: an echoed Version below 0 is a bad request,
// in process and over HTTP, and changes nothing; one past the server's
// newest iteration is applied with staleness 0, journaled as that newest
// iteration, and restores bit for bit.
func TestCheckinVersionBounds(t *testing.T) {
	ctx := context.Background()
	st := crowdml.NewMemStore()
	h := crowdml.NewHub()
	task, err := h.CreateTask(ctx, "t", repServerConfig(), crowdml.WithStore(st),
		crowdml.WithCheckpointPolicy(crowdml.CheckpointPolicy{Every: time.Hour}))
	if err != nil {
		t.Fatal(err)
	}
	srv := task.Server()
	hsrv := httptest.NewServer(crowdml.NewHTTPHandler(h, "", nil))
	defer hsrv.Close()
	token, err := srv.RegisterDevice(ctx, "d")
	if err != nil {
		t.Fatal(err)
	}
	req := func(version int) *crowdml.CheckinRequest {
		return &crowdml.CheckinRequest{Grad: make([]float64, repClasses*repDim), NumSamples: 1,
			LabelCounts: []int{0, 1, 0}, Version: version}
	}

	if err := srv.Checkin(ctx, "d", token, req(-1)); !errors.Is(err, crowdml.ErrBadCheckin) {
		t.Errorf("in-process Version -1: %v, want ErrBadCheckin", err)
	}
	for _, wire := range []crowdml.WireFormat{crowdml.WireJSON, crowdml.WireBinary} {
		client := crowdml.NewHTTPClient(hsrv.URL, nil).WithTask("t").WithWire(wire)
		if err := client.Checkin(ctx, "d", token, req(-1)); !errors.Is(err, crowdml.ErrBadCheckin) {
			t.Errorf("%v Version -1: %v, want a 400 (ErrBadCheckin)", wire, err)
		}
	}
	if it := srv.Iteration(); it != 0 {
		t.Fatalf("refused checkins moved the iteration to %d", it)
	}

	checkinSequentially(t, srv, "honest", 2)
	ahead := req(1 << 40)
	if err := srv.Checkin(ctx, "d", token, ahead); err != nil {
		t.Fatalf("Version 1<<40: %v", err)
	}
	want := srv.ExportStateInto(nil)
	if want.Iteration != 3 {
		t.Fatalf("iteration %d after three applied checkins", want.Iteration)
	}
	if ahead.Version != 2 {
		t.Errorf("request's Version clamped to %d, want 2", ahead.Version)
	}
	if d, _ := deviceStats(want, "d"); d.StalenessSum != 0 {
		t.Errorf("StalenessSum after a version from the future = %d, want 0", d.StalenessSum)
	}
	entries := drainJournal(t, st)
	if e := entries[len(entries)-1]; e.Iteration != 3 || e.Version != 2 {
		t.Errorf("journal entry %d carries Version %d, want iteration 3 with Version 2", e.Iteration, e.Version)
	}

	// A crash: drop the hub, restore from the journal alone.
	restored, err := crowdml.NewHub().CreateTask(ctx, "t", repServerConfig(), crowdml.WithStore(st))
	if err != nil {
		t.Fatal(err)
	}
	if err := invariants.Same(want, restored.Server().ExportStateInto(nil)); err != nil {
		t.Errorf("restored state differs: %v", err)
	}
}

// TestCheckinStalenessRecount: the server's τ histogram is the journal's
// own staleness, bucket for bucket; its sum is Σ DeviceStats.StalenessSum
// and its count the iteration. A restored task replays history without
// re-counting it.
func TestCheckinStalenessRecount(t *testing.T) {
	ctx := context.Background()
	st := crowdml.NewMemStore()
	reg := crowdml.NewMetricsRegistry()
	h := crowdml.NewHub()
	task, err := h.CreateTask(ctx, "t", repServerConfig(), crowdml.WithStore(st),
		crowdml.WithCheckpointPolicy(crowdml.CheckpointPolicy{Every: time.Hour}),
		crowdml.WithMetrics(reg))
	if err != nil {
		t.Fatal(err)
	}
	hsrv := httptest.NewServer(crowdml.NewHTTPHandler(h, "", reg))
	defer hsrv.Close()
	srv := task.Server()

	// Rounds of k devices that all check out, then all check in: the j-th
	// checkin of a round is j iterations stale. The laggard checks out
	// once and checks in last, dozens of iterations behind.
	const devices = 6
	tokens := make([]string, devices)
	for i := range tokens {
		if tokens[i], err = srv.RegisterDevice(ctx, fmt.Sprintf("d%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	checkin := func(i, version int) {
		t.Helper()
		req := &crowdml.CheckinRequest{Grad: make([]float64, repClasses*repDim), NumSamples: 1,
			LabelCounts: []int{0, 0, 1}, Version: version}
		if err := srv.Checkin(ctx, fmt.Sprintf("d%d", i), tokens[i], req); err != nil {
			t.Fatal(err)
		}
	}
	laggard, err := srv.Checkout(ctx, "d0", tokens[0])
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 12; round++ {
		k := 1 + round%(devices-1)
		versions := make([]int, k)
		for j := range versions {
			co, err := srv.Checkout(ctx, fmt.Sprintf("d%d", j+1), tokens[j+1])
			if err != nil {
				t.Fatal(err)
			}
			versions[j] = co.Version
		}
		for j, v := range versions {
			checkin(j+1, v)
		}
	}
	checkin(0, laggard.Version)

	m := parseSamples(t, scrapeMetrics(t, hsrv.URL))
	series := func(suffix, le string) string {
		if le == "" {
			return fmt.Sprintf(`crowdml_checkin_staleness_iterations_%s{task="t"}`, suffix)
		}
		return fmt.Sprintf(`crowdml_checkin_staleness_iterations_bucket{task="t",le=%q}`, le)
	}
	bounds := []float64{0, 1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, math.Inf(1)}
	recount := make([]float64, len(bounds))
	entries := drainJournal(t, st)
	for _, e := range entries {
		for b, le := range bounds {
			if float64(e.Iteration-1-e.Version) <= le {
				recount[b]++
			}
		}
	}
	for b, le := range bounds {
		name := series("", strconv.FormatFloat(le, 'g', -1, 64))
		if math.IsInf(le, 1) {
			name = series("", "+Inf")
		}
		if got, ok := m[name]; !ok || got != recount[b] {
			t.Errorf("%s = %v (present %v), journal recount %v", name, got, ok, recount[b])
		}
	}
	if recount[0] == recount[len(recount)-1] {
		t.Fatal("every checkin was fresh: the crowd did not interleave")
	}
	state := srv.ExportStateInto(nil)
	var sum int
	for _, d := range state.DeviceRows {
		sum += d.StalenessSum
	}
	if got := m[series("sum", "")]; got != float64(sum) {
		t.Errorf("staleness _sum = %v, Σ DeviceStats.StalenessSum = %d", got, sum)
	}
	if got := m[series("count", "")]; got != float64(state.Iteration) || len(entries) != state.Iteration {
		t.Errorf("staleness _count = %v, %d journal entries, iteration %d", got, len(entries), state.Iteration)
	}

	// A crash, then a restore into a fresh registry: the replayed history
	// is state, not traffic.
	reg2 := crowdml.NewMetricsRegistry()
	restored, err := crowdml.NewHub().CreateTask(ctx, "t", repServerConfig(), crowdml.WithStore(st),
		crowdml.WithMetrics(reg2))
	if err != nil {
		t.Fatal(err)
	}
	if it := restored.Server().Iteration(); it != state.Iteration {
		t.Fatalf("restored at iteration %d, want %d", it, state.Iteration)
	}
	if got, ok := registrySamples(t, reg2)[series("count", "")]; !ok || got != 0 {
		t.Errorf("restored task's staleness _count = %v (present %v), want 0", got, ok)
	}
}
