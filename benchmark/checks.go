package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"time"

	crowdml "github.com/crowdml/crowdml"
	"github.com/crowdml/crowdml/internal/core"
	"github.com/crowdml/crowdml/internal/hub"
	"github.com/crowdml/crowdml/internal/linalg"
	"github.com/crowdml/crowdml/internal/metrics"
	"github.com/crowdml/crowdml/internal/store"
	"github.com/crowdml/crowdml/internal/transport"
)

// checkRecord is the verdict of one output check. A failed check fails
// the run: a fast wrong server must not pass.
type checkRecord struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail"`
}

func verdict(name string, ok bool, format string, args ...any) checkRecord {
	return checkRecord{Name: name, OK: ok, Detail: fmt.Sprintf(format, args...)}
}

// check runs every output check of the workload on the quiescent rig.
// It ends by shutting the stack down (the durable checks reopen the
// state directory), so nothing may use the rig afterwards.
func (r *rig) check(ctx context.Context, cfg runConfig, res *workloadResult) []checkRecord {
	w, st := r.st.w, r.st
	acked := int(r.crowd.acked.Load())
	var out []checkRecord

	out = append(out, verdict("iteration_equals_acked", st.iteration() == acked,
		"server iteration %d, acked checkins %d", st.iteration(), acked))

	if st.group != nil {
		out = append(out, r.checkShardTotals(acked))
	}
	if st.follower != nil {
		out = append(out, r.checkFollower())
	}
	out = append(out, r.checkWireEquality(ctx))
	out = append(out, r.checkTestError(ctx, res))
	if w.durable && !w.follower {
		out = append(out, r.checkDurable(ctx, cfg, acked, res)...)
	}
	return out
}

// checkShardTotals: the merged view's totals are the sum of the
// members' — nothing lost or double-counted by the router.
func (r *rig) checkShardTotals(acked int) checkRecord {
	g := r.st.group
	g.Merge()
	var iters int
	var samples, errs int64
	for _, t := range g.Members() {
		iters += t.Server().Iteration()
		s, e, _ := t.Server().CrowdTotals()
		samples += s
		errs += e
	}
	ms := g.MergedStats()
	want := float64(errs) / float64(samples)
	ok := ms.Iteration == iters && iters == acked && ms.HasError && ms.ErrorEstimate == want
	return verdict("merged_equals_member_sum", ok,
		"merged iteration %d, Σ members %d, acked %d; merged error %v, Σerrors/Σsamples %v",
		ms.Iteration, iters, acked, ms.ErrorEstimate, want)
}

// dropSilent removes devices that never checked in: registrations are
// not journaled, so they exist on the leader only (internal/scenario
// compares the same way).
func dropSilent(s *core.ServerState) {
	for id, e := range s.Devices {
		if e.Checkins == 0 {
			delete(s.Devices, id)
		}
	}
}

// checkFollower waits for the replica to catch up and compares its
// learning state with the leader's, bit for bit.
func (r *rig) checkFollower() checkRecord {
	leader, follower := r.st.leaderTask.Server(), r.st.follower.Server()
	deadline := time.Now().Add(15 * time.Second)
	for follower.Iteration() != leader.Iteration() && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	ls, fs := leader.ExportState(), follower.ExportState()
	dropSilent(ls)
	dropSilent(fs)
	return verdict("follower_equals_leader", reflect.DeepEqual(ls, fs),
		"leader iteration %d, follower iteration %d", ls.Iteration, fs.Iteration)
}

// checkWireEquality: a JSON and a binary checkout of the same version
// carry the same bits.
func (r *rig) checkWireEquality(ctx context.Context) checkRecord {
	const name = "json_equals_binary_checkout"
	d := r.crowd.devs[0]
	base := transport.NewHTTPClient(r.st.readURL, nil).WithTask(taskID)
	// The state is quiescent; the retry only covers the sharded tier's
	// merger publishing between the two reads.
	for try := 0; try < 5; try++ {
		j, err := base.Checkout(ctx, d.id, d.token)
		if err != nil {
			return verdict(name, false, "json checkout: %v", err)
		}
		b, err := base.WithWire(transport.WireBinary).Checkout(ctx, d.id, d.token)
		if err != nil {
			return verdict(name, false, "binary checkout: %v", err)
		}
		if j.Version != b.Version {
			continue
		}
		same := len(j.Params) == len(b.Params)
		for i := 0; same && i < len(j.Params); i++ {
			same = math.Float64bits(j.Params[i]) == math.Float64bits(b.Params[i])
		}
		return verdict(name, same, "version %d, %d parameters", j.Version, len(j.Params))
	}
	return verdict(name, false, "no two checkouts of one version in 5 tries")
}

// checkTestError: the model the crowd trained must beat the frozen
// threshold on the generated test set.
func (r *rig) checkTestError(ctx context.Context, res *workloadResult) checkRecord {
	const name = "test_error_below_threshold"
	d := r.crowd.devs[0]
	co, err := transport.NewHTTPClient(r.st.readURL, nil).WithTask(taskID).Checkout(ctx, d.id, d.token)
	if err != nil {
		return verdict(name, false, "checkout: %v", err)
	}
	wm, err := linalg.NewMatrixFrom(r.st.w.classes, r.st.w.dim, co.Params)
	if err != nil {
		return verdict(name, false, "params: %v", err)
	}
	e := metrics.TestError(r.crowd.model, wm, r.crowd.test)
	res.Metrics.set("test_error", e, "share")
	return verdict(name, e < r.st.w.maxTestErr, "test error %.4f at version %d, threshold %.2f", e, co.Version, r.st.w.maxTestErr)
}

// journalTail reads the journal's tail through the store's public
// cursor — every entry after iteration `after` — and reports how many
// entries above `after` it holds, whether they are contiguous, and the
// last iteration.
func journalTail(ctx context.Context, st store.Store, after int) (n, last int, contiguous bool, err error) {
	cur, err := st.OpenCursor(ctx, after)
	if err != nil {
		return 0, 0, false, err
	}
	defer cur.Close()
	contiguous, last = true, after
	for {
		e, err := cur.Next()
		if errors.Is(err, io.EOF) {
			return n, last, contiguous, nil
		}
		if err != nil {
			return n, last, false, err
		}
		if e.Iteration <= after {
			continue // whole segments are streamed; these lead the tail
		}
		contiguous = contiguous && e.Iteration == last+1
		last = e.Iteration
		n++
	}
}

// dirBytes sums the regular files directly under dir, skipping names.
func dirBytes(dir string, skip ...string) (int64, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var total int64
	for _, e := range ents {
		if !e.Type().IsRegular() || slices.Contains(skip, e.Name()) {
			continue
		}
		fi, err := e.Info()
		if err != nil {
			return 0, err
		}
		total += fi.Size()
	}
	return total, nil
}

// restoreConfig is the TaskConfig a restart supplies: what a store
// cannot hold.
func restoreConfig(w *workload) hub.TaskConfig {
	return func(string) (core.ServerConfig, []hub.TaskOption, error) {
		return w.serverConfig("leader", seams{}), nil, nil
	}
}

// checkDurable: nothing acked is lost. Every acked checkin is in the
// journal exactly once, and a restart over the same directory lands on
// the pre-close state. It also times a restart over a prepared store.
func (r *rig) checkDurable(ctx context.Context, cfg runConfig, acked int, res *workloadResult) []checkRecord {
	st := r.st
	// Decoding the whole journal would take longer than the run, so the
	// count is the program's own append counter, and the cursor proves
	// the tail: contiguous entries ending exactly at the last ack.
	appends := int(res.Scrape["crowdml_journal_appends_total"])
	after := max(acked-2*st.w.checkpointAfterN, 0)
	n, last, contiguous, err := journalTail(ctx, st.leaderTask.Store(), after)
	ok := err == nil && appends == acked && contiguous && last == acked && n == acked-after
	out := []checkRecord{verdict("journal_entries_equal_acked", ok,
		"journal appends %d, acked %d; tail after %d: %d entries ending at %d, contiguous %v, err %v",
		appends, acked, after, n, last, contiguous, err)}
	bytes, err := dirBytes(filepath.Join(st.stateDir, taskID), "checkpoint.json", "LOCK")
	if err != nil {
		out = append(out, verdict("journal_bytes_counted", false, "%v", err))
	}
	res.Metrics.set("journal_bytes_per_checkin", float64(bytes)/float64(max(acked, 1)), "B")

	pre := st.leaderTask.Server().ExportState()
	if err := st.shutdown(); err != nil {
		return append(out, verdict("recovered_equals_preclose", false, "shutdown: %v", err))
	}
	root, err := store.NewFileRoot(st.stateDir)
	if err != nil {
		return append(out, verdict("recovered_equals_preclose", false, "open root: %v", err))
	}
	h, err := crowdml.OpenHub(ctx, root, restoreConfig(st.w))
	if err != nil {
		return append(out, verdict("recovered_equals_preclose", false, "OpenHub: %v", err))
	}
	t, ok := h.Task(taskID)
	same := ok && reflect.DeepEqual(pre, t.Server().ExportState())
	out = append(out, verdict("recovered_equals_preclose", same, "pre-close iteration %d, task restored %v", pre.Iteration, ok))
	if err := h.Close(ctx); err != nil {
		out = append(out, verdict("reopened_hub_closes", false, "%v", err))
	}

	secs, n, err := timeRecovery(ctx, st.w, r.crowd, cfg.tmpRoot(), 1)
	out = append(out, verdict("prepared_store_recovers", err == nil, "%d entries, err %v", n, err))
	res.Metrics.set("recovery_s", secs, "s")
	return out
}

// preparedEntries is the journal length of the prepared recovery store:
// two million journaled floats whatever the model shape (4,000 entries
// at 10×50), so one restart takes a fraction of a second.
func preparedEntries(w *workload) int {
	return max(2_000_000/(w.classes*w.dim), 200)
}

// timeRecovery prepares a store through the public store API — a
// checkpoint at iteration 0 and a journal of n replayable entries — and
// returns the median time of reps restarts (OpenHub) over it.
func timeRecovery(ctx context.Context, w *workload, cr *crowd, tmpRoot string, reps int) (secs float64, n int, err error) {
	if err := os.MkdirAll(tmpRoot, 0o755); err != nil {
		return 0, 0, err
	}
	dir, err := os.MkdirTemp(tmpRoot, "recover-")
	if err != nil {
		return 0, 0, err
	}
	defer os.RemoveAll(dir)
	fs, err := store.NewFileStore(filepath.Join(dir, taskID))
	if err != nil {
		return 0, 0, err
	}
	fresh, err := core.NewServer(w.serverConfig("leader", seams{}))
	if err != nil {
		return 0, 0, err
	}
	if err := fs.Save(ctx, fresh.ExportState(), time.Now()); err != nil {
		return 0, 0, err
	}
	j, err := fs.OpenJournal(ctx)
	if err != nil {
		return 0, 0, err
	}
	n = preparedEntries(w)
	reqs := cr.sampleCheckins(64)
	for i := 1; i <= n; i++ {
		req := reqs[i%len(reqs)]
		e := store.JournalEntry{
			AtUnixMillis: int64(i), DeviceID: cr.devs[i%len(cr.devs)].id, Iteration: i,
			NumSamples: req.NumSamples, ErrCount: req.ErrCount, GradNorm1: linalg.Norm1(req.Grad),
			Grad: req.Grad, LabelCounts: req.LabelCounts, Version: i - 1,
		}
		if err := j.Append(ctx, e); err != nil {
			_ = j.Close()
			return 0, n, err
		}
	}
	if err := j.Close(); err != nil {
		return 0, n, err
	}
	root, err := store.NewFileRoot(dir)
	if err != nil {
		return 0, n, err
	}
	var times []float64
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		h, err := crowdml.OpenHub(ctx, root, restoreConfig(w))
		took := time.Since(t0)
		if err != nil {
			return 0, n, err
		}
		t, ok := h.Task(taskID)
		if !ok || t.Server().Iteration() != n {
			_ = h.Close(ctx)
			return 0, n, fmt.Errorf("restart reached iteration %v, want %d", ok, n)
		}
		times = append(times, took.Seconds())
		// Close checkpoints at n; put the iteration-0 checkpoint back so
		// the next restart replays the whole journal again.
		if err := h.Close(ctx); err != nil {
			return 0, n, err
		}
		if err := fs.Save(ctx, fresh.ExportState(), time.Now()); err != nil {
			return 0, n, err
		}
	}
	return median(times), n, nil
}

// scrape reads the program's own counters from /v1/metrics on the
// leader (and the follower), summed over label sets: a series is keyed
// by its metric name. Histograms appear as name_sum / name_count.
func (r *rig) scrape(ctx context.Context) map[string]float64 {
	out := map[string]float64{}
	urls := map[string]string{"": r.st.leaderURL}
	if r.st.follower != nil {
		urls["follower:"] = r.st.readURL
	}
	for prefix, base := range urls {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+transport.PathMetrics, nil)
		if err != nil {
			continue
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			continue
		}
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
		for sc.Scan() {
			line := sc.Text()
			if line == "" || line[0] == '#' {
				continue
			}
			sp := strings.LastIndexByte(line, ' ')
			if sp < 0 {
				continue
			}
			v, err := strconv.ParseFloat(line[sp+1:], 64)
			if err != nil {
				continue
			}
			name := line[:sp]
			if i := strings.IndexByte(name, '{'); i >= 0 {
				if strings.Contains(name, "le=") {
					continue // histogram buckets: _sum and _count suffice
				}
				name = name[:i]
			}
			out[prefix+name] += v
		}
		resp.Body.Close()
	}
	return out
}
