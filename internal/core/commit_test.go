package core

import (
	"errors"
	"slices"
	"sync"
	"testing"

	"github.com/crowdml/crowdml/internal/linalg"
	"github.com/crowdml/crowdml/internal/telemetry"
)

// commitLog is an OnCommit sink that keeps a copy of every call: the
// records slice is the server's and is reused once OnCommit returns.
type commitLog struct {
	mu    sync.Mutex
	calls [][]ReplayRecord
}

func (l *commitLog) onCommit(records []ReplayRecord) {
	l.mu.Lock()
	l.calls = append(l.calls, append([]ReplayRecord(nil), records...))
	l.mu.Unlock()
}

func (l *commitLog) snapshot() [][]ReplayRecord {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([][]ReplayRecord(nil), l.calls...)
}

// pendingFor builds a validated checkin for s the way Checkin does, with
// a waiter's done channel, so a test can hand applyBatch a batch of its
// own making.
func pendingFor(t *testing.T, s *Server, deviceID string) *pendingCheckin {
	t.Helper()
	classes, dim := s.ModelShape()
	req := &CheckinRequest{Grad: make([]float64, classes*dim), NumSamples: 1, LabelCounts: make([]int, classes)}
	return &pendingCheckin{deviceID: deviceID, req: req, done: make(chan error, 1)}
}

// applyAsLeader applies batch the way a batch leader does — in the
// server's own batch slice, which the apply clears — and returns whatever
// the apply panicked with.
func applyAsLeader(s *Server, batch ...*pendingCheckin) (panicked any) {
	defer func() { panicked = recover() }()
	s.applyBatch(append(s.batch[:0], batch...))
	return nil
}

// answers collects what each waiter in batch was told.
func answers(batch ...*pendingCheckin) []error {
	out := make([]error, len(batch))
	for i, p := range batch {
		out[i] = <-p.done
	}
	return out
}

// panicAtUpdater panics on its nth Update call and leaves w alone
// otherwise. Only the batch leader calls it, so it needs no locking.
type panicAtUpdater struct{ n, calls int }

func (u *panicAtUpdater) Update(w, g *linalg.Matrix, t int) {
	u.calls++
	if u.calls == u.n {
		panic("updater exploded")
	}
}

func (u *panicAtUpdater) Name() string { return "panic-at" }

// TestOnBatchCommitOrdering: uncontended checkins are one-item batches,
// so each gets exactly one OnCommit call, of one record, and that call
// has happened by the time its Checkin returns.
func TestOnBatchCommitOrdering(t *testing.T) {
	var log commitLog
	s := newTestServer(t, ServerConfig{OnCommit: log.onCommit})
	token := register(t, s, "d1")
	for i := 0; i < 4; i++ {
		if err := s.Checkin(ctx, "d1", token, validCheckin(i)); err != nil {
			t.Fatal(err)
		}
		calls := log.snapshot()
		if len(calls) != i+1 {
			t.Fatalf("%d OnCommit calls once checkin %d returned, want %d", len(calls), i+1, i+1)
		}
		if n := len(calls[i]); n != 1 {
			t.Fatalf("call %d carries %d records for a one-item batch", i+1, n)
		}
	}
}

// TestOnCheckinObserver: each OnCommit record tells an observer which
// device checked in, the iteration its update produced and the caller's
// own request.
func TestOnCheckinObserver(t *testing.T) {
	var log commitLog
	s := newTestServer(t, ServerConfig{OnCommit: log.onCommit})
	token := register(t, s, "d1")
	var want []ReplayRecord
	for i := 0; i < 3; i++ {
		req := validCheckin(i)
		if err := s.Checkin(ctx, "d1", token, req); err != nil {
			t.Fatal(err)
		}
		want = append(want, ReplayRecord{DeviceID: "d1", Iteration: i + 1, Req: req})
	}
	var got []ReplayRecord
	for _, call := range log.snapshot() {
		got = append(got, call...)
	}
	if !slices.Equal(got, want) {
		t.Errorf("OnCommit records = %+v, want %+v", got, want)
	}
}

// contendedCommits is what OnCommit saw of one contended run.
type contendedCommits struct {
	calls   [][]ReplayRecord // every OnCommit call, in call order
	batches uint64           // applying batches, by the batch-size histogram
	total   int              // checkins made, every one of them acked
	server  *Server
}

// runContendedCommits has workers devices check in perWorker times each
// through an applier that takes at most maxBatch items per batch. It
// fails t for any Checkin that errs or that returns before OnCommit has
// carried its own request.
func runContendedCommits(t *testing.T, workers, perWorker, maxBatch int) contendedCommits {
	t.Helper()
	var (
		mu        sync.Mutex
		calls     [][]ReplayRecord
		committed = make(map[*CheckinRequest]bool)
	)
	m := NewServerMetrics(telemetry.NewRegistry(), "t")
	s := newTestServer(t, ServerConfig{
		Metrics: m,
		OnCommit: func(records []ReplayRecord) {
			mu.Lock()
			defer mu.Unlock()
			calls = append(calls, append([]ReplayRecord(nil), records...))
			for _, r := range records {
				committed[r.Req] = true
			}
		},
	})
	shrinkApplier(s, maxBatch, checkinQueueDepth)
	tokens := make([]string, workers)
	for i := range tokens {
		tokens[i] = register(t, s, deviceID(i))
	}
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for n := 0; n < perWorker; n++ {
				req := validCheckin(0)
				if err := s.Checkin(ctx, deviceID(i), tokens[i], req); err != nil {
					t.Errorf("device %d checkin %d: %v", i, n, err)
					return
				}
				mu.Lock()
				ok := committed[req]
				mu.Unlock()
				if !ok {
					t.Errorf("device %d checkin %d returned before its record was committed", i, n)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	mu.Lock()
	defer mu.Unlock()
	return contendedCommits{calls: calls, batches: m.batchSize.Count(), total: workers * perWorker, server: s}
}

// TestOnBatchCommitCoversConcurrentBatch: under contention one OnCommit
// call covers a whole batch — exactly one call per applying batch, none
// empty or larger than the batch bound — and the calls together carry
// every acked checkin once.
func TestOnBatchCommitCoversConcurrentBatch(t *testing.T) {
	const maxBatch = 4
	run := runContendedCommits(t, 6, 50, maxBatch)
	if uint64(len(run.calls)) != run.batches {
		t.Errorf("%d OnCommit calls for %d applying batches", len(run.calls), run.batches)
	}
	records := 0
	for i, call := range run.calls {
		if len(call) == 0 || len(call) > maxBatch {
			t.Errorf("call %d carries %d records, want 1..%d", i+1, len(call), maxBatch)
		}
		records += len(call)
	}
	if records != run.total {
		t.Errorf("OnCommit carried %d records for %d acked checkins", records, run.total)
	}
}

// TestOnCheckinOrdering: under contention the records of all OnCommit
// calls, in call order, run 1, 2, 3, … without gap or repeat, and end at
// the server's iteration.
func TestOnCheckinOrdering(t *testing.T) {
	run := runContendedCommits(t, 6, 50, 4)
	next := 1 // the iteration the next record must carry
	for _, call := range run.calls {
		for _, r := range call {
			if r.Iteration != next {
				t.Fatalf("record for iteration %d where %d was due", r.Iteration, next)
			}
			next++
		}
	}
	if next-1 != run.total || run.server.Iteration() != run.total {
		t.Errorf("records end at iteration %d, server at %d, want %d", next-1, run.server.Iteration(), run.total)
	}
}

// TestOnCommitSkipsRejected: only applied checkins reach OnCommit. A
// malformed checkin is refused before the applier; inside a batch, an
// abandoned item and one the stopping rule rejects are absent; and when
// the Updater panics mid-batch, the applied prefix is still committed
// before any waiter hears back, while the aborted rest is not.
func TestOnCommitSkipsRejected(t *testing.T) {
	var log commitLog
	s := newTestServer(t, ServerConfig{Tmax: 2, OnCommit: log.onCommit})
	token := register(t, s, "d1")
	bad := &CheckinRequest{Grad: []float64{1}, LabelCounts: []int{0, 0, 0}}
	if err := s.Checkin(ctx, "d1", token, bad); !errors.Is(err, ErrBadCheckin) {
		t.Fatalf("malformed checkin = %v, want ErrBadCheckin", err)
	}
	if calls := log.snapshot(); len(calls) != 0 {
		t.Fatalf("a refused checkin reached OnCommit: %+v", calls)
	}

	a, b, c, d := pendingFor(t, s, "d1"), pendingFor(t, s, "d1"), pendingFor(t, s, "d1"), pendingFor(t, s, "d1")
	b.abandoned.Store(true)
	if r := applyAsLeader(s, a, b, c, d); r != nil {
		t.Fatalf("apply panicked: %v", r)
	}
	got := answers(a, b, c, d)
	want := []error{nil, ErrCheckinAborted, nil, ErrStopped}
	for i := range want {
		if !errors.Is(got[i], want[i]) {
			t.Errorf("item %d result = %v, want %v", i, got[i], want[i])
		}
	}
	wantRecords := []ReplayRecord{{DeviceID: "d1", Iteration: 1, Req: a.req}, {DeviceID: "d1", Iteration: 2, Req: c.req}}
	if calls := log.snapshot(); len(calls) != 1 || !slices.Equal(calls[0], wantRecords) {
		t.Errorf("OnCommit calls = %+v, want one carrying %+v", calls, wantRecords)
	}

	// The Updater panics on the second item: the first is applied and
	// committed, the second and third are aborted and absent.
	var first *pendingCheckin
	var waitersAnswered int
	var plog commitLog
	p := newTestServer(t, ServerConfig{
		Updater: &panicAtUpdater{n: 2},
		OnCommit: func(records []ReplayRecord) {
			waitersAnswered = len(first.done)
			plog.onCommit(records)
		},
	})
	first = pendingFor(t, p, "d1")
	second, third := pendingFor(t, p, "d1"), pendingFor(t, p, "d1")
	if r := applyAsLeader(p, first, second, third); r == nil {
		t.Fatal("the Updater panic did not propagate out of the leader")
	}
	got = answers(first, second, third)
	want = []error{nil, ErrCheckinAborted, ErrCheckinAborted}
	for i := range want {
		if !errors.Is(got[i], want[i]) {
			t.Errorf("panicking batch item %d result = %v, want %v", i, got[i], want[i])
		}
	}
	wantRecords = []ReplayRecord{{DeviceID: "d1", Iteration: 1, Req: first.req}}
	if calls := plog.snapshot(); len(calls) != 1 || !slices.Equal(calls[0], wantRecords) {
		t.Errorf("OnCommit calls after an Updater panic = %+v, want one carrying %+v", calls, wantRecords)
	}
	if waitersAnswered != 0 {
		t.Error("a waiter heard back before its batch was committed")
	}
	if p.Iteration() != 1 {
		t.Errorf("iteration = %d after an Updater panic on the second item, want 1", p.Iteration())
	}
}
