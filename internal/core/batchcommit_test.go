package core

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/crowdml/crowdml/internal/model"
	"github.com/crowdml/crowdml/internal/optimizer"
)

// TestOnBatchCommitOrdering: the group-commit hook runs once per applied
// batch, after the batch's OnCheckin hooks and before any Checkin call
// returns — the ordering a durability sink's fsync depends on.
func TestOnBatchCommitOrdering(t *testing.T) {
	ctx := context.Background()
	var hooks, commits, committedCheckins atomic.Int64
	var orderErr atomic.Value
	cfg := ServerConfig{
		Model:   model.NewLogisticRegression(2, 2),
		Updater: &optimizer.SGD{Schedule: optimizer.Constant{C: 0.1}},
		OnCheckin: func(ctx context.Context, deviceID string, iteration int, req *CheckinRequest) {
			hooks.Add(1)
		},
		OnBatchCommit: func(n int) {
			if hooks.Load() < commits.Load()+int64(n) {
				orderErr.Store("OnBatchCommit ran before its batch's OnCheckin hooks")
			}
			commits.Add(1)
			committedCheckins.Add(int64(n))
		},
	}
	s, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	token, err := s.RegisterDevice(ctx, "d1")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		req := &CheckinRequest{Grad: []float64{1, 0, 0, 1}, NumSamples: 1, LabelCounts: []int{1, 0}}
		if err := s.Checkin(ctx, "d1", token, req); err != nil {
			t.Fatal(err)
		}
		// Synchronous contract: by the time Checkin returns, its batch has
		// committed.
		if committedCheckins.Load() < int64(i+1) {
			t.Fatalf("checkin %d returned before its batch commit (%d committed)",
				i+1, committedCheckins.Load())
		}
	}
	if msg := orderErr.Load(); msg != nil {
		t.Error(msg)
	}
	if commits.Load() != 4 {
		t.Errorf("%d batch commits for 4 sequential checkins, want 4", commits.Load())
	}
}

// TestOnBatchCommitCoversConcurrentBatch: under concurrency the commit
// count can shrink below the checkin count (that is the amortization),
// but the committed-checkin total must cover every acknowledged success.
func TestOnBatchCommitCoversConcurrentBatch(t *testing.T) {
	ctx := context.Background()
	var commits, committed atomic.Int64
	cfg := ServerConfig{
		Model:   model.NewLogisticRegression(2, 2),
		Updater: &optimizer.SGD{Schedule: optimizer.Constant{C: 0.1}},
		OnBatchCommit: func(n int) {
			commits.Add(1)
			committed.Add(int64(n))
		},
	}
	s, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	shrinkApplier(s, 8, checkinQueueDepth)
	token, err := s.RegisterDevice(ctx, "d1")
	if err != nil {
		t.Fatal(err)
	}
	const callers = 16
	var wg sync.WaitGroup
	var acked atomic.Int64
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			req := &CheckinRequest{Grad: []float64{1, 0, 0, 1}, NumSamples: 1, LabelCounts: []int{1, 0}}
			if err := s.Checkin(ctx, "d1", token, req); err == nil {
				acked.Add(1)
			}
		}()
	}
	wg.Wait()
	if committed.Load() != acked.Load() {
		t.Errorf("batch commits covered %d checkins, %d were acknowledged", committed.Load(), acked.Load())
	}
	if commits.Load() > acked.Load() {
		t.Errorf("%d commits for %d checkins — more commits than checkins", commits.Load(), acked.Load())
	}
}
