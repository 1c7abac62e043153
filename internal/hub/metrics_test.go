package hub

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"github.com/crowdml/crowdml/internal/core"
	"github.com/crowdml/crowdml/internal/invariants"
	"github.com/crowdml/crowdml/internal/rng"
	"github.com/crowdml/crowdml/internal/store"
	"github.com/crowdml/crowdml/internal/telemetry"
)

// TestInstrumentationOnlyObserves feeds one seeded sequence of checkouts
// and checkins, refused ones included, into two durable tasks that differ
// only in their registry: one records every core and hub series, the
// other has none, so each recording site runs once with live handles and
// once with nil ones. Both must end in the same state bit for bit, write
// the same checkpoints and journal the same entries (their wall-clock
// stamps aside).
func TestInstrumentationOnlyObserves(t *testing.T) {
	ctx := context.Background()
	reg := telemetry.NewRegistry()
	const afterN, waves = 4, 3
	h := New()
	defer h.Close(ctx)
	type side struct {
		st     *store.FileStore
		task   *Task
		tokens map[string]string
	}
	open := func(id string, opts ...TaskOption) *side {
		s := &side{st: store.NewMemStore(), tokens: map[string]string{}}
		opts = append(opts, WithStore(s.st), WithSyncPolicy(SyncBatch),
			WithCheckpointPolicy(CheckpointPolicy{AfterN: afterN}), WithRetention(PruneCovered))
		var err error
		if s.task, err = h.CreateTask(ctx, id, serverConfig(), opts...); err != nil {
			t.Fatal(err)
		}
		return s
	}
	sides := []*side{open("on", WithMetrics(reg)), open("off")}

	r := rng.New(28)
	devices := []string{"a", "b", "c"}
	// step runs one seeded exchange on both sides: a refused checkout or
	// checkin now and then, delta checkouts against a current, a retained
	// and a stale base, and an accepted checkin echoing a checked-out
	// version. It reports whether a checkin was applied.
	step := func() bool {
		dev := devices[r.Intn(len(devices))]
		kind := r.Intn(6)
		grad := make([]float64, 4)
		for i := range grad {
			grad[i] = r.Laplace(1)
		}
		ne := r.Intn(3)
		since := r.Intn(8) - 2
		applied := false
		for _, s := range sides {
			srv := s.task.Server()
			tok, ok := s.tokens[dev]
			if !ok {
				var err error
				if tok, err = srv.RegisterDevice(ctx, dev); err != nil {
					t.Fatal(err)
				}
				s.tokens[dev] = tok
			}
			req := &core.CheckinRequest{Grad: append([]float64(nil), grad...), NumSamples: 2, ErrCount: ne, LabelCounts: []int{1, 1}}
			switch kind {
			case 0:
				if _, err := srv.Checkout(ctx, dev, "forged"); !errors.Is(err, core.ErrAuth) {
					t.Fatalf("forged checkout: %v", err)
				}
			case 1:
				req.Grad = req.Grad[:3]
				if err := srv.Checkin(ctx, dev, tok, req); !errors.Is(err, core.ErrBadCheckin) {
					t.Fatalf("short gradient: %v", err)
				}
			case 2:
				d, err := srv.CheckoutDelta(ctx, dev, tok, srv.Iteration()-since)
				if err != nil {
					t.Fatal(err)
				}
				d.Release()
			default:
				co, err := srv.Checkout(ctx, dev, tok)
				if err != nil {
					t.Fatal(err)
				}
				req.Version = max(co.Version-kind%2, 0) // some a step stale
				if err := srv.Checkin(ctx, dev, tok, req); err != nil {
					t.Fatal(err)
				}
				applied = true
			}
		}
		return applied
	}
	for wave := 0; wave < waves; wave++ {
		for n := 0; n < afterN; {
			if step() {
				n++
			}
		}
		// Each wave's checkpoint seals and prunes one segment on both sides
		// before the next wave starts, so the two journals hold the same tail.
		for _, s := range sides {
			waitForCond(t, "checkpoint+prune cycle", func() bool {
				segs, err := s.st.Segments(ctx)
				return err == nil && len(segs) == 1 && segs[0].Seq == wave+2
			})
		}
	}
	for n := 0; n < afterN-1; {
		if step() {
			n++
		}
	}
	for _, s := range sides {
		srv := s.task.Server()
		srv.Stop()
		err := srv.Checkin(ctx, "a", s.tokens["a"], &core.CheckinRequest{Grad: make([]float64, 4), NumSamples: 1, LabelCounts: []int{1, 0}})
		if !errors.Is(err, core.ErrStopped) {
			t.Fatalf("checkin after Stop: %v", err)
		}
	}

	on, off := sides[0], sides[1]
	if err := invariants.Same(on.task.Server().ExportState(), off.task.Server().ExportState()); err != nil {
		t.Errorf("final state: %v", err)
	}
	if err := invariants.Counters(on.task.Server().ExportState()); err != nil {
		t.Error(err)
	}
	cpOn, errOn := on.st.Load(ctx)
	cpOff, errOff := off.st.Load(ctx)
	if errOn != nil || errOff != nil {
		t.Fatalf("load checkpoints: %v, %v", errOn, errOff)
	}
	if err := invariants.Same(cpOn.State, cpOff.State); err != nil {
		t.Errorf("checkpoint: %v", err)
	}
	jOn, errOn := readAll(on.st)
	jOff, errOff := readAll(off.st)
	if errOn != nil || errOff != nil {
		t.Fatalf("read journals: %v, %v", errOn, errOff)
	}
	if len(jOn) != afterN-1 || len(jOn) != len(jOff) {
		t.Fatalf("journal tails hold %d and %d entries, want %d each", len(jOn), len(jOff), afterN-1)
	}
	for i := range jOn {
		a, b := jOn[i], jOff[i]
		a.AtUnixMillis, b.AtUnixMillis = 0, 0
		if got, want := fmt.Sprintf("%+v", a), fmt.Sprintf("%+v", b); got != want {
			t.Errorf("journal entry %d differs:\n on: %s\noff: %s", i, got, want)
		}
	}

	// The instrumented side did record: each wave's save and prune, each
	// applied checkin's append, and each batch's size and fsync stage.
	label := telemetry.L("task", "on")
	iter := uint64(on.task.Server().Iteration())
	batches := reg.Histogram("crowdml_checkin_batch_size", "", telemetry.BatchBuckets, label).Count()
	fsyncs := reg.Histogram("crowdml_checkin_stage_seconds", "", telemetry.DurationBuckets, label, telemetry.L("stage", "fsync")).Count()
	for name, got := range map[string][2]uint64{
		"crowdml_checkins_applied_total":          {reg.Counter("crowdml_checkins_applied_total", "", label).Value(), iter},
		"crowdml_journal_appends_total":           {reg.Counter("crowdml_journal_appends_total", "", label).Value(), iter},
		"crowdml_checkpoint_saves_total":          {reg.Counter("crowdml_checkpoint_saves_total", "", label).Value(), waves},
		"crowdml_retention_pruned_segments_total": {reg.Counter("crowdml_retention_pruned_segments_total", "", label).Value(), waves},
		"fsync stage count":                       {fsyncs, batches},
	} {
		if got[0] != got[1] {
			t.Errorf("%s = %d, want %d", name, got[0], got[1])
		}
	}
	if batches == 0 || batches > iter {
		t.Errorf("%d batches for %d checkins", batches, iter)
	}
}
