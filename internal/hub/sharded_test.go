package hub

import (
	"context"
	"errors"
	"sync"
	"testing"

	"github.com/crowdml/crowdml/internal/core"
	"github.com/crowdml/crowdml/internal/model"
	"github.com/crowdml/crowdml/internal/optimizer"
)

// fakeRouter is a minimal ShardRouter for registry tests; only the
// identity methods matter here.
type fakeRouter struct {
	id      string
	members []string
	owner   *Task
}

func (f *fakeRouter) LogicalID() string   { return f.id }
func (f *fakeRouter) Info() TaskInfo      { return TaskInfo{Name: f.id} }
func (f *fakeRouter) MemberIDs() []string { return f.members }
func (f *fakeRouter) Owner(string) *Task  { return f.owner }
func (f *fakeRouter) CheckoutDelta(ctx context.Context, deviceID, token string, since int) (*core.ParamDelta, error) {
	return nil, errors.New("not implemented")
}
func (f *fakeRouter) Checkin(ctx context.Context, deviceID, token string, req *core.CheckinRequest) error {
	return errors.New("not implemented")
}
func (f *fakeRouter) Register(ctx context.Context, deviceID string) (string, error) {
	return "", errors.New("not implemented")
}
func (f *fakeRouter) MergedStats() Progress       { return Progress{Iteration: 7, Shards: len(f.members)} }
func (f *fakeRouter) ShardRows() []ShardHealthRow { return nil }

func shardedTestConfig() core.ServerConfig {
	return core.ServerConfig{
		Model:   model.NewLogisticRegression(2, 3),
		Updater: &optimizer.SGD{Schedule: optimizer.InvSqrt{C: 1}},
	}
}

func TestMountShardRouter(t *testing.T) {
	ctx := context.Background()
	h := New()
	for _, id := range []string{"act.shard-0", "act.shard-1"} {
		if _, err := h.CreateTask(ctx, id, shardedTestConfig()); err != nil {
			t.Fatal(err)
		}
	}
	r := &fakeRouter{id: "act", members: []string{"act.shard-0", "act.shard-1"}}
	if err := h.MountShardRouter(r); err != nil {
		t.Fatalf("mount: %v", err)
	}

	// The logical ID resolves to the router, a member's own ID still to
	// the member, and the listing folds the members into the logical row.
	if e, err := h.Resolve("act"); err != nil || e.Router != ShardRouter(r) || e.Task != nil || e.ID() != "act" {
		t.Fatalf("Resolve(act) = %+v, %v", e, err)
	}
	if e, err := h.Resolve("act.shard-1"); err != nil || e.Task == nil || e.Router != nil {
		t.Fatalf("Resolve(act.shard-1) = %+v, %v", e, err)
	}
	hosted := h.Hosted()
	if len(hosted) != 1 || hosted[0].ID() != "act" || hosted[0].Router == nil {
		t.Fatalf("Hosted() = %+v, want the logical entry alone", hosted)
	}
	if p := hosted[0].Progress(); p.Iteration != 7 || p.Shards != 2 {
		t.Errorf("logical entry's Progress = %+v, want the router's MergedStats", p)
	}
	if h.Len() != 2 || len(h.Tasks()) != 2 {
		t.Errorf("Len/Tasks = %d/%d, want the 2 members", h.Len(), len(h.Tasks()))
	}

	// The logical ID is now reserved: no plain task and no second router.
	if _, err := h.CreateTask(ctx, "act", shardedTestConfig()); !errors.Is(err, ErrTaskExists) {
		t.Fatalf("CreateTask(logical id) err = %v, want ErrTaskExists", err)
	}
	if err := h.MountShardRouter(&fakeRouter{id: "act", members: []string{"act.shard-0"}}); !errors.Is(err, ErrTaskExists) {
		t.Fatalf("double mount err = %v, want ErrTaskExists", err)
	}
	// Members cannot be claimed by a second router either.
	if err := h.MountShardRouter(&fakeRouter{id: "other", members: []string{"act.shard-0"}}); !errors.Is(err, ErrTaskExists) {
		t.Fatalf("member steal err = %v, want ErrTaskExists", err)
	}

	h.UnmountShardRouter("act")
	if _, err := h.Resolve("act"); !errors.Is(err, ErrTaskNotFound) {
		t.Errorf("Resolve(act) after unmount err = %v, want ErrTaskNotFound", err)
	}
	if hosted := h.Hosted(); len(hosted) != 2 || hosted[0].ID() != "act.shard-0" {
		t.Errorf("Hosted() after unmount = %+v, want the two ex-members", hosted)
	}
	// The ID is free again.
	if _, err := h.CreateTask(ctx, "act", shardedTestConfig()); err != nil {
		t.Fatalf("CreateTask after unmount: %v", err)
	}
}

func TestMountShardRouterValidation(t *testing.T) {
	ctx := context.Background()
	h := New()
	if err := h.MountShardRouter(nil); err == nil {
		t.Error("mount(nil) did not error")
	}
	if err := h.MountShardRouter(&fakeRouter{id: "bad/id", members: []string{"m"}}); !errors.Is(err, ErrBadTaskID) {
		t.Errorf("mount(bad id) err = %v, want ErrBadTaskID", err)
	}
	if err := h.MountShardRouter(&fakeRouter{id: "empty"}); err == nil {
		t.Error("mount(no members) did not error")
	}
	// Members must already be hosted.
	if err := h.MountShardRouter(&fakeRouter{id: "act", members: []string{"act.shard-0"}}); !errors.Is(err, ErrTaskNotFound) {
		t.Errorf("mount(missing member) err = %v, want ErrTaskNotFound", err)
	}
	// A hosted task's ID cannot become a logical ID.
	if _, err := h.CreateTask(ctx, "taken", shardedTestConfig()); err != nil {
		t.Fatal(err)
	}
	if _, err := h.CreateTask(ctx, "taken.shard-0", shardedTestConfig()); err != nil {
		t.Fatal(err)
	}
	if err := h.MountShardRouter(&fakeRouter{id: "taken", members: []string{"taken.shard-0"}}); !errors.Is(err, ErrTaskExists) {
		t.Errorf("mount(over live task) err = %v, want ErrTaskExists", err)
	}
}

// TestCreateTaskRacesMountShardRouter: a plain task and a router racing
// for one ID are decided under one lock, so exactly one wins — with the
// two registries the two lock domains once were, each side checked the
// other's table before taking its own lock and both could be admitted.
func TestCreateTaskRacesMountShardRouter(t *testing.T) {
	ctx := context.Background()
	h := New()
	if _, err := h.CreateTask(ctx, "act.shard-0", shardedTestConfig()); err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 200; round++ {
		var (
			wg                  sync.WaitGroup
			start               = make(chan struct{})
			createErr, mountErr error
		)
		wg.Add(2)
		go func() {
			defer wg.Done()
			<-start
			_, createErr = h.CreateTask(ctx, "act", shardedTestConfig())
		}()
		go func() {
			defer wg.Done()
			<-start
			mountErr = h.MountShardRouter(&fakeRouter{id: "act", members: []string{"act.shard-0"}})
		}()
		close(start)
		wg.Wait()

		e, err := h.Resolve("act")
		if err != nil {
			t.Fatalf("round %d: neither side won: create %v, mount %v", round, createErr, mountErr)
		}
		switch {
		case createErr == nil && errors.Is(mountErr, ErrTaskExists) && e.Task != nil:
			if err := h.CloseTask(ctx, "act"); err != nil {
				t.Fatal(err)
			}
		case mountErr == nil && errors.Is(createErr, ErrTaskExists) && e.Router != nil:
			h.UnmountShardRouter("act")
		default:
			t.Fatalf("round %d: create err = %v, mount err = %v, Resolve = %+v; want exactly one winner",
				round, createErr, mountErr, e)
		}
	}
}
