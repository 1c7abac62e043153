package hub

import (
	"context"
	"errors"
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
}

func (f *fakeRouter) LogicalID() string   { return f.id }
func (f *fakeRouter) Info() TaskInfo      { return TaskInfo{Name: f.id} }
func (f *fakeRouter) MemberIDs() []string { return f.members }
func (f *fakeRouter) MapVersion() int     { return 1 }
func (f *fakeRouter) RouteDevice(deviceID string) string {
	return f.members[0]
}
func (f *fakeRouter) CheckoutDelta(ctx context.Context, deviceID, token string, since int) (*core.ParamDelta, error) {
	return nil, errors.New("not implemented")
}
func (f *fakeRouter) Checkin(ctx context.Context, deviceID, token string, req *core.CheckinRequest) error {
	return errors.New("not implemented")
}
func (f *fakeRouter) Register(ctx context.Context, deviceID string) (string, error) {
	return "", errors.New("not implemented")
}
func (f *fakeRouter) MergedStats() ShardedStats   { return ShardedStats{} }
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

	if got, ok := h.ShardRouterFor("act"); !ok || got != ShardRouter(r) {
		t.Fatalf("ShardRouterFor(act) = %v, %v", got, ok)
	}
	if logical, ok := h.ShardMemberOf("act.shard-1"); !ok || logical != "act" {
		t.Fatalf("ShardMemberOf(act.shard-1) = %q, %v", logical, ok)
	}
	if _, ok := h.ShardMemberOf("act"); ok {
		t.Error("the logical ID itself reports as a member")
	}
	if rs := h.ShardRouters(); len(rs) != 1 || rs[0].LogicalID() != "act" {
		t.Fatalf("ShardRouters() = %v", rs)
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
	if _, ok := h.ShardRouterFor("act"); ok {
		t.Error("router still resolvable after unmount")
	}
	if _, ok := h.ShardMemberOf("act.shard-0"); ok {
		t.Error("membership survives unmount")
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
