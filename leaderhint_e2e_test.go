// End-to-end leader-hint retry tests: a device whose write lands on a
// read-only surface — a follower replica, or a sharded member in the
// follower role — receives a 409 carrying the owning leader's base URL,
// and following that hint ONCE must complete the write. This is the
// client-side retry discipline the scenario harness (and any production
// device) implements; the tests pin that one hop is always enough.
package crowdml_test

import (
	"context"
	"errors"
	"net/http/httptest"
	"testing"

	crowdml "github.com/crowdml/crowdml"
)

// registerFollowingHint registers a device against entry, following
// leader hints; it returns the token, the client that finally succeeded
// and the number of redirect hops taken.
func registerFollowingHint(t *testing.T, entry *crowdml.HTTPClient, deviceID, key string) (string, *crowdml.HTTPClient, int) {
	t.Helper()
	ctx := context.Background()
	client := entry
	for hops := 0; hops <= 3; {
		token, err := client.Register(ctx, deviceID, key)
		if err == nil {
			return token, client, hops
		}
		hint, ok := crowdml.LeaderHint(err)
		if !ok {
			t.Fatalf("register %s: %v (no leader hint)", deviceID, err)
		}
		var lhe *crowdml.LeaderHintError
		if !errors.As(err, &lhe) || !errors.Is(err, crowdml.ErrReadOnlyReplica) {
			t.Fatalf("hinted error has wrong shape: %v", err)
		}
		client = crowdml.NewHTTPClient(hint, nil).WithTask(entry.TaskID())
		hops++
	}
	t.Fatalf("register %s: hint chain did not terminate", deviceID)
	return "", nil, 0
}

// TestLeaderHintRetryFromFollower: registration and checkin against a
// follower replica each succeed after exactly one hop to the hinted
// leader.
func TestLeaderHintRetryFromFollower(t *testing.T) {
	ctx := context.Background()
	leaderHub := crowdml.NewHub()
	if _, err := leaderHub.CreateTask(ctx, "act", repServerConfig()); err != nil {
		t.Fatal(err)
	}
	defer leaderHub.Close(ctx)
	leaderSrv := httptest.NewServer(crowdml.NewHTTPHandler(leaderHub, "join", nil))
	defer leaderSrv.Close()

	followerHub := crowdml.NewHub()
	if _, err := followerHub.CreateTask(ctx, "act", repServerConfig(),
		crowdml.AsReplicaOf(leaderSrv.URL)); err != nil {
		t.Fatal(err)
	}
	defer followerHub.Close(ctx)
	followerSrv := httptest.NewServer(crowdml.NewHTTPHandler(followerHub, "join", nil))
	defer followerSrv.Close()

	entry := crowdml.NewHTTPClient(followerSrv.URL, nil).WithTask("act")
	token, leaderClient, hops := registerFollowingHint(t, entry, "phone-1", "join")
	if hops != 1 {
		t.Fatalf("registration took %d hops, want exactly 1", hops)
	}

	// The write path from the device's perspective: a checkin sent to the
	// follower is hinted away, and the single retry lands.
	co, err := leaderClient.Checkout(ctx, "phone-1", token)
	if err != nil {
		t.Fatal(err)
	}
	req := &crowdml.CheckinRequest{
		Grad:        make([]float64, repClasses*repDim),
		NumSamples:  1,
		ErrCount:    0,
		LabelCounts: []int{1, 0, 0},
		Version:     co.Version,
	}
	err = entry.Checkin(ctx, "phone-1", token, req)
	hint, ok := crowdml.LeaderHint(err)
	if !ok {
		t.Fatalf("follower checkin err = %v, want leader hint", err)
	}
	if hint != leaderSrv.URL {
		t.Fatalf("hint = %q, want %q", hint, leaderSrv.URL)
	}
	retry := crowdml.NewHTTPClient(hint, nil).WithTask("act")
	if err := retry.Checkin(ctx, "phone-1", token, req); err != nil {
		t.Fatalf("hinted checkin retry failed: %v", err)
	}
}

// TestLeaderHintRetryFromShardedMember: a write routed to a sharded
// member in the follower role is hinted to that shard's leader, and one
// hop completes it there.
func TestLeaderHintRetryFromShardedMember(t *testing.T) {
	ctx := context.Background()

	// The shard-0 leader: a plain hub hosting "act" as a normal task.
	leaderHub := crowdml.NewHub()
	if _, err := leaderHub.CreateTask(ctx, "act", repServerConfig()); err != nil {
		t.Fatal(err)
	}
	defer leaderHub.Close(ctx)
	leaderSrv := httptest.NewServer(crowdml.NewHTTPHandler(leaderHub, "join", nil))
	defer leaderSrv.Close()

	// The sharded front-end: member 0 follows the leader above, member 1
	// is an ordinary leader member.
	routerHub := crowdml.NewHub()
	g, err := crowdml.NewShardedTask(ctx, routerHub, "act",
		func(int) crowdml.ServerConfig { return repServerConfig() },
		crowdml.WithShards(2),
		crowdml.WithShardMemberTaskOptions(func(k int, memberID string) []crowdml.TaskOption {
			if k == 0 {
				return []crowdml.TaskOption{crowdml.AsReplicaOf(leaderSrv.URL)}
			}
			return nil
		}))
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close(ctx)
	defer routerHub.Close(ctx)
	routerSrv := httptest.NewServer(crowdml.NewHTTPHandler(routerHub, "join", nil))
	defer routerSrv.Close()

	entry := crowdml.NewHTTPClient(routerSrv.URL, nil).WithTask("act")

	// device-002 hashes to shard 0 (the follower member): its
	// registration must take exactly one hop to the shard leader.
	token, leaderClient, hops := registerFollowingHint(t, entry, "device-002", "join")
	if hops != 1 {
		t.Fatalf("sharded registration took %d hops, want exactly 1", hops)
	}

	// Same discipline on the checkin write path through the router.
	co, err := leaderClient.Checkout(ctx, "device-002", token)
	if err != nil {
		t.Fatal(err)
	}
	req := &crowdml.CheckinRequest{
		Grad:        make([]float64, repClasses*repDim),
		NumSamples:  1,
		ErrCount:    0,
		LabelCounts: []int{0, 1, 0},
		Version:     co.Version,
	}
	err = entry.Checkin(ctx, "device-002", token, req)
	hint, ok := crowdml.LeaderHint(err)
	if !ok {
		t.Fatalf("routed checkin err = %v, want leader hint", err)
	}
	if hint != leaderSrv.URL {
		t.Fatalf("hint = %q, want %q", hint, leaderSrv.URL)
	}
	retry := crowdml.NewHTTPClient(hint, nil).WithTask("act")
	if err := retry.Checkin(ctx, "device-002", token, req); err != nil {
		t.Fatalf("hinted checkin retry failed: %v", err)
	}

	// A device on the leader-role member stays hint-free: zero hops.
	if _, _, hops := registerFollowingHint(t, entry, "device-001", "join"); hops != 0 {
		t.Errorf("leader-member registration took %d hops, want 0", hops)
	}
}
