package shard

import (
	"fmt"
	"testing"
)

// TestShardMapGoldenAssignments pins the version-1 placement function
// forever: these device→shard assignments are part of the tier's
// on-disk contract (a device's credentials and counters live in its
// shard's WAL), so they must survive process restarts, recompilation,
// and Go upgrades bit-for-bit. If this test fails, the placement
// changed — that requires a NEW map version with migration, never an
// edit to these tables.
func TestShardMapGoldenAssignments(t *testing.T) {
	golden := map[int]map[string]int{
		4: {
			"device-000": 2, "device-001": 1, "device-002": 0, "device-003": 3,
			"device-004": 2, "device-005": 1, "device-006": 0, "device-007": 3,
			"device-008": 2, "device-009": 1,
			"phone-1": 1, "phone-2": 0, "watch-7": 0, "tablet-α": 1,
			"": 1, "a": 0, "b": 1, "c": 2,
			"0123456789abcdef0123456789abcdef": 1,
			"Device-000":                       2, // case-sensitive: distinct device
		},
		8: {
			"device-000": 6, "device-001": 1, "device-002": 0, "device-003": 3,
			"device-004": 2, "device-005": 5, "device-006": 4, "device-007": 7,
			"device-008": 6, "device-009": 1,
			"phone-1": 5, "phone-2": 4, "watch-7": 0, "tablet-α": 5,
			"": 5, "a": 4, "b": 5, "c": 2,
			"0123456789abcdef0123456789abcdef": 5,
			"Device-000":                       6,
		},
	}
	for n, want := range golden {
		m, err := NewShardMap(n)
		if err != nil {
			t.Fatal(err)
		}
		for dev, k := range want {
			if got := m.Shard(dev); got != k {
				t.Errorf("v1 map n=%d: Shard(%q) = %d, want pinned %d", n, dev, got, k)
			}
		}
	}
}

// TestShardMapStability re-derives every assignment from a second,
// independently constructed map — the "across process restarts" half of
// the conformance contract reduced to what a single process can check:
// placement depends only on (version, N, deviceID), not on any map
// instance state.
func TestShardMapStability(t *testing.T) {
	a, _ := NewShardMap(5)
	b, _ := NewShardMap(5)
	for i := 0; i < 1000; i++ {
		dev := fmt.Sprintf("device-%05d", i)
		if a.Shard(dev) != b.Shard(dev) {
			t.Fatalf("two identical maps disagree on %q", dev)
		}
	}
}

func TestShardMapDistribution(t *testing.T) {
	m, _ := NewShardMap(4)
	counts := make([]int, 4)
	for i := 0; i < 10000; i++ {
		k := m.Shard(fmt.Sprintf("device-%05d", i))
		if k < 0 || k >= 4 {
			t.Fatalf("shard index %d out of range", k)
		}
		counts[k]++
	}
	// FNV over sequential IDs spreads well; just guard against a gross
	// skew (a broken hash would put everything in one bucket).
	for k, c := range counts {
		if c < 1500 || c > 3500 {
			t.Errorf("shard %d holds %d of 10000 devices (gross skew): %v", k, c, counts)
		}
	}
}

func TestNewShardMapValidation(t *testing.T) {
	if _, err := NewShardMap(0); err == nil {
		t.Error("NewShardMap(0) did not error")
	}
	if _, err := NewShardMap(-3); err == nil {
		t.Error("NewShardMap(-3) did not error")
	}
	m, err := NewShardMap(1)
	if err != nil {
		t.Fatal(err)
	}
	if k := m.Shard("anything"); k != 0 {
		t.Errorf("single-shard map returned shard %d", k)
	}
}

func TestMemberTaskID(t *testing.T) {
	if id := MemberTaskID("activity", 2); id != "activity.shard-2" {
		t.Fatalf("MemberTaskID = %q", id)
	}
}
