// Package shard implements the sharded leader tier: one logical
// crowd-learning task partitioned across N ordinary leader tasks behind
// a routing front-end. PR 6 scaled the read path (WAL-shipping follower
// replicas); this package scales the WRITE path — every checkin for a
// task no longer funnels through a single leader's batch queue.
//
// Topology. A Group owns N member tasks on a hub, named
// "{task}.shard-{k}" (valid task IDs and valid store directory names,
// so every member is a full leader: its own WAL/checkpoint lineage,
// journal feed, retention, replication and telemetry work per shard
// unchanged). A ShardMap assigns each device to exactly one
// member by stable hashing, so a device's whole credential and counter
// history lives on one shard.
//
// Routing. Writes (checkin, register) are proxied to the owning member.
// Reads (checkout, stats) are served from a merged view: a periodic
// merger goroutine pulls each member's zero-copy parameter snapshot
// (core.ParamView) and combines them weighted by shard checkin counts —
// the paper-style model averaging — publishing the result through an
// atomic pointer so merged checkouts stay lock-free. The Group
// implements hub.ShardRouter; mounting it on the hub makes the HTTP
// layer route the logical task's /v1/tasks/{id}/... traffic through it,
// aggregate healthz, and fold the members out of listings.
package shard

import (
	"fmt"
	"hash/fnv"
	"strconv"
)

// memberSep joins a logical task ID and a shard index into a member
// task ID. "." keeps the member ID valid both as a hub task ID and as a
// store directory name (store roots reject path separators).
const memberSep = ".shard-"

// ShardMap is the device→shard placement for one logical task:
// shard(device) = FNV-1a-64(deviceID) mod N, pinned forever by the
// conformance test. It is a value type — copying it is free, and two
// processes constructing the same N-shard map route identically, which is
// what lets any stateless router front the same tier.
type ShardMap struct{ n int }

// NewShardMap returns the map over n shards (n ≥ 1).
func NewShardMap(n int) (ShardMap, error) {
	if n < 1 {
		return ShardMap{}, fmt.Errorf("shard: NewShardMap(%d): need at least 1 shard", n)
	}
	return ShardMap{n: n}, nil
}

// N returns the shard count.
func (m ShardMap) N() int { return m.n }

// Shard returns the shard index owning deviceID: FNV-1a-64 of the raw
// ID, mod N. Stable across processes, restarts, and Go versions — the
// assignment is part of the tier's on-disk contract (a device's
// credentials and counters live on its shard's WAL).
func (m ShardMap) Shard(deviceID string) int {
	f := fnv.New64a()
	_, _ = f.Write([]byte(deviceID)) // fnv never errors
	return int(f.Sum64() % uint64(m.n))
}

// MemberTaskID returns the member task ID for shard k of a logical
// task, e.g. MemberTaskID("activity", 2) → "activity.shard-2".
func MemberTaskID(taskID string, k int) string {
	return taskID + memberSep + strconv.Itoa(k)
}
