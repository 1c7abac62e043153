package core

import (
	"crypto/subtle"
	"hash/fnv"
	"sync"
)

// deviceShards is the number of independently locked registry shards
// (16-way hash striping), so a crowd of devices authenticating
// concurrently never funnels through one mutex.
const deviceShards = 16

// deviceEntry is one enrolled device: its credential and its Algorithm 2
// progress counters. Both live under the owning shard's lock; counter
// mutation additionally happens only while the server's apply lock is
// held (see Server.wMu), so state export under that lock sees totals and
// per-device counters that agree.
type deviceEntry struct {
	token string
	stats DeviceStats
}

// deviceShard is one independently locked slice of the device registry.
type deviceShard struct {
	mu      sync.RWMutex
	entries map[string]*deviceEntry
}

// deviceRegistry is a hash-striped map of enrolled devices. Reads
// (authentication on every checkout and checkin, stats snapshots) take a
// shard read lock only; token rotation and counter updates take the
// shard write lock.
type deviceRegistry struct {
	shards [deviceShards]deviceShard
}

func newDeviceRegistry() *deviceRegistry {
	r := &deviceRegistry{}
	for i := range r.shards {
		r.shards[i].entries = make(map[string]*deviceEntry)
	}
	return r
}

// shardFor picks the shard owning a device ID (FNV-1a).
func (r *deviceRegistry) shardFor(deviceID string) *deviceShard {
	f := fnv.New32a()
	_, _ = f.Write([]byte(deviceID)) // fnv never errors
	return &r.shards[f.Sum32()%deviceShards]
}

// register enrolls (or re-enrolls) a device with a fresh token, creating
// its counters with the given class count on first enrollment.
func (r *deviceRegistry) register(deviceID, token string, classes int) {
	sh := r.shardFor(deviceID)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if e, ok := sh.entries[deviceID]; ok {
		e.token = token
		return
	}
	sh.entries[deviceID] = &deviceEntry{
		token: token,
		stats: DeviceStats{LabelCounts: make([]int, classes)},
	}
}

// authenticate verifies a device's token under the shard read lock. An
// entry with an empty stored token is unprovisioned — created by state
// restore or journal replay, which never persist credentials — and must
// never authenticate (an empty presented token would otherwise match it:
// ConstantTimeCompare of two empty slices reports equal). Such a device
// re-registers to obtain a fresh token.
func (r *deviceRegistry) authenticate(deviceID, token string) error {
	sh := r.shardFor(deviceID)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	e, ok := sh.entries[deviceID]
	if !ok || e.token == "" ||
		subtle.ConstantTimeCompare([]byte(e.token), []byte(token)) != 1 {
		return ErrAuth
	}
	return nil
}

// recordCheckin folds one applied checkin into a device's counters under
// the shard write lock — the single accounting shared by the live apply
// path and journal replay, so the two can never drift (recovery must be
// bit-exact). With create (replay: the device may have contributed after
// the checkpoint that would have carried it was taken) a missing entry
// is created without a credential, like importStats.
func (r *deviceRegistry) recordCheckin(deviceID string, req *CheckinRequest, staleness int, create bool) {
	sh := r.shardFor(deviceID)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	e, ok := sh.entries[deviceID]
	if !ok {
		if !create {
			return
		}
		e = &deviceEntry{stats: DeviceStats{LabelCounts: make([]int, len(req.LabelCounts))}}
		sh.entries[deviceID] = e
	}
	st := &e.stats
	st.Samples += req.NumSamples
	st.Errors += req.ErrCount
	for k, c := range req.LabelCounts {
		st.LabelCounts[k] += c
	}
	st.Checkins++
	st.StalenessSum += staleness
}

// statsCopy returns a deep copy of a device's counters.
func (r *deviceRegistry) statsCopy(deviceID string) (DeviceStats, bool) {
	sh := r.shardFor(deviceID)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	e, ok := sh.entries[deviceID]
	if !ok {
		return DeviceStats{}, false
	}
	cp := e.stats
	cp.LabelCounts = append([]int(nil), e.stats.LabelCounts...)
	return cp, true
}

// importStats overwrites (or creates, without a credential) a device's
// counters — the ImportState path. A device restored this way must
// re-register before it can authenticate.
func (r *deviceRegistry) importStats(deviceID string, stats DeviceStats) {
	sh := r.shardFor(deviceID)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	e, ok := sh.entries[deviceID]
	if !ok {
		e = &deviceEntry{}
		sh.entries[deviceID] = e
	}
	e.stats = stats
}

// count returns the number of enrolled devices.
func (r *deviceRegistry) count() int {
	n := 0
	for i := range r.shards {
		sh := &r.shards[i]
		sh.mu.RLock()
		n += len(sh.entries)
		sh.mu.RUnlock()
	}
	return n
}

// forEach calls fn for every enrolled device, one shard at a time under
// its read lock. The *DeviceStats passed to fn aliases registry memory
// and must not be retained.
func (r *deviceRegistry) forEach(fn func(deviceID string, stats *DeviceStats)) {
	for i := range r.shards {
		sh := &r.shards[i]
		sh.mu.RLock()
		for id, e := range sh.entries {
			fn(id, &e.stats)
		}
		sh.mu.RUnlock()
	}
}
