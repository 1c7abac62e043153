package core

import (
	"crypto/subtle"
	"sync"
)

// deviceEntry is one enrolled device: its credential and its Algorithm 2
// progress counters. Each field has one lock. token is guarded by the
// registry's mu. stats is guarded by the server's apply lock (Server.wMu):
// every write to it happens while a checkin is applied, replayed or
// imported, and its one reader is the state export, all under wMu, so an
// export sees totals and per-device counters that agree.
type deviceEntry struct {
	token string
	stats DeviceStats
}

// deviceRegistry is the table of enrolled devices. mu guards the map and
// every entry's token: authentication (every checkout and checkin) and
// counter updates take the read lock, enrolment and token rotation the
// write lock.
type deviceRegistry struct {
	mu      sync.RWMutex
	entries map[string]*deviceEntry
}

func newDeviceRegistry() *deviceRegistry {
	return &deviceRegistry{entries: make(map[string]*deviceEntry)}
}

// register enrolls (or re-enrolls) a device with a fresh token, creating
// its counters with the given class count on first enrollment.
func (r *deviceRegistry) register(deviceID, token string, classes int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if e, ok := r.entries[deviceID]; ok {
		e.token = token
		return
	}
	r.entries[deviceID] = &deviceEntry{
		token: token,
		stats: DeviceStats{LabelCounts: make([]int, classes)},
	}
}

// authenticate verifies a device's token under the read lock. An entry
// with an empty stored token is unprovisioned — created by state restore
// or journal replay, which never persist credentials — and must never
// authenticate (an empty presented token would otherwise match it:
// ConstantTimeCompare of two empty slices reports equal). Such a device
// re-registers to obtain a fresh token.
func (r *deviceRegistry) authenticate(deviceID, token string) error {
	r.mu.RLock()
	defer r.mu.RUnlock()
	e, ok := r.entries[deviceID]
	if !ok || e.token == "" ||
		subtle.ConstantTimeCompare([]byte(e.token), []byte(token)) != 1 {
		return ErrAuth
	}
	return nil
}

// entry returns a device's entry, creating one without a credential if
// there is none — under the write lock, the only time a checkin takes it.
// A live checkin's device has just authenticated, so only restore creates:
// ImportState, and Replay for a device that contributed after the
// checkpoint that would have carried it was taken. Entries are never
// removed, so the pointer stays the device's.
func (r *deviceRegistry) entry(deviceID string, classes int) *deviceEntry {
	r.mu.RLock()
	e, ok := r.entries[deviceID]
	r.mu.RUnlock()
	if ok {
		return e
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if e, ok = r.entries[deviceID]; !ok {
		e = &deviceEntry{stats: DeviceStats{LabelCounts: make([]int, classes)}}
		r.entries[deviceID] = e
	}
	return e
}

// recordCheckin folds one applied checkin into a device's counters — the
// single accounting shared by the live apply path and journal replay, so
// the two can never drift (recovery must be bit-exact). Caller holds wMu.
func (r *deviceRegistry) recordCheckin(deviceID string, req *CheckinRequest, staleness int) {
	st := &r.entry(deviceID, len(req.LabelCounts)).stats
	st.Samples += req.NumSamples
	st.Errors += req.ErrCount
	for k, c := range req.LabelCounts {
		st.LabelCounts[k] += c
	}
	st.Checkins++
	st.StalenessSum += staleness
}

// importStats overwrites (or creates, without a credential) a device's
// counters — the ImportState path. A device restored this way must
// re-register before it can authenticate. Caller holds wMu.
func (r *deviceRegistry) importStats(deviceID string, stats DeviceStats) {
	r.entry(deviceID, 0).stats = stats
}

// count returns the number of enrolled devices.
func (r *deviceRegistry) count() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.entries)
}

// forEach calls fn for every enrolled device under the read lock. The
// *DeviceStats passed to fn aliases registry memory and must not be
// retained; reading it needs wMu.
func (r *deviceRegistry) forEach(fn func(deviceID string, stats *DeviceStats)) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	for id, e := range r.entries {
		fn(id, &e.stats)
	}
}
