package core

import (
	"crypto/subtle"
	"encoding/base64"
	"slices"
	"strings"
	"sync"
)

// tokenBytes is the size of a device token: RegisterDevice draws 16 random
// bytes and hands them out as tokenChars URL-safe base64 characters.
const (
	tokenBytes = 16
	tokenChars = 22
)

// tokenEncoding decodes a presented token. Strict refuses non-zero
// trailing bits and, with the length check in parseToken, makes the
// string ↔ bytes mapping a bijection: exactly one string decodes to a
// stored token, the one RegisterDevice returned.
var tokenEncoding = base64.RawURLEncoding.Strict()

// parseToken decodes a presented token to the bytes it names. Anything but
// 22 characters of strict URL-safe base64 is not a token any server issued
// (ok false); it never panics.
func parseToken(token string) (tok [tokenBytes]byte, ok bool) {
	if len(token) != tokenChars {
		return tok, false
	}
	var src [tokenChars]byte
	copy(src[:], token)
	n, err := tokenEncoding.Decode(tok[:], src[:])
	return tok, err == nil && n == tokenBytes
}

// The counter slab's columns: a device's row is slabCols counters, then
// its C label counts.
const (
	colSamples = iota
	colErrors
	colCheckins
	colStaleness
	slabCols
)

// noCounters is a credential's slot before the device has a counter to keep.
const noCounters = -1

// slabPageInts sizes a page of the counter slab: 8 KiB, one of the
// allocator's size classes, holding as many whole counter rows as fit
// (at least one). A page is allocated when the first of its rows is
// handed out and never moves, so growing the slab copies no counter.
const slabPageInts = 1024

// credential is one enrolled device: its ID, its token as the bytes the
// 22 characters encode, and where its counters are. A credential created by
// a restore or a replay is not provisioned: it never authenticates, and
// the device re-registers for a token.
type credential struct {
	id          string
	token       [tokenBytes]byte
	slot        int32 // the device's row in the counter slab, or noCounters
	provisioned bool
}

// deviceRegistry is the table of enrolled devices, in three parts:
//
//   - rows, the credentials in enrolment order. A row never moves once
//     written, so a row number names a device for good; the slice itself
//     grows (and may move) under mu's write lock.
//   - byID, the row numbers sorted by ID: binary search finds a device,
//     and a walk yields the devices in the checkpoint frame's order.
//   - slab, the Algorithm 2 counters of every device that has one, C +
//     slabCols ints per device (see the col constants), in pages of
//     perPage rows. A device gets its slab row with its first
//     counter (a checkin, a replayed record or a non-zero imported row);
//     until then it costs only its credential.
//
// mu guards rows, byID and every token: authentication takes its read
// lock, enrolment and token rotation its write lock. The slab is guarded
// by the server's apply lock (Server.wMu) alone. A row's slot is written
// under wMu and mu's read lock together: wMu orders the writers, and the
// read lock keeps an enrolment from copying rows to a new array under the
// write, which would lose it. So every counter write and the export hold
// both; devices are addressed by row number, never by pointer.
type deviceRegistry struct {
	classes int

	mu   sync.RWMutex
	rows []credential
	byID []int32

	slab    [][]int // pages of perPage rows; guarded by Server.wMu
	slots   int32   // slab rows handed out
	perPage int32
}

func newDeviceRegistry(classes int) *deviceRegistry {
	return &deviceRegistry{classes: classes, perPage: int32(max(1, slabPageInts/(slabCols+classes)))}
}

// find returns the row of deviceID. Caller holds mu.
func (r *deviceRegistry) find(deviceID string) (row int32, ok bool) {
	i, ok := r.search(deviceID)
	if !ok {
		return 0, false
	}
	return r.byID[i], true
}

// search returns deviceID's position in byID, or where it would go.
// Caller holds mu.
func (r *deviceRegistry) search(deviceID string) (int, bool) {
	return slices.BinarySearchFunc(r.byID, deviceID, func(row int32, id string) int {
		return strings.Compare(r.rows[row].id, id)
	})
}

// rowLocked returns deviceID's row, appending one without a credential or
// counters if the device is unknown. Caller holds mu's write lock.
func (r *deviceRegistry) rowLocked(deviceID string) int32 {
	i, ok := r.search(deviceID)
	if ok {
		return r.byID[i]
	}
	row := int32(len(r.rows))
	r.rows = append(r.rows, credential{id: deviceID, slot: noCounters})
	r.byID = slices.Insert(r.byID, i, row)
	return row
}

// register enrolls (or re-enrolls) a device with the given token.
func (r *deviceRegistry) register(deviceID string, token [tokenBytes]byte) {
	r.mu.Lock()
	defer r.mu.Unlock()
	cred := &r.rows[r.rowLocked(deviceID)]
	cred.token, cred.provisioned = token, true
}

// authenticate verifies a device's token under the read lock, in constant
// time. An unprovisioned row — created by state restore or journal
// replay, which never persist credentials — never authenticates, whatever
// its stored bytes: such a device re-registers to obtain a fresh token.
func (r *deviceRegistry) authenticate(deviceID string, token [tokenBytes]byte) error {
	r.mu.RLock()
	defer r.mu.RUnlock()
	row, ok := r.find(deviceID)
	if !ok || !r.rows[row].provisioned ||
		subtle.ConstantTimeCompare(r.rows[row].token[:], token[:]) != 1 {
		return ErrAuth
	}
	return nil
}

// counters returns a device's row of the counter slab, creating it — and
// the device, without a credential, if there is none — on first use. Only
// Replay creates a device here, for one that contributed after the
// checkpoint that would have carried it was taken; a live checkin's device
// has just authenticated, so it takes the read lock alone. The slice
// aliases the slab: it is valid until the next call. Caller holds wMu.
func (r *deviceRegistry) counters(deviceID string) []int {
	r.mu.RLock()
	row, ok := r.find(deviceID)
	if ok {
		defer r.mu.RUnlock()
		return r.countersOf(row)
	}
	r.mu.RUnlock()
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.countersOf(r.rowLocked(deviceID))
}

// countersOf returns row's slab row, handing it the next one of zeros if
// it has none. Caller holds wMu and mu (read or write).
func (r *deviceRegistry) countersOf(row int32) []int {
	slot := r.rows[row].slot
	if slot == noCounters {
		slot = r.slots
		if slot%r.perPage == 0 {
			r.slab = append(r.slab, make([]int, int(r.perPage)*(slabCols+r.classes)))
		}
		r.slots++
		r.rows[row].slot = slot
	}
	return r.slabRow(slot)
}

// slabRow returns the counter row at slot. Caller holds wMu.
func (r *deviceRegistry) slabRow(slot int32) []int {
	width := slabCols + r.classes
	lo := int(slot%r.perPage) * width
	return r.slab[slot/r.perPage][lo : lo+width : lo+width]
}

// recordCheckin folds one applied checkin into a device's counters — the
// single accounting shared by the live apply path and journal Replay, so
// the two can never drift (recovery must be bit-exact). Caller holds wMu.
func (r *deviceRegistry) recordCheckin(deviceID string, req *CheckinRequest, staleness int) {
	c := r.counters(deviceID)
	c[colSamples] += req.NumSamples
	c[colErrors] += req.ErrCount
	c[colCheckins]++
	c[colStaleness] += staleness
	for k, n := range req.LabelCounts {
		c[slabCols+k] += n
	}
}

// importStats overwrites a device's counters, creating the device without
// a credential if it is unknown — the ImportState path. Zeros for a device
// that has no counters take no slab row. A device restored this way must
// re-register before it can authenticate. Caller holds wMu;
// stats.LabelCounts has the registry's class count.
func (r *deviceRegistry) importStats(deviceID string, stats DeviceStats) {
	r.mu.Lock()
	defer r.mu.Unlock()
	row := r.rowLocked(deviceID)
	if r.rows[row].slot == noCounters && stats.isZero() {
		return
	}
	c := r.countersOf(row)
	c[colSamples], c[colErrors] = stats.Samples, stats.Errors
	c[colCheckins], c[colStaleness] = stats.Checkins, stats.StalenessSum
	copy(c[slabCols:], stats.LabelCounts)
}

// isZero reports whether every counter of d is zero.
func (d *DeviceStats) isZero() bool {
	if d.Samples != 0 || d.Errors != 0 || d.Checkins != 0 || d.StalenessSum != 0 {
		return false
	}
	for _, n := range d.LabelCounts {
		if n != 0 {
			return false
		}
	}
	return true
}

// exportRows fills rows with every device's counters in increasing ID
// order, carving each row's label counts from slab (capped at their own
// length, so an append on one row reallocates instead of running into its
// neighbour's), and returns both. A device without counters gets zeros.
// rows and slab come in empty; their capacity is reused when it holds the
// whole table, so a warm export allocates nothing. Caller holds wMu.
func (r *deviceRegistry) exportRows(rows []DeviceRow, slab []int) ([]DeviceRow, []int) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	n := len(r.byID)
	if cap(rows) < n {
		rows = make([]DeviceRow, 0, n)
	}
	if cap(slab) < n*r.classes {
		slab = make([]int, 0, n*r.classes)
	}
	for _, row := range r.byID {
		cred := &r.rows[row]
		d := DeviceRow{ID: cred.id}
		lo := len(slab)
		if cred.slot == noCounters {
			slab = slab[:lo+r.classes] // capacity checked above
			clear(slab[lo:])
		} else {
			c := r.slabRow(cred.slot)
			d.Samples, d.Errors = c[colSamples], c[colErrors]
			d.Checkins, d.StalenessSum = c[colCheckins], c[colStaleness]
			slab = append(slab, c[slabCols:]...)
		}
		d.LabelCounts = slab[lo:len(slab):len(slab)]
		rows = append(rows, d)
	}
	return rows, slab
}
