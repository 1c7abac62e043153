package core

import (
	"context"
	"math"
	"testing"
)

// checkinN applies n distinct checkins and forces snapshot publication
// after each (ParamDelta needs every intermediate version in the ring,
// which lazy publication provides on the next read).
func checkinN(t *testing.T, s *Server, id, token string, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		req := validCheckin(s.Iteration())
		req.Grad[i%len(req.Grad)] = 1
		if err := s.Checkin(ctx, id, token, req); err != nil {
			t.Fatalf("checkin %d: %v", i, err)
		}
		s.ParamView() // publish
	}
}

func TestParamDeltaEmptyWhenCurrent(t *testing.T) {
	s := newTestServer(t, ServerConfig{})
	token := register(t, s, "d1")
	checkinN(t, s, "d1", token, 3)

	cur := s.SnapshotVersion()
	d := s.ParamDelta(cur)
	if d.Since != cur || d.Version != cur {
		t.Fatalf("want empty delta at %d, got since=%d version=%d", cur, d.Since, d.Version)
	}
	if d.Base != nil {
		t.Fatal("current base offered a diff: an up-to-date poll must cost no pass over the model")
	}
	if d.Params == nil {
		t.Fatal("Params fallback missing")
	}
}

func TestParamDeltaRingHit(t *testing.T) {
	s := newTestServer(t, ServerConfig{})
	token := register(t, s, "d1")

	base := s.ParamView() // version 0
	checkinN(t, s, "d1", token, 2)

	d := s.ParamDelta(base.Version)
	if d.Since != base.Version {
		t.Fatalf("ring miss for version %d (since=%d)", base.Version, d.Since)
	}
	if &d.Base[0] != &base.Params[0] {
		t.Fatal("Base is not the retained snapshot itself: the ring copied")
	}
	idx, vals := DiffParamsInto(nil, nil, d.Base, d.Params)
	if len(idx) == 0 {
		t.Fatal("two applied checkins produced no changed coordinates")
	}
	// Applying the delta to the base must reproduce the current snapshot
	// bit for bit.
	got := append([]float64(nil), base.Params...)
	for i, k := range idx {
		got[k] = vals[i]
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(d.Params[i]) {
			t.Fatalf("coordinate %d: applied %v, snapshot %v", i, got[i], d.Params[i])
		}
	}
}

func TestParamDeltaFallbacks(t *testing.T) {
	s := newTestServer(t, ServerConfig{})
	token := register(t, s, "d1")
	checkinN(t, s, "d1", token, DefaultDeltaHistory+3)

	cur := s.SnapshotVersion()
	for name, since := range map[string]int{
		"ahead of the counter": cur + 10,
		"negative":             -1,
		"older than the ring":  0, // DefaultDeltaHistory+3 versions evicted it
	} {
		d := s.ParamDelta(since)
		if d.Since != -1 {
			t.Errorf("%s (since=%d): want full fallback, got delta since=%d", name, since, d.Since)
		}
		if d.Version != cur || len(d.Params) == 0 {
			t.Errorf("%s: fallback lost the full frame (version=%d)", name, d.Version)
		}
	}
}

// The five below exercise SnapshotRing itself — the one ring a Server
// and a shard.Group both publish through — so each rule is pinned once.

// vec returns a distinguishable one-coordinate snapshot.
func vec(v float64) []float64 { return []float64{v, 0} }

// record publishes a copy of params at version.
func record(r *SnapshotRing, version int, params []float64) { r.PublishCopy(version, params) }

func TestSnapshotRingSameVersionReplacesTail(t *testing.T) {
	r := NewSnapshotRing(nil)
	record(r, 1, vec(1))
	record(r, 2, vec(2))
	record(r, 2, vec(-2)) // told apart from the first only for the test
	if n := len(r.entries); n != 2 {
		t.Fatalf("re-publishing version 2 left %d entries, want 2", n)
	}
	record(r, 3, vec(3))
	if d := r.Delta(2, false); d.Since != 2 || d.Base[0] != -2 {
		t.Fatalf("base of version 2 is not the re-published vector (since=%d)", d.Since)
	}
	if d := r.Delta(1, false); d.Since != 1 {
		t.Fatal("the swap disturbed the entry before the tail")
	}
}

func TestSnapshotRingEvictsAtHistory(t *testing.T) {
	const last = DefaultDeltaHistory + 8
	r := NewSnapshotRing(nil)
	for v := 0; v <= last; v++ {
		record(r, v, vec(float64(v)))
	}
	if n := len(r.entries); n != DefaultDeltaHistory {
		t.Fatalf("ring holds %d entries, want %d", n, DefaultDeltaHistory)
	}
	oldest := last - DefaultDeltaHistory + 1
	for since, want := range map[int]int{oldest - 1: -1, oldest: oldest, last - 1: last - 1} {
		d := r.Delta(since, false)
		if d.Since != want || d.Version != last || d.Params[0] != last {
			t.Errorf("since=%d: served since=%d of version %d, want %d of %d", since, d.Since, d.Version, want, last)
		}
		if want >= 0 && d.Base[0] != float64(since) {
			t.Errorf("since=%d: base is version %v's snapshot", since, d.Base[0])
		}
	}
}

func TestSnapshotRingFallbacks(t *testing.T) {
	r := NewSnapshotRing(nil)
	record(r, 3, vec(3))
	record(r, 5, vec(5))
	record(r, 6, vec(6))
	for name, since := range map[string]int{
		"negative": -1, "ahead": 7, "before the ring": 2, "in a gap": 4,
	} {
		if d := r.Delta(since, true); d.Since != -1 || d.Base != nil || !d.Done || d.Version != 6 || d.Params[0] != 6 {
			t.Errorf("%s (since=%d): %+v, want the full fallback", name, since, d)
		}
	}
	if d := r.Delta(6, false); d.Since != 6 || d.Base != nil {
		t.Errorf("current caller: %+v, want the empty delta", d)
	}
	r.Reset()
	if d := r.Delta(5, false); d.Since != -1 {
		t.Error("a base survived Reset")
	}
	if d := r.Delta(6, false); d.Since != 6 || d.Params[0] != 6 {
		t.Errorf("Reset took the current snapshot with it: %+v", d)
	}
	record(r, 7, []float64{7})
	if d := r.Delta(6, false); d.Since != -1 {
		t.Error("a base of another length was offered for a diff")
	}
}

// TestSnapshotRingRewindDropsBases: a shard group's merged iteration is
// the sum of its members' and moves backwards when one restores older
// state; the version numbers it then re-issues must not find the bases
// recorded under them before.
func TestSnapshotRingRewindDropsBases(t *testing.T) {
	r := NewSnapshotRing(nil)
	for v := 1; v <= 5; v++ {
		record(r, v, vec(float64(v)))
	}
	for v := 3; v <= 6; v++ { // rewound to 3
		record(r, v, vec(float64(-v)))
	}
	for since := 1; since <= 5; since++ {
		d := r.Delta(since, false)
		if d.Since >= 0 && d.Base[0] > 0 {
			t.Errorf("since=%d served the pre-rewind snapshot %v", since, d.Base[0])
		}
		if want := since >= 3; (d.Since >= 0) != want {
			t.Errorf("since=%d: served=%v, want %v", since, d.Since >= 0, want)
		}
	}
}

// TestSnapshotRingDropsLeaveNothingReachable: eviction, the same-version
// swap, a rewind and Reset all clear the slots they vacate — a dropped
// vector held on by the backing array could be neither collected nor
// recycled — and give the ring's pin back, so with no reader every
// dropped snapshot is retired.
func TestSnapshotRingDropsLeaveNothingReachable(t *testing.T) {
	r := NewSnapshotRing(nil)
	check := func(after string) {
		t.Helper()
		for i, s := range r.entries[:cap(r.entries)] {
			switch {
			case i >= len(r.entries) && s != nil:
				t.Errorf("after %s: slot %d past the ring's length still holds version %d", after, i, s.version)
			case i < len(r.entries) && s.pins.Load() != 1:
				t.Errorf("after %s: retained version %d has %d pins, want the ring's one", after, s.version, s.pins.Load())
			}
		}
		for _, s := range r.free {
			if s.pins.Load() != 0 {
				t.Errorf("after %s: free-listed snapshot has %d pins", after, s.pins.Load())
			}
		}
	}
	const last = DefaultDeltaHistory + 2
	for v := 1; v <= last; v++ {
		record(r, v, vec(float64(v)))
	}
	check("eviction")
	record(r, last, vec(last))
	check("a same-version swap")
	record(r, 2, vec(2))
	check("a rewind")
	if len(r.entries) != 1 || len(r.free) != maxSpareSnapshots {
		t.Fatalf("rewind left %d entries and %d spares, want 1 and %d", len(r.entries), len(r.free), maxSpareSnapshots)
	}
	for v := 3; v <= 5; v++ {
		record(r, v, vec(float64(v)))
	}
	r.Reset()
	check("Reset")
	if len(r.entries) != 1 || r.entries[0].version != 5 {
		t.Fatalf("Reset kept %d entries, want only the current snapshot", len(r.entries))
	}
}

func TestImportStateInvalidatesRing(t *testing.T) {
	s := newTestServer(t, ServerConfig{})
	token := register(t, s, "d1")
	checkinN(t, s, "d1", token, 3)
	base := s.SnapshotVersion() - 1

	if d := s.ParamDelta(base); d.Since != base {
		t.Fatalf("precondition: base %d not in ring", base)
	}
	st := s.ExportState()
	if err := s.ImportState(st); err != nil {
		t.Fatalf("ImportState: %v", err)
	}
	// Post-restore the ring holds only the re-published current
	// snapshot; the older base must fall back to a full frame.
	if d := s.ParamDelta(base); d.Since != -1 {
		t.Fatalf("stale base %d survived a state import (since=%d)", base, d.Since)
	}
	if d := s.ParamDelta(s.SnapshotVersion()); d.Since == -1 {
		t.Fatal("current-version empty delta unavailable after import")
	}
}

func TestCheckoutDeltaAuth(t *testing.T) {
	s := newTestServer(t, ServerConfig{})
	token := register(t, s, "d1")

	if _, err := s.CheckoutDelta(ctx, "d1", "wrong", 0); err != ErrAuth {
		t.Fatalf("want ErrAuth, got %v", err)
	}
	d, err := s.CheckoutDelta(ctx, "d1", token, -1)
	if err != nil {
		t.Fatalf("CheckoutDelta: %v", err)
	}
	if d.Since != -1 || d.Version != 0 {
		t.Fatalf("unexpected delta %+v", d)
	}
	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := s.CheckoutDelta(cancelled, "d1", token, -1); err == nil {
		t.Fatal("cancelled context accepted")
	}
}

// TestCheckoutDeltaAllocatesNothing: a delta is a value, so a known
// device's checkout allocates nothing, whether it asks for the full
// vector, is current or is behind.
func TestCheckoutDeltaAllocatesNothing(t *testing.T) {
	s := newTestServer(t, ServerConfig{})
	token := register(t, s, "d1")
	checkinN(t, s, "d1", token, 3)
	cur := s.SnapshotVersion()
	for _, since := range []int{-1, cur, cur - 2} {
		var d ParamDelta
		allocs := testing.AllocsPerRun(100, func() {
			var err error
			if d, err = s.CheckoutDelta(ctx, "d1", token, since); err != nil {
				t.Fatal(err)
			}
			d.Release()
		})
		if allocs != 0 {
			t.Errorf("CheckoutDelta(since %d) allocates %v times per call, want 0", since, allocs)
		}
		if since == cur-2 && d.Since != since {
			t.Errorf("since %d: the base was not served (Since %d)", since, d.Since)
		}
	}
}

// DiffParamsInto is the change set a ParamDelta stands for, as tests
// spell it out (the wire layer encodes straight from Base and Params):
// it appends the sparse change set between two equal-length vectors to idx and vals — the coordinates whose bit patterns differ
// and cur's values there — and returns the extended slices; pass
// recycled slices resliced to [:0] and a diff allocates nothing once
// they have grown. Bit comparison (not ==) so that ±0 transitions and
// NaN payloads survive the trip and applying the delta to base
// reproduces cur exactly.
func DiffParamsInto(idx []uint32, vals []float64, base, cur []float64) ([]uint32, []float64) {
	for i, v := range cur {
		if math.Float64bits(v) != math.Float64bits(base[i]) {
			idx = append(idx, uint32(i))
			vals = append(vals, v)
		}
	}
	return idx, vals
}

func TestDiffParamsInto(t *testing.T) {
	nan1, nan2 := math.Float64frombits(0x7ff8000000000001), math.Float64frombits(0x7ff8000000000002)
	base := []float64{1, 2, 3, 0, nan1, nan1}
	cur := []float64{1, 5, 3, math.Copysign(0, -1), nan2, nan1}
	idx, vals := DiffParamsInto(nil, nil, base, cur)
	if len(idx) != 3 || idx[0] != 1 || idx[1] != 3 || idx[2] != 4 {
		t.Fatalf("indices %v", idx)
	}
	if vals[0] != 5 || math.Float64bits(vals[1]) != math.Float64bits(math.Copysign(0, -1)) ||
		math.Float64bits(vals[2]) != math.Float64bits(nan2) {
		t.Fatalf("values %v (−0 and NaN payloads must survive bitwise)", vals)
	}
	if idx, _ := DiffParamsInto(idx[:0], vals[:0], cur, cur); len(idx) != 0 {
		t.Fatal("identical vectors produced changes")
	}
	if n := testing.AllocsPerRun(20, func() { idx, vals = DiffParamsInto(idx[:0], vals[:0], base, cur) }); n != 0 {
		t.Fatalf("a diff into grown scratch allocated %v times", n)
	}
}
