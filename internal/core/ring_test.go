package core

import (
	"fmt"
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/crowdml/crowdml/internal/telemetry"
)

// spelled publishes a 4-parameter snapshot every coordinate of which is
// version, so a reader can tell which version's content it was served.
func spelled(r *SnapshotRing, version int) {
	_ = r.Publish(version, 4, func(dst []float64) error {
		for i := range dst {
			dst[i] = float64(version)
		}
		return nil
	})
}

// ringWithMetrics returns a DefaultDeltaHistory ring counting into a
// fresh registry, and that bundle.
func ringWithMetrics() (*SnapshotRing, *RingMetrics) {
	m := NewRingMetrics(telemetry.NewRegistry(), "t")
	return NewSnapshotRing(0, m), m
}

// release releases a delta the caller does not read.
func release(d ParamDelta) { d.Release() }

// held reports how many vectors the ring retains, the current one
// included.
func (r *SnapshotRing) held() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.entries)
}

// TestRingKeepsWhatClientsAsk: a client that names a base d publications
// back at least once every DefaultDeltaHistory publications gets a delta
// on every ask once the first window has closed, and the ring ends up
// holding exactly the d+1 vectors that takes. Depth 0 is a client that
// is always current: the ring keeps the current snapshot alone.
func TestRingKeepsWhatClientsAsk(t *testing.T) {
	const windows = 5
	for depth := 0; depth < DefaultDeltaHistory; depth++ {
		for _, every := range []int{1, 7, DefaultDeltaHistory} {
			t.Run(fmt.Sprintf("depth=%d/every=%d", depth, every), func(t *testing.T) {
				r, m := ringWithMetrics()
				for v := 0; v < DefaultDeltaHistory; v++ {
					spelled(r, v)
				}
				for v := DefaultDeltaHistory; v < (windows+1)*DefaultDeltaHistory; v++ {
					spelled(r, v)
					if v%every != 0 {
						continue
					}
					d := r.Delta(v-depth, false)
					hit := d.Since == v-depth && (depth == 0) == (d.Base == nil) &&
						(d.Base == nil || spells(d.Base, v-depth))
					d.Release()
					if !hit && v >= 2*DefaultDeltaHistory {
						t.Fatalf("ask at version %d for base %d: since=%d, want a delta", v, v-depth, d.Since)
					}
				}
				if n := r.held(); n != depth+1 {
					t.Errorf("ring holds %d vectors, want %d", n, depth+1)
				}
				if g := m.bases.Value(); g != float64(depth) {
					t.Errorf("crowdml_delta_ring_bases reads %v, want %d", g, depth)
				}
				if n := m.unkept.Value(); n != 0 {
					t.Errorf("%d asks missed a dropped base, want none", n)
				}
			})
		}
	}
}

// TestRingUnaskedKeepsHistory: a ring nobody names a base to — the JSON
// wire, a shard member — never learns to keep less, so it holds the
// full history, as a fixed-depth ring did.
func TestRingUnaskedKeepsHistory(t *testing.T) {
	r, m := ringWithMetrics()
	for v := 0; v < 10*DefaultDeltaHistory; v++ {
		spelled(r, v)
		if v%3 == 0 {
			release(r.Delta(-1, false)) // a full checkout names no base
			view := r.View()
			view.Release()
		}
	}
	if n := r.held(); n != DefaultDeltaHistory {
		t.Errorf("an unasked ring holds %d vectors, want %d", n, DefaultDeltaHistory)
	}
	if g := m.bases.Value(); g != DefaultDeltaHistory-1 {
		t.Errorf("crowdml_delta_ring_bases reads %v, want %d", g, DefaultDeltaHistory-1)
	}
}

// TestRingGrowsOnUnkeptMiss: after a window of depth-1 asks the ring
// keeps one base. An ask five publications back then misses — one count
// on crowdml_checkout_delta_unkept_total, a full fallback — and the ring
// grows back to that depth at once, so the same ask once it has
// published five more times is a hit. A base older than the history, or
// one never published, is a plain fallback and counts nowhere.
func TestRingGrowsOnUnkeptMiss(t *testing.T) {
	r, m := ringWithMetrics()
	v := 0
	for ; v < 2*DefaultDeltaHistory; v++ {
		spelled(r, v)
		release(r.Delta(v-1, false))
	}
	v--
	if n := r.held(); n != 2 {
		t.Fatalf("after a window of depth-1 asks the ring holds %d vectors, want 2", n)
	}
	before := m.outcomes[deltaFullFallback].Value()
	if d := r.Delta(v-5, false); d.Since != -1 {
		t.Fatalf("base 5 back served (since=%d) by a ring keeping 1", d.Since)
	}
	if n, f := m.unkept.Value(), m.outcomes[deltaFullFallback].Value()-before; n != 1 || f != 1 {
		t.Fatalf("the miss counted %d unkept and %d full fallbacks, want 1 and 1", n, f)
	}
	for i := 0; i < 5; i++ {
		v++
		spelled(r, v)
	}
	d := r.Delta(v-5, false)
	if d.Since != v-5 || !spells(d.Base, v-5) {
		t.Fatalf("the repeat ask 5 back: since=%d, want a delta from %d", d.Since, v-5)
	}
	d.Release()
	for _, since := range []int{v - DefaultDeltaHistory, v - 100} {
		release(r.Delta(since, false))
	}
	if n := m.unkept.Value(); n != 1 {
		t.Errorf("bases past the history counted as unkept: %d, want 1", n)
	}
}

// TestRingDepthCountsPublications: every publication jumps the version
// by 3, as a batch of three checkins does. A client two publications
// behind is six versions behind, and the ring keeps the three vectors
// that takes, not seven.
func TestRingDepthCountsPublications(t *testing.T) {
	const jump, depth = 3, 2
	r, m := ringWithMetrics()
	for p := 0; p < 4*DefaultDeltaHistory; p++ {
		v := jump * p
		spelled(r, v)
		if p < depth {
			continue
		}
		d := r.Delta(v-jump*depth, false)
		if p >= 2*DefaultDeltaHistory && (d.Since != v-jump*depth || !spells(d.Base, d.Since)) {
			t.Fatalf("publication %d: ask for version %d got since=%d", p, v-jump*depth, d.Since)
		}
		d.Release()
	}
	if n := r.held(); n != depth+1 {
		t.Errorf("ring holds %d vectors, want %d", n, depth+1)
	}
	if n := m.unkept.Value(); n != 0 {
		t.Errorf("%d asks missed a dropped base, want none", n)
	}
}

// TestRingCurrentPollTakesNoLock: the hot case — a client that is
// current — pins and counts without the ring's mutex, so it completes
// while another goroutine holds it, and allocates nothing.
func TestRingCurrentPollTakesNoLock(t *testing.T) {
	r, _ := ringWithMetrics()
	for v := 0; v < 3; v++ {
		spelled(r, v)
	}
	r.mu.Lock()
	done := make(chan ParamDelta)
	go func() { done <- r.Delta(2, false) }()
	select {
	case d := <-done:
		if d.Since != 2 || d.Base != nil {
			t.Errorf("current poll: since=%d, base %v, want the empty delta", d.Since, d.Base)
		}
		r.mu.Unlock()
		d.Release()
	case <-time.After(10 * time.Second):
		r.mu.Unlock()
		<-done
		t.Fatal("a current poll waited on the ring's mutex")
	}
	if n := testing.AllocsPerRun(100, func() { release(r.Delta(2, false)) }); n != 0 {
		t.Errorf("a current poll allocates %v times, want 0", n)
	}
}

// TestRingConcurrentMixedDepths races publishers (serialized by their
// own lock, as a Server's batch or a Group's merge is) that jump the
// version by one to three against readers asking at depths 0 to 6 of
// the versions they were served. Every delta's Params and Base read as
// their versions' content while held, and once everyone is done each
// retained snapshot holds the ring's pin alone and the gauge agrees
// with what the ring holds.
func TestRingConcurrentMixedDepths(t *testing.T) {
	r, m := ringWithMetrics()
	spelled(r, 0)
	const publishers, readers, publications = 3, 6, 600
	var pubMu sync.Mutex
	var next, published atomic.Int64
	var writers, wg sync.WaitGroup
	for p := 0; p < publishers; p++ {
		writers.Add(1)
		go func(seed uint64) {
			defer writers.Done()
			rng := rand.New(rand.NewPCG(seed, 1))
			for published.Add(1) <= publications {
				pubMu.Lock()
				spelled(r, int(next.Add(int64(1+rng.IntN(3)))))
				pubMu.Unlock()
				r.scribbleFree(-1)
			}
		}(uint64(p))
	}
	var stop atomic.Bool
	for k := 0; k < readers; k++ {
		wg.Add(1)
		go func(depth int) {
			defer wg.Done()
			seen := []int{0}
			for !stop.Load() {
				since := seen[max(len(seen)-1-depth, 0)]
				d := r.Delta(since, false)
				if !spells(d.Params, d.Version) || (d.Base != nil && !spells(d.Base, d.Since)) ||
					(d.Since >= 0 && d.Since != since) {
					t.Errorf("asked %d: served version %d reading %v, base %d reading %v", since, d.Version, d.Params, d.Since, d.Base)
					d.Release()
					return
				}
				if seen[len(seen)-1] != d.Version {
					seen = append(seen, d.Version)
				}
				d.Release()
			}
		}(k)
	}
	writers.Wait()
	stop.Store(true)
	wg.Wait()
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, e := range r.entries {
		if p := e.pins.Load(); p != 1 {
			t.Errorf("retained version %d has %d pins after every reader released, want the ring's one", e.version, p)
		}
	}
	for _, s := range r.free {
		if p := s.pins.Load(); p != 0 {
			t.Errorf("a free-listed snapshot has %d pins", p)
		}
	}
	if g := m.bases.Value(); g != float64(len(r.entries)-1) {
		t.Errorf("crowdml_delta_ring_bases reads %v, the ring holds %d bases", g, len(r.entries)-1)
	}
}
