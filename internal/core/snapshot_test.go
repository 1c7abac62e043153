package core

import (
	"fmt"
	"io"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/crowdml/crowdml/internal/model"
	"github.com/crowdml/crowdml/internal/optimizer"
	"github.com/crowdml/crowdml/internal/telemetry"
)

// countingServer returns a server whose parameters spell its iteration:
// constant step 1 against a gradient of −1 everywhere makes every
// coordinate of the snapshot at version v exactly v, so a reader can tell
// a torn or recycled vector from a consistent one without a reference
// copy. The returned request is that gradient.
func countingServer(t testing.TB, classes, dim int, m *ServerMetrics) (*Server, string, *CheckinRequest) {
	t.Helper()
	s, err := NewServer(ServerConfig{
		Model:   model.NewLogisticRegression(classes, dim),
		Updater: &optimizer.SGD{Schedule: optimizer.Constant{C: 1}},
		Metrics: m,
	})
	if err != nil {
		t.Fatal(err)
	}
	token, err := s.RegisterDevice(ctx, "d")
	if err != nil {
		t.Fatal(err)
	}
	req := &CheckinRequest{Grad: make([]float64, classes*dim), NumSamples: 1, LabelCounts: make([]int, classes)}
	for i := range req.Grad {
		req.Grad[i] = -1
	}
	return s, token, req
}

// spells reports whether every coordinate of params is v.
func spells(params []float64, v int) bool {
	for _, x := range params {
		if x != float64(v) {
			return false
		}
	}
	return len(params) > 0
}

// bytesPerRun is testing.AllocsPerRun for bytes: the mean heap bytes one
// call of f allocates, after one warm-up call, on one P.
func bytesPerRun(runs int, f func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}

// TestPublishAllocatesNothingInSteadyState: once the ring is full, a
// publication is a copy into a retired vector. What a checkin and a
// replayed record still allocate (the pending item, a matrix header) does
// not grow with the model — at the parent every one of them allocated a
// vector: 4 KB at 10×50, 160 KB at 20,000 parameters.
func TestPublishAllocatesNothingInSteadyState(t *testing.T) {
	const runs, limit = 200, 512
	for _, shape := range [][2]int{{10, 50}, {10, 2000}} {
		classes, dim := shape[0], shape[1]
		t.Run(fmt.Sprintf("checkin/%dx%d", classes, dim), func(t *testing.T) {
			s, token, req := countingServer(t, classes, dim, nil)
			checkin := func() {
				if err := s.Checkin(ctx, "d", token, req); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < DefaultDeltaHistory+maxSpareSnapshots; i++ {
				checkin()
			}
			if b := bytesPerRun(runs, checkin); b >= limit {
				t.Errorf("a checkin allocates %.0f B at %d parameters, want < %d", b, classes*dim, limit)
			}
			if v := s.ParamView(); !spells(v.Params, s.Iteration()) {
				t.Errorf("snapshot at iteration %d does not hold it: %v…", s.Iteration(), v.Params[:3])
			}
		})
		t.Run(fmt.Sprintf("replay/%dx%d", classes, dim), func(t *testing.T) {
			s, _, req := countingServer(t, classes, dim, nil)
			// One record per Replay call, so every call publishes once.
			rec, pending := ReplayRecord{DeviceID: "d", Req: req}, false
			next := func() (ReplayRecord, error) {
				if !pending {
					return ReplayRecord{}, io.EOF
				}
				pending = false
				return rec, nil
			}
			replay := func() {
				rec.Iteration, pending = s.Iteration()+1, true
				if n, err := s.Replay(next); n != 1 || err != nil {
					t.Fatalf("Replay applied %d: %v", n, err)
				}
			}
			for i := 0; i < DefaultDeltaHistory+maxSpareSnapshots; i++ {
				replay()
			}
			if b := bytesPerRun(runs, replay); b >= limit {
				t.Errorf("a replayed record allocates %.0f B at %d parameters, want < %d", b, classes*dim, limit)
			}
			if v := s.ParamView(); !spells(v.Params, s.Iteration()) {
				t.Errorf("snapshot at iteration %d does not hold it: %v…", s.Iteration(), v.Params[:3])
			}
		})
	}
}

// TestPinnedSnapshotsAreImmutable: what a reader has pinned does not
// change until it lets go, however many publications go by — while every
// vector the ring believes retired is overwritten with +Inf before it is
// refilled, so a reader the ring lost track of would see that (and the
// race detector would see the reader). At history=1 the readers name the
// current version, so once a window closes the ring holds the current
// snapshot alone; at history=16 they name the one before it, from a ring
// that starts out holding DefaultDeltaHistory. Each reader holds its pin
// for 2·history+2 publications.
func TestPinnedSnapshotsAreImmutable(t *testing.T) {
	for _, history := range []int{1, DefaultDeltaHistory} {
		t.Run(fmt.Sprintf("history=%d", history), func(t *testing.T) {
			s, token, req := countingServer(t, 4, 64, nil)
			back := min(history-1, 1) // how far behind current the readers' base is
			const readers, rounds = 8, 20
			var done atomic.Bool
			var wg, writer sync.WaitGroup
			writer.Add(1)
			go func() {
				defer writer.Done()
				for !done.Load() {
					if err := s.Checkin(ctx, "d", token, req); err != nil {
						t.Error(err)
						return
					}
					s.ring.scribbleFree(math.Inf(1))
					runtime.Gosched()
				}
			}()
			for r := 0; r < readers; r++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for round := 0; round < rounds; round++ {
						d, err := s.CheckoutDelta(ctx, "d", token, max(s.SnapshotVersion()-back, 0))
						if err != nil {
							t.Error(err)
							return
						}
						check := func(when string) bool {
							if !spells(d.Params, d.Version) {
								t.Errorf("%s: snapshot of version %d reads %v…", when, d.Version, d.Params[:3])
								return false
							}
							if d.Base != nil && !spells(d.Base, d.Since) {
								t.Errorf("%s: base of version %d reads %v…", when, d.Since, d.Base[:3])
								return false
							}
							return true
						}
						if !check("when pinned") {
							return
						}
						for held := d.Version + 2*history + 2; s.SnapshotVersion() < held; {
							runtime.Gosched()
						}
						ok := check("after the ring moved on")
						d.Release()
						if !ok {
							return
						}
					}
				}()
			}
			wg.Wait()
			done.Store(true)
			writer.Wait()
		})
	}
}

// TestMissedReleaseCostsOneAllocation: the safety rule is one-sided. A
// caller that never releases (the benchmark's ladder drops its deltas and
// views) reads correct parameters forever and costs the publisher one
// allocation per snapshot it kept; a caller that releases twice is
// harmless; and a caller that releases once lets the ring recycle.
func TestMissedReleaseCostsOneAllocation(t *testing.T) {
	const n = 50
	m := NewServerMetrics(telemetry.NewRegistry(), "t")
	s, token, req := countingServer(t, 3, 8, m)
	checkin := func() {
		t.Helper()
		if err := s.Checkin(ctx, "d", token, req); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < DefaultDeltaHistory+maxSpareSnapshots; i++ {
		checkin()
	}

	kept := make([]ParamDelta, 0, DefaultDeltaHistory+n)
	keep := func() {
		kept = append(kept, s.ParamDelta(-1)) // never released
		checkin()
	}
	// First every snapshot the ring retains is pinned by a kept read.
	for i := 0; i < DefaultDeltaHistory; i++ {
		keep()
	}
	allocated := m.ring.allocated.Value()
	for i := 0; i < n; i++ {
		keep()
	}
	// The snapshot each kept delta pinned never retires, so the one each
	// checkin evicts is never recycled: one allocation per checkin once
	// the spares are used up, none of them more than one.
	if got := m.ring.allocated.Value() - allocated; got < n-maxSpareSnapshots || got > n {
		t.Errorf("%d unreleased reads cost %d allocations, want one each (less the %d spares)", n, got, maxSpareSnapshots)
	}
	for i, d := range kept {
		if !spells(d.Params, d.Version) {
			t.Fatalf("unreleased read %d of version %d was overwritten: %v…", i, d.Version, d.Params[:3])
		}
	}

	// Released reads — twice each, the second a no-op — allocate nothing.
	for i := 0; i < DefaultDeltaHistory+maxSpareSnapshots; i++ {
		checkin()
	}
	allocated = m.ring.allocated.Value()
	for i := 0; i < n; i++ {
		d, v := s.ParamDelta(s.SnapshotVersion()-1), s.ParamView()
		if d.Base == nil || !spells(d.Base, d.Since) || !spells(v.Params, v.Version) {
			t.Fatalf("read %d: base %v (since %d), view %v", i, d.Base, d.Since, v.Params)
		}
		checkin()
		d.Release()
		d.Release()
		v.Release()
		v.Release()
		if d.Params != nil || d.Base != nil || v.Params != nil {
			t.Fatal("a released read still offers its vectors")
		}
	}
	if got := m.ring.allocated.Value() - allocated; got != 0 {
		t.Errorf("%d released reads cost %d allocations, want 0", n, got)
	}
	s.ring.mu.Lock()
	for _, e := range s.ring.entries {
		if p := e.pins.Load(); p != 1 {
			t.Errorf("retained version %d has %d pins after every reader released twice, want the ring's one", e.version, p)
		}
	}
	s.ring.mu.Unlock()
}

// TestStalePointerPinsAConsistentSnapshot parks a reader between loading
// the current pointer and pinning it. After `history` publications the
// snapshot it loaded is retired and the pin must refuse it and reload;
// after history+2 it has been refilled and republished, and the pin lands
// on that newer snapshot. Either way the reader comes back with a vector
// that spells its version, at or past the version it loaded.
func TestStalePointerPinsAConsistentSnapshot(t *testing.T) {
	const history, loaded = DefaultDeltaHistory, 5
	for name, publishes := range map[string]int{"retired": history, "republished": history + 2} {
		t.Run(name, func(t *testing.T) {
			r := NewSnapshotRing(nil)
			publish := func(v int) {
				_ = r.Publish(v, 4, func(dst []float64) error {
					for i := range dst {
						dst[i] = float64(v)
					}
					return nil
				})
			}
			for v := 0; v <= loaded; v++ {
				publish(v)
			}
			parked, resume := make(chan struct{}), make(chan struct{})
			var once sync.Once
			r.beforePin = func() {
				once.Do(func() {
					close(parked)
					<-resume
				})
			}
			got := make(chan ParamView)
			go func() { got <- r.View() }()
			<-parked
			stale := r.cur.Load()
			for v := loaded + 1; v <= loaded+publishes; v++ {
				publish(v)
				r.scribbleFree(math.Inf(1))
			}
			close(resume)
			v := <-got
			if v.Version < loaded || !spells(v.Params, v.Version) {
				t.Fatalf("parked at version %d, came back with version %d reading %v", loaded, v.Version, v.Params)
			}
			switch name {
			case "retired":
				if v.Version != loaded+publishes {
					t.Errorf("reloaded version %d, want the current %d", v.Version, loaded+publishes)
				}
			case "republished":
				// The free list is a stack under a mutex, so which vector is
				// refilled when is fixed: the loaded one came back as version
				// loaded+history+1, and is by now a retained base.
				if v.pin != stale || v.Version != loaded+history+1 {
					t.Errorf("pinned version %d (the loaded snapshot: %v), want the loaded snapshot republished as %d",
						v.Version, v.pin == stale, loaded+history+1)
				}
			}
			v.Release()
		})
	}
}
