package telemetry

import (
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("requests_total", "Requests.")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("Value() = %d, want 5", got)
	}
	// Same (name, labels) must return the same handle.
	if again := r.Counter("requests_total", "Requests."); again != c {
		t.Fatalf("re-lookup returned a different handle")
	}
	// Different label values are distinct series.
	a := r.Counter("by_task_total", "x", L("task", "a"))
	b := r.Counter("by_task_total", "x", L("task", "b"))
	if a == b {
		t.Fatalf("distinct label values shared a handle")
	}
	a.Inc()
	if b.Value() != 0 {
		t.Fatalf("series b polluted by series a")
	}
}

func TestGaugeBasics(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("lag", "Lag.")
	g.Set(3.5)
	g.Add(-1.25)
	if got := g.Value(); got != 2.25 {
		t.Fatalf("Value() = %v, want 2.25", got)
	}
	g.Set(-7)
	if got := g.Value(); got != -7 {
		t.Fatalf("Value() = %v, want -7", got)
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", "Latency.", []float64{0.1, 1, 10})
	for _, v := range []float64{0.05, 0.1, 0.5, 5, 100} {
		h.Observe(v)
	}
	if got := h.Count(); got != 5 {
		t.Fatalf("Count() = %d, want 5", got)
	}
	if got, want := h.Sum(), 0.05+0.1+0.5+5+100; math.Abs(got-want) > 1e-9 {
		t.Fatalf("Sum() = %v, want %v", got, want)
	}
	// Bucket placement: ≤0.1 gets 0.05 and 0.1; ≤1 adds 0.5; ≤10 adds 5;
	// +Inf adds 100.
	wantCounts := []uint64{2, 1, 1, 1}
	for i, want := range wantCounts {
		if got := h.counts[i].Load(); got != want {
			t.Fatalf("bucket[%d] = %d, want %d", i, got, want)
		}
	}
	// NaN observations are dropped entirely.
	h.Observe(math.NaN())
	if got := h.Count(); got != 5 {
		t.Fatalf("Count() after NaN = %d, want 5", got)
	}
}

func TestHistogramObserveSince(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", "Latency.", DurationBuckets)
	h.ObserveSince(time.Now().Add(-10 * time.Millisecond))
	if h.Count() != 1 {
		t.Fatalf("Count() = %d, want 1", h.Count())
	}
	if h.Sum() < 0.009 || h.Sum() > 5 {
		t.Fatalf("Sum() = %v, want roughly 0.01s", h.Sum())
	}
}

// TestStagesLap: one series per stage under the stage label, each lap
// observing the time since the previous boundary and returning the next;
// an unnamed stage is unbound and takes laps without exposing a series.
func TestStagesLap(t *testing.T) {
	r := NewRegistry()
	st := r.Stages("op_stage_seconds", "Stages.", []string{"first", "", "last"}, L("task", "t"))
	hist := func(stage string) *Histogram {
		return r.Histogram("op_stage_seconds", "Stages.", DurationBuckets, L("task", "t"), L("stage", stage))
	}
	start := time.Now().Add(-10 * time.Millisecond)
	mid := st.Lap(0, start)
	if mid.Sub(start) < 10*time.Millisecond {
		t.Fatalf("Lap returned %v, not the clock after its start", mid)
	}
	end := st.Lap(1, mid) // unbound: nothing recorded
	st.Span(2, mid, end.Add(time.Second))
	if first := hist("first"); first.Count() != 1 || first.Sum() < 0.01 {
		t.Errorf("first: count %d sum %v, want one lap of ≥ 10ms", first.Count(), first.Sum())
	}
	if last := hist("last"); last.Count() != 1 || last.Sum() < 1 {
		t.Errorf("last: count %d sum %v, want one span of ≥ 1s", last.Count(), last.Sum())
	}
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(b.String(), "op_stage_seconds_count{"); got != 2 {
		t.Errorf("%d stage series exposed, want 2 (the unnamed stage is unbound):\n%s", got, b.String())
	}
	if !strings.Contains(b.String(), `op_stage_seconds_count{task="t",stage="first"} 1`) {
		t.Errorf("stage label missing from the exposition:\n%s", b.String())
	}
}

func TestNilRegistryAndHandles(t *testing.T) {
	var r *Registry
	c := r.Counter("x_total", "x")
	g := r.Gauge("x", "x")
	h := r.Histogram("x_seconds", "x", DurationBuckets)
	if c != nil || g != nil || h != nil {
		t.Fatalf("nil registry must hand out nil handles")
	}
	// Every method must be a safe no-op on nil receivers.
	c.Inc()
	c.Add(10)
	_ = c.Value()
	g.Set(1)
	g.Add(1)
	_ = g.Value()
	h.Observe(1)
	h.ObserveSince(time.Now())
	_ = h.Count()
	_ = h.Sum()
	st := r.Stages("x_stage_seconds", "x", []string{"a"})
	if st != nil {
		t.Fatalf("nil registry must hand out nil stages")
	}
	// A disabled timer reads no clock: every reading is the zero Time.
	if !h.Start().IsZero() || !st.Start().IsZero() || !st.Lap(0, time.Now()).IsZero() {
		t.Fatalf("nil handles must not read the clock")
	}
	st.Span(0, time.Now(), time.Now())
	if err := r.WritePrometheus(&failWriter{}); err != nil {
		t.Fatalf("nil registry WritePrometheus: %v", err)
	}
}

type failWriter struct{}

func (failWriter) Write([]byte) (int, error) { return 0, errFail }

var errFail = &writeErr{}

type writeErr struct{}

func (*writeErr) Error() string { return "write failed" }

func TestConflictingRegistrationPanics(t *testing.T) {
	cases := []struct {
		name string
		fn   func(r *Registry)
	}{
		{"kind mismatch", func(r *Registry) {
			r.Counter("m", "x")
			r.Gauge("m", "x")
		}},
		{"label count mismatch", func(r *Registry) {
			r.Counter("m", "x", L("a", "1"))
			r.Counter("m", "x")
		}},
		{"label name mismatch", func(r *Registry) {
			r.Counter("m", "x", L("a", "1"))
			r.Counter("m", "x", L("b", "1"))
		}},
		{"invalid metric name", func(r *Registry) {
			r.Counter("bad name", "x")
		}},
		{"invalid label name", func(r *Registry) {
			r.Counter("m", "x", L("bad-label", "1"))
		}},
		{"empty histogram bounds", func(r *Registry) {
			r.Histogram("h", "x", nil)
		}},
		{"unsorted histogram bounds", func(r *Registry) {
			r.Histogram("h", "x", []float64{2, 1})
		}},
		{"non-finite histogram bound", func(r *Registry) {
			r.Histogram("h", "x", []float64{1, math.Inf(1)})
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatalf("expected panic")
				}
			}()
			tc.fn(NewRegistry())
		})
	}
}

func TestSeriesKeyNoCollision(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("m", "x", L("a", "1"), L("b", "23"))
	b := r.Counter("m", "x", L("a", "12"), L("b", "3"))
	if a == b {
		t.Fatalf("adjacent label values collided in the series key")
	}
}

// TestConcurrentRecording hammers one counter, one gauge, and one
// histogram from many goroutines and checks the totals — run under
// -race in CI this also proves the hot path is data-race-free.
func TestConcurrentRecording(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "x")
	g := r.Gauge("g", "x")
	h := r.Histogram("h", "x", []float64{1, 2, 3})

	const goroutines = 8
	const perG = 2000
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < perG; j++ {
				c.Inc()
				g.Add(1)
				h.Observe(float64(j % 5))
			}
		}()
	}
	wg.Wait()

	if got := c.Value(); got != goroutines*perG {
		t.Fatalf("counter = %d, want %d", got, goroutines*perG)
	}
	if got := g.Value(); got != goroutines*perG {
		t.Fatalf("gauge = %v, want %d", got, goroutines*perG)
	}
	if got := h.Count(); got != goroutines*perG {
		t.Fatalf("histogram count = %d, want %d", got, goroutines*perG)
	}
	wantSum := float64(goroutines) * perG / 5 * (0 + 1 + 2 + 3 + 4)
	if got := h.Sum(); math.Abs(got-wantSum) > 1e-6 {
		t.Fatalf("histogram sum = %v, want %v", got, wantSum)
	}
}
