package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"
)

// metricValue is one reported number with its unit.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metricSet map[string]metricValue

func (m metricSet) set(name string, v float64, unit string) { m[name] = metricValue{v, unit} }

// phaseRecord is the run record's account of one phase.
type phaseRecord struct {
	Name      string  `json:"name"`
	Seconds   float64 `json:"seconds"`
	Attempted int     `json:"attempted"`
	Succeeded int     `json:"succeeded"`
	Failed    int     `json:"failed"`
	Abandoned int     `json:"abandoned,omitempty"`
	Cycles    int     `json:"cycles"`
	Checkouts int     `json:"checkouts"`
	FirstErr  string  `json:"firstError,omitempty"`
}

func phaseOf(name string, elapsed time.Duration, r *recorder) phaseRecord {
	p := phaseRecord{
		Name: name, Seconds: elapsed.Seconds(),
		Attempted: r.attempted, Succeeded: r.attempted - r.failed, Failed: r.failed,
		Abandoned: r.abandoned,
		Cycles:    r.cycles, Checkouts: len(r.checkouts),
	}
	if r.firstErr != nil {
		p.FirstErr = r.firstErr.Error()
	}
	return p
}

// workloadResult is everything one workload run produced.
type workloadResult struct {
	Workload string `json:"workload"`
	Traced   bool   `json:"traced"`
	// Correct is the verdict of the output checks; a false one fails
	// the run. Invalid lists reasons the numbers should not be trusted
	// (generator late, paced rate too close to saturation, too few
	// samples behind a percentile) without failing it.
	Correct   bool     `json:"correct"`
	Invalid   []string `json:"invalid,omitempty"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`

	PacedRate  float64 `json:"pacedRatePerS,omitempty"`
	WriterRate float64 `json:"writerRatePerS,omitempty"`

	Metrics metricSet          `json:"metrics"`
	Samples map[string]int     `json:"sampleCounts,omitempty"`
	Phases  []phaseRecord      `json:"phases,omitempty"`
	Checks  []checkRecord      `json:"checks"`
	Scrape  map[string]float64 `json:"scrape,omitempty"`

	// traced runs only
	ReplayCycles int        `json:"replayCycles,omitempty"`
	RequestHash  string     `json:"requestHash,omitempty"`
	SpanCounts   []spanStat `json:"spans,omitempty"`
}

// runConfig is what the flags decide.
type runConfig struct {
	seed    uint64
	seconds float64 // measured time per run: half paced, half saturation
	outDir  string
}

// setups is how many times a run prepares a stack (set-up and warm-up);
// setup_s is the quickest of them.
const setups = 3

// numClients is the number of load-generator goroutines, one connection
// each: one per processor and never more, because they share the box with
// the program under test. (main refuses a one-processor box: follower_reads
// needs a writer and a reader.)
func numClients() int { return max(runtime.NumCPU(), 2) }

func (c runConfig) tmpRoot() string { return filepath.Join(c.outDir, "tmp") }

func (c runConfig) phase() time.Duration {
	return time.Duration(c.seconds / 2 * float64(time.Second))
}

func (c runConfig) warmup() time.Duration {
	return time.Duration(math.Min(1, c.seconds/10) * float64(time.Second))
}

// maxLateP99Us marks a run invalid when the paced generator woke later
// than this for its slots at the 99th percentile: the generator itself was
// starved of a processor, so the schedule it kept is not the frozen one.
const maxLateP99Us = 2000

// maxStealShare marks a run invalid when the hypervisor ran other guests
// for more than this share of the measured phases' processor time: every
// timing in the run then measures the neighbours.
const maxStealShare = 0.10

// hostSteal reads the box's stolen and total processor ticks since boot
// from /proc/stat; zeros where there is no such file.
func hostSteal() (stolen, total uint64) {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	// cpu user nice system idle iowait irq softirq steal guest guest_nice;
	// guest time is inside user time already.
	for i, f := range strings.Fields(line) {
		n, err := strconv.ParseUint(f, 10, 64)
		if i == 0 || i > 8 || err != nil {
			continue
		}
		total += n
		if i == 8 {
			stolen = n
		}
	}
	return stolen, total
}

// rig is a stack with its crowd and client goroutines' connections.
type rig struct {
	st      *stack
	crowd   *crowd
	clients []*client
}

func (r *rig) close() error {
	for _, c := range r.clients {
		c.close()
	}
	return r.st.close()
}

// setUp builds a rig and reports how long that took: generating the
// data, building the stack, enrolling the device pool. A non-nil tc
// puts the tracing wrappers around every client.
func setUp(ctx context.Context, w *workload, cfg runConfig, s seams, tc *traceCtx) (*rig, time.Duration, error) {
	t0 := time.Now()
	st, err := buildStack(ctx, w, cfg.tmpRoot(), s)
	if err != nil {
		return nil, 0, err
	}
	cr, err := newCrowd(ctx, w, cfg.seed, st)
	if err != nil {
		_ = st.close()
		return nil, 0, err
	}
	r := &rig{st: st, crowd: cr}
	for i := 0; i < numClients(); i++ {
		url := st.readURL
		if w.follower && i == 0 {
			url = st.leaderURL // client 0 is the writer
		}
		if tc == nil {
			r.clients = append(r.clients, newClient(url, w.wire, nil))
			continue
		}
		c := newClient(url, w.wire, tc.wrapRoundTripper)
		c.tr = tracedTransport{inner: c.raw, tc: tc}
		r.clients = append(r.clients, c)
	}
	return r, time.Since(t0), nil
}

// plans builds the actors of a phase. On the crowd_* workloads every
// client runs device cycles; on follower_reads client 0 writes at the
// fixed writer rate and the others poll the follower. rate 0 runs the
// primary actors closed-loop.
func (r *rig) plans(rate, writerRate float64) (plans []plan, primary []int) {
	w := r.st.w
	share := func(i, n int) []*device { // device d belongs to actor d mod n
		var out []*device
		for d := i; d < len(r.crowd.devs); d += n {
			out = append(out, r.crowd.devs[d])
		}
		return out
	}
	if !w.follower {
		n := len(r.clients)
		for i, c := range r.clients {
			plans = append(plans, plan{
				a:    &cycleActor{crowd: r.crowd, c: c, devs: share(i, n), churnEvery: w.churnEvery},
				rate: rate / float64(n),
			})
			primary = append(primary, i)
		}
		return plans, primary
	}
	readers := len(r.clients) - 1
	plans = append(plans, plan{
		a:    &cycleActor{crowd: r.crowd, c: r.clients[0], devs: r.crowd.devs, recordAcks: true},
		rate: writerRate,
	})
	for i, c := range r.clients[1:] {
		plans = append(plans, plan{a: &readActor{c: c, devs: share(i, readers)}, rate: rate / float64(readers)})
		primary = append(primary, i+1)
	}
	return plans, primary
}

// warm lets caches fill and lazy set-up finish: connections dialed, the
// follower bootstrapped and every credential vouched once.
func (r *rig) warm(ctx context.Context, dur time.Duration, writerRate float64) phaseRun {
	plans, _ := r.plans(0, writerRate)
	vouch := &recorder{}
	t0 := time.Now()
	if r.st.w.follower {
		// One pass over the pool on the follower: the first checkout of
		// every device costs a credential probe to the leader.
		for _, p := range plans[1:] {
			ra := p.a.(*readActor)
			for range ra.devs {
				ra.step(ctx, time.Time{}, vouch)
			}
		}
	}
	p := runPhase(ctx, plans, dur)
	p.recs = append(p.recs, vouch)
	p.elapsed = time.Since(t0)
	return p
}

// runWorkload measures one workload end to end with tracing off.
func runWorkload(ctx context.Context, w *workload, cfg runConfig) (*workloadResult, error) {
	res := &workloadResult{
		Workload: w.name, Metrics: metricSet{}, Samples: map[string]int{},
		PacedRate: w.pacedRate, WriterRate: w.writerRate,
	}

	// Preparation, several times: build the stack, enrol the pool, warm
	// up. Its time is a metric of its own so that work moved out of the
	// measured phases shows up here. It is wall time on a shared box, where
	// interference only ever adds, so the run reports its quickest one. The
	// last stack is the one measured.
	pacedRate, writerRate := w.pacedRate, w.writerRate
	var stackS, readyS []float64
	var r *rig
	var warm phaseRun
	var warmAttempted, warmFailed int // over every warm-up; their samples are dropped
	for i := 0; i < setups; i++ {
		if r != nil {
			if err := r.close(); err != nil {
				return nil, fmt.Errorf("tear down set-up %d: %w", i, err)
			}
		}
		var took time.Duration
		var err error
		if r, took, err = setUp(ctx, w, cfg, seams{}, nil); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		warm = r.warm(ctx, cfg.warmup(), writerRate)
		wr := warm.all()
		warmAttempted, warmFailed = warmAttempted+wr.attempted, warmFailed+wr.failed
		stackS = append(stackS, took.Seconds())
		readyS = append(readyS, (took + warm.elapsed).Seconds())
	}
	defer r.close() //nolint:errcheck // the success path closes explicitly
	res.Metrics.set("setup_s", slices.Min(readyS), "s")
	res.Metrics.set("stack_setup_s", slices.Min(stackS), "s")
	res.Phases = append(res.Phases, phaseOf("warmup", warm.elapsed, warm.all()))
	runtime.GC()

	// Paced phase: open loop at the frozen rate. Bytes, allocations and
	// the live heap are taken over this phase, where the schedule fixes
	// the operation mix: at saturation the mix on follower_reads (how
	// many reads share one model version) and the size of the generator's
	// own sample buffers follow the box's speed, and these three metrics
	// must not.
	plans, primary := r.plans(pacedRate, writerRate)
	stolen0, ticks0 := hostSteal()
	var before, after runtime.MemStats
	wire := int64(0)
	for _, i := range primary {
		wire -= r.clients[i].conns.total()
	}
	runtime.ReadMemStats(&before)
	paced := runPhase(ctx, plans, cfg.phase())
	runtime.ReadMemStats(&after)
	for _, i := range primary {
		wire += r.clients[i].conns.total()
	}
	allocated := float64(after.TotalAlloc - before.TotalAlloc)
	pacedAll := paced.all()
	res.Phases = append(res.Phases, phaseOf("paced", paced.elapsed, pacedAll))
	runtime.GC()
	runtime.ReadMemStats(&after)

	// Saturation phase: the same clients back to back.
	plans, _ = r.plans(0, writerRate)
	sat := runPhase(ctx, plans, cfg.phase())
	satAll := sat.all()
	res.Phases = append(res.Phases, phaseOf("saturation", sat.elapsed, satAll))
	stolen1, ticks1 := hostSteal()

	// The primary operation is a device cycle (its checkin completes it)
	// or, for follower_reads' readers, a checkout.
	m := res.Metrics
	primaryOps := func(p phaseRun) []float64 { return p.pick(primary).checkins }
	if w.follower {
		primaryOps = func(p phaseRun) []float64 { return p.pick(primary).checkouts }
	}
	opsPerS := float64(len(primaryOps(sat))) / sat.elapsed.Seconds()
	m.set("ops_per_s", opsPerS, "1/s")
	perOp := func(total float64) float64 { return total / float64(max(len(primaryOps(paced)), 1)) }
	m.set("wire_bytes_per_op", perOp(float64(wire)), "B")
	m.set("alloc_bytes_per_op", perOp(allocated), "B")
	m.set("heap_live_mb", float64(after.HeapAlloc)/(1<<20), "MB")

	percentiles := func(prefix string, us []float64) {
		res.Samples[prefix] = len(us)
		m.set(prefix+"_p50_us", quantile(us, 0.50), "us")
		m.set(prefix+"_p99_us", quantile(us, 0.99), "us")
		if len(us) < 1000 {
			res.Invalid = append(res.Invalid, fmt.Sprintf("%s_p99_us rests on %d samples (< 1000)", prefix, len(us)))
		}
	}
	percentiles("checkout", paced.pick(primary).checkouts)
	if w.follower {
		lags := readLagsMs(append(paced.recs[0].acks, sat.recs[0].acks...), append(pacedAll.obs, satAll.obs...))
		res.Samples["read_lag"] = len(lags)
		if len(lags) > 0 { // result.json cannot carry a NaN
			m.set("read_lag_p50_ms", quantile(lags, 0.5), "ms")
		}
	} else {
		percentiles("checkin", paced.pick(primary).checkins)
	}
	m.set("within_limit_share", float64(pacedAll.within)/float64(max(pacedAll.limited, 1)), "share")
	res.Samples["paced_late"] = len(pacedAll.lateUs)
	lateP99 := quantile(pacedAll.lateUs, 0.99)
	m.set("paced_late_p99_us", lateP99, "us")
	m.set("paced_backlog_share", float64(pacedAll.backlogged)/float64(max(pacedAll.backlogged+len(pacedAll.lateUs), 1)), "share")
	if lateP99 > maxLateP99Us {
		res.Invalid = append(res.Invalid, fmt.Sprintf("generator lateness p99 %.0f us > %d us", lateP99, maxLateP99Us))
	}
	if pacedAll.abandoned > 0 {
		res.Invalid = append(res.Invalid, fmt.Sprintf("%d paced slots were abandoned: the box did not keep up with %.0f/s", pacedAll.abandoned, pacedRate))
	}
	if pacedRate > opsPerS/2 {
		res.Invalid = append(res.Invalid, fmt.Sprintf("paced rate %.0f/s exceeds half the saturation rate %.0f/s", pacedRate, opsPerS))
	}

	if ticks1 > ticks0 {
		steal := float64(stolen1-stolen0) / float64(ticks1-ticks0)
		res.Metrics.set("host_steal_share", steal, "share")
		if steal > maxStealShare {
			res.Invalid = append(res.Invalid, fmt.Sprintf("the host gave %.0f %% of the box's processor time to other guests", 100*steal))
		}
	}

	res.Attempted = warmAttempted + pacedAll.attempted + satAll.attempted
	res.Failed = warmFailed + pacedAll.failed + satAll.failed
	m.set("failed_share", float64(res.Failed)/float64(max(res.Attempted, 1)), "share")

	// What the program itself published, read at the end of saturation.
	res.Scrape = r.scrape(ctx)

	res.Checks = r.check(ctx, cfg, res)
	res.Correct = res.Failed == 0
	for _, c := range res.Checks {
		res.Correct = res.Correct && c.OK
	}
	return res, nil
}
