package main

import (
	"context"
	"math"
	"sort"
	"sync"
	"time"
)

// ack is one acknowledged checkin of follower_reads' writer: when the
// ack arrived and the leader iteration it produced.
type ack struct {
	at        time.Time
	iteration int
}

// observation is one follower checkout: when it returned and the model
// version it carried.
type observation struct {
	at      time.Time
	version int
}

// recorder collects one actor's samples for one phase. Each actor owns
// its recorder, so recording takes no lock.
type recorder struct {
	// checkouts and checkins are the latencies in microseconds of the
	// successful requests, each timed from the instant it was due.
	checkouts []float64
	checkins  []float64
	// lateUs is how late the generator woke for each paced slot it slept
	// until; backlogged counts the slots it could not sleep until because
	// the previous operation on its connection overran them. That stall is
	// the system's, and the operation's latency carries it.
	lateUs     []float64
	backlogged int

	attempted int // requests sent
	failed    int // requests that failed or were refused
	limited   int // paced requests held to latencyLimit
	within    int // of those, done in time
	// abandoned counts the paced slots that were never sent because the
	// phase had overrun its end by overrunGrace. Each missed its limit; none
	// is a failed request, because the program never saw it.
	abandoned int

	cycles int // completed device cycles

	acks []ack
	obs  []observation

	firstErr error
}

func (r *recorder) fail(err error) {
	r.failed++
	if r.firstErr == nil {
		r.firstErr = err
	}
}

// done records one finished request. A paced request is held to the
// latency limit from the instant it was due.
func (r *recorder) done(sink *[]float64, due, at time.Time, paced bool) {
	lat := at.Sub(due)
	*sink = append(*sink, float64(lat)/1e3)
	if paced {
		r.limited++
		if lat <= latencyLimit {
			r.within++
		}
	}
}

// actor is one load-generator goroutine's behaviour: step performs its
// next operation, which was due at due (paced, open loop) or is due now
// (the zero time: closed loop).
type actor interface {
	step(ctx context.Context, due time.Time, rec *recorder)
}

// dueOrNow returns the instant an operation is timed from and whether it
// is a paced one.
func dueOrNow(due time.Time) (time.Time, bool) {
	if due.IsZero() {
		return time.Now(), false
	}
	return due, true
}

// cycleActor runs device flush cycles over its share of the pool: every
// client of the crowd_* workloads, and follower_reads' writer.
type cycleActor struct {
	crowd      *crowd
	c          *client
	devs       []*device
	n          int
	churnEvery int
	// recordAcks keeps (time, iteration) per ack: set for a sole
	// writer, whose k-th ack is leader iteration k.
	recordAcks bool
}

func (a *cycleActor) step(ctx context.Context, due time.Time, rec *recorder) {
	d := a.devs[a.n%len(a.devs)]
	a.n++
	due, paced := dueOrNow(due)
	if a.churnEvery > 0 && a.n%a.churnEvery == 0 {
		// Churn: the device rejoins and its token rotates.
		rec.attempted++
		tok, err := a.c.raw.Register(ctx, d.id, joinKey)
		if err != nil {
			rec.fail(err)
			return
		}
		d.token = tok
	}
	ct, _, err := a.crowd.cycle(ctx, a.c.tr, d, nil)
	rec.attempted++
	if ct.ready.IsZero() { // the checkout failed
		rec.fail(err)
		if paced {
			rec.limited++
		}
		return
	}
	rec.done(&rec.checkouts, due, ct.checkoutDone, paced)
	rec.attempted++
	if err != nil {
		rec.fail(err)
		if paced {
			rec.limited++
		}
		return
	}
	rec.done(&rec.checkins, ct.ready, ct.checkinDone, paced)
	rec.cycles++
	n := int(a.crowd.acked.Add(1))
	if a.recordAcks {
		rec.acks = append(rec.acks, ack{at: ct.checkinDone, iteration: n})
	}
}

// readActor polls checkouts over its share of the pool: the portal-style
// readers of follower_reads.
type readActor struct {
	c    *client
	devs []*device
	n    int
}

func (a *readActor) step(ctx context.Context, due time.Time, rec *recorder) {
	d := a.devs[a.n%len(a.devs)]
	a.n++
	due, paced := dueOrNow(due)
	co, err := a.c.tr.Checkout(ctx, d.id, d.token)
	got := time.Now()
	rec.attempted++
	if err != nil {
		rec.fail(err)
		if paced {
			rec.limited++
		}
		return
	}
	rec.done(&rec.checkouts, due, got, paced)
	rec.obs = append(rec.obs, observation{at: got, version: co.Version})
}

// plan is one actor's part in a phase: paced at rate operations per
// second (open loop, every operation timed from the instant it was
// due), or back-to-back when rate is 0 (closed loop).
type plan struct {
	a    actor
	rate float64
}

// overrunGrace is how far past its end a paced phase keeps sending a
// backlog before it abandons the rest: a box that a neighbour has slowed
// below the paced rate must not stretch the run without limit.
const overrunGrace = 2 * time.Second

// phaseRun is what a phase produced: one recorder per plan, and how long
// the phase took until its last operation completed.
type phaseRun struct {
	recs    []*recorder
	elapsed time.Duration
}

// runPhase runs every plan for dur.
func runPhase(ctx context.Context, plans []plan, dur time.Duration) phaseRun {
	recs := make([]*recorder, len(plans))
	start := time.Now().Add(2 * time.Millisecond)
	end := start.Add(dur)
	var wg sync.WaitGroup
	for i, p := range plans {
		recs[i] = &recorder{}
		wg.Add(1)
		go func(i int, p plan) {
			defer wg.Done()
			rec := recs[i]
			if p.rate <= 0 {
				sleepUntil(start)
				for time.Now().Before(end) {
					p.a.step(ctx, time.Time{}, rec)
				}
				return
			}
			interval := time.Duration(float64(time.Second) / p.rate)
			// Stagger the actors so they do not all fire on one tick.
			first := start.Add(interval * time.Duration(i) / time.Duration(len(plans)))
			for j := 0; ; j++ {
				due := first.Add(time.Duration(j) * interval)
				if !due.Before(end) {
					return
				}
				switch {
				case time.Until(due) > 0:
					sleepUntil(due)
					rec.lateUs = append(rec.lateUs, float64(time.Since(due))/1e3)
				case time.Since(end) > overrunGrace:
					// Hopelessly behind: everything left missed its limit.
					left := int(end.Sub(due)/interval) + 1
					rec.abandoned += left
					rec.limited += left
					return
				default:
					rec.backlogged++
				}
				p.a.step(ctx, due, rec)
			}
		}(i, p)
	}
	wg.Wait()
	return phaseRun{recs: recs, elapsed: time.Since(start)}
}

// all merges every actor's recorder; pick merges the given ones.
func (p phaseRun) all() *recorder { return merged(p.recs...) }

func (p phaseRun) pick(idx []int) *recorder {
	sel := make([]*recorder, 0, len(idx))
	for _, i := range idx {
		sel = append(sel, p.recs[i])
	}
	return merged(sel...)
}

// merged sums a set of recorders.
func merged(recs ...*recorder) *recorder {
	out := &recorder{}
	for _, r := range recs {
		out.checkouts = append(out.checkouts, r.checkouts...)
		out.checkins = append(out.checkins, r.checkins...)
		out.lateUs = append(out.lateUs, r.lateUs...)
		out.backlogged += r.backlogged
		out.attempted += r.attempted
		out.failed += r.failed
		out.limited += r.limited
		out.within += r.within
		out.abandoned += r.abandoned
		out.cycles += r.cycles
		out.acks = append(out.acks, r.acks...)
		out.obs = append(out.obs, r.obs...)
		if out.firstErr == nil {
			out.firstErr = r.firstErr
		}
	}
	return out
}

// quantile returns the q-quantile (0..1) of xs by linear interpolation
// between order statistics; NaN for no samples. xs is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(xs)-1)
	return xs[lo] + (pos-float64(lo))*(xs[hi]-xs[lo])
}

func median(xs []float64) float64 {
	return quantile(append([]float64(nil), xs...), 0.5)
}

// readLagsMs pairs every acked checkin with the first follower checkout
// that returned at or after the ack with a version at least the
// checkin's iteration, and returns the waits in milliseconds. Acks no
// observation ever covered are dropped (the phase ended first).
func readLagsMs(acks []ack, obs []observation) []float64 {
	sort.Slice(obs, func(i, j int) bool { return obs[i].at.Before(obs[j].at) })
	// A replica's version never goes back, but two reader goroutines'
	// completion times can interleave by a hair: make it monotone.
	for i := 1; i < len(obs); i++ {
		obs[i].version = max(obs[i].version, obs[i-1].version)
	}
	var lags []float64
	for _, a := range acks {
		byTime := sort.Search(len(obs), func(i int) bool { return !obs[i].at.Before(a.at) })
		byVersion := sort.Search(len(obs), func(i int) bool { return obs[i].version >= a.iteration })
		i := max(byTime, byVersion)
		if i < len(obs) {
			lags = append(lags, float64(obs[i].at.Sub(a.at))/1e6)
		}
	}
	return lags
}
