package shard

import (
	"context"

	"github.com/crowdml/crowdml/internal/core"
)

// deltaHistory is how many published merged views the Group retains for
// delta checkouts — the sharded counterpart of core's snapshot ring
// (core.DefaultDeltaHistory). Ring entries are pointers to views the
// merger published anyway; no extra copies.
const deltaHistory = core.DefaultDeltaHistory

// recordMergedView appends a just-published merged view to the delta
// ring. The merged iteration (Σ member versions) is monotone and, for a
// given iteration, the merged parameters are a deterministic function
// of the members' immutable snapshots — so a same-iteration republish
// is a pointer swap, exactly like core's ring.
func (g *Group) recordMergedView(mv *mergedView) {
	g.deltaMu.Lock()
	defer g.deltaMu.Unlock()
	if n := len(g.deltaRing); n > 0 && g.deltaRing[n-1].iteration == mv.iteration {
		g.deltaRing[n-1] = mv
		return
	}
	if len(g.deltaRing) == deltaHistory {
		copy(g.deltaRing, g.deltaRing[1:])
		g.deltaRing[len(g.deltaRing)-1] = mv
		return
	}
	g.deltaRing = append(g.deltaRing, mv)
}

// CheckoutDelta implements hub.ShardRouter, the sharded delta checkout:
// authenticate on the device's owning member, then answer from the
// merged-view ring with
// the same contract as core.Server.CheckoutDelta — a sparse change set
// when the caller's base iteration is retained, the zero-copy full
// merged vector otherwise. The transport layer serves every checkout
// through this (the JSON wire with since = -1, the binary wire's
// ?since=N), so devices cannot tell a sharded task from a plain one on
// the delta path either.
func (g *Group) CheckoutDelta(ctx context.Context, deviceID, token string, since int) (*core.ParamDelta, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	k := g.smap.Shard(deviceID)
	if err := g.members[k].Server().Authenticate(ctx, deviceID, token); err != nil {
		return nil, err
	}
	g.m.routedCheckout(k)
	mv := g.merged.Load()
	d := &core.ParamDelta{
		Version: mv.iteration,
		Done:    mv.done,
		Params:  mv.params,
		Since:   -1,
	}
	if since < 0 || since > mv.iteration {
		return d, nil
	}
	if since == mv.iteration {
		d.Since = since
		return d, nil
	}
	var base *mergedView
	g.deltaMu.Lock()
	for i := len(g.deltaRing) - 1; i >= 0; i-- {
		if g.deltaRing[i].iteration == since {
			base = g.deltaRing[i]
			break
		}
		if g.deltaRing[i].iteration < since {
			break
		}
	}
	g.deltaMu.Unlock()
	if base == nil || len(base.params) != len(mv.params) {
		return d, nil
	}
	d.Since = since
	d.Indices, d.Values = core.DiffParams(base.params, mv.params)
	return d, nil
}
