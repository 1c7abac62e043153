package shard

import (
	"strconv"

	"github.com/crowdml/crowdml/internal/telemetry"
)

// groupMetrics is the router-layer telemetry of one sharded logical
// task. All handles are pre-bound at Group construction (per shard and
// per operation for the routing counters), so the hot paths record with
// lock-free atomic adds and never touch the registry again. A disabled
// bundle holds nil handles, and a nil handle does nothing. The merged
// view's snapshot and delta-checkout counters are core.RingMetrics, bound
// in New under the logical task's ID.
type groupMetrics struct {
	// routed[k] counts requests routed to (or served for) shard k, one
	// counter per operation: checkout, checkin, register.
	routed []routedOps
	// mergeSeconds observes merger-cycle latency; merges counts cycles.
	mergeSeconds *telemetry.Histogram
	merges       *telemetry.Counter
	// staleness gauges how many iterations the member tier advanced
	// between consecutive merges — the iteration-staleness bound on what
	// merged checkouts served during the last cycle.
	staleness *telemetry.Gauge
}

type routedOps struct {
	checkout, checkin, register *telemetry.Counter
}

// newGroupMetrics binds the sharding series for a logical task; a nil
// registry yields a disabled bundle.
func newGroupMetrics(reg *telemetry.Registry, taskID string, shards int) *groupMetrics {
	m := &groupMetrics{
		routed: make([]routedOps, shards),
		mergeSeconds: reg.Histogram("crowdml_shard_merge_seconds",
			"Latency of one merged-view build across all shards.",
			telemetry.DurationBuckets, telemetry.L("task", taskID)),
		merges: reg.Counter("crowdml_shard_merges_total",
			"Merged-view builds published by the shard router.",
			telemetry.L("task", taskID)),
		staleness: reg.Gauge("crowdml_shard_merge_staleness_iterations",
			"Iterations the shard tier advanced between the last two merges (staleness bound of served merged checkouts).",
			telemetry.L("task", taskID)),
	}
	for k := range m.routed {
		ls := func(op string) []telemetry.Label {
			return []telemetry.Label{
				telemetry.L("task", taskID),
				telemetry.L("shard", strconv.Itoa(k)),
				telemetry.L("op", op),
			}
		}
		const help = "Device-protocol requests routed through the shard router, per owning shard and operation."
		m.routed[k] = routedOps{
			checkout: reg.Counter("crowdml_shard_routed_requests_total", help, ls("checkout")...),
			checkin:  reg.Counter("crowdml_shard_routed_requests_total", help, ls("checkin")...),
			register: reg.Counter("crowdml_shard_routed_requests_total", help, ls("register")...),
		}
	}
	return m
}
