package replica

import "github.com/crowdml/crowdml/internal/telemetry"

// replicaMetrics holds the pre-bound telemetry handles for one
// replicator. With Config.Metrics unset every handle is nil, and a nil
// handle does nothing.
//
// Metric names (all carry a task label):
//
//	crowdml_replica_entries_replayed_total  counter  journal entries applied locally
//	crowdml_replica_bootstraps_total        counter  checkpoint bootstraps (incl. gap-driven)
//	crowdml_replica_retries_total           counter  backoff retries after failures
//	crowdml_replica_lag_iterations          gauge    leader iteration minus local (mirrors healthz)
type replicaMetrics struct {
	entriesReplayed *telemetry.Counter
	bootstraps      *telemetry.Counter
	retries         *telemetry.Counter
	lag             *telemetry.Gauge
}

// newReplicaMetrics binds the replica series for one task; a nil registry
// yields a disabled bundle.
func newReplicaMetrics(reg *telemetry.Registry, task string) *replicaMetrics {
	t := telemetry.L("task", task)
	return &replicaMetrics{
		entriesReplayed: reg.Counter("crowdml_replica_entries_replayed_total",
			"Leader journal entries replayed into the local replica.", t),
		bootstraps: reg.Counter("crowdml_replica_bootstraps_total",
			"Checkpoint bootstraps, including gap-driven re-bootstraps.", t),
		retries: reg.Counter("crowdml_replica_retries_total",
			"Backoff retries after replication failures.", t),
		lag: reg.Gauge("crowdml_replica_lag_iterations",
			"Replication lag: leader iteration minus local iteration at the last complete exchange (mirrors /v1/healthz).", t),
	}
}
