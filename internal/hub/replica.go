package hub

// Replica states reported by ReplicaStatus.State; defined here (rather
// than in the replica runtime) so the HTTP layer can interpret a task's
// status without importing the runtime package.
const (
	// ReplicaBootstrapping: the follower has not completed its first
	// exchange with the leader yet (failures before it stay here, with
	// LastError set), or is re-fetching the checkpoint after losing the
	// journal feed's continuity to retention. Not a faithful read replica.
	ReplicaBootstrapping = "bootstrapping"
	// ReplicaTailing: bootstrapped and applying the live journal feed;
	// the replica serves reads, trailing the leader by ReplicationLag.
	ReplicaTailing = "tailing"
	// ReplicaRetrying: the leader became unreachable after the follower
	// had synced; it serves its last-applied state while reconnecting on
	// its feed client's RetryPolicy.
	ReplicaRetrying = "retrying"
	// ReplicaStopped: the replication runtime has shut down.
	ReplicaStopped = "stopped"
)

// ReplicaStatus is a follower task's replication telemetry, published by
// the runtime driving it (see SetReplicaStatus) and surfaced on the
// /v1/healthz endpoint. The leader it replicates from is Task.LeaderURL.
type ReplicaStatus struct {
	// State is one of the Replica* constants above.
	State string
	// LeaderIteration is the leader's iteration counter as of the last
	// completed feed exchange (0 until one completes).
	LeaderIteration int
	// LastError describes the most recent replication failure, cleared
	// on the next successful exchange.
	LastError string
}

// AsReplicaOf marks the task as a read-only follower replica of the
// same task on the leader at leaderURL: its state is maintained solely
// by replaying the leader's shipped journal, the HTTP layer rejects
// writes (checkin, register) with 409 and a leader hint, and reads
// (checkout, stats) are served locally. Incompatible with WithStore —
// replayed entries never reach OnCommit, so a follower's own WAL
// would silently diverge from its state; a follower that dies simply
// re-bootstraps from the leader's checkpoint.
func AsReplicaOf(leaderURL string) TaskOption {
	return func(o *createOptions) { o.replicaOf = leaderURL }
}

// ReadOnly reports whether the task is a follower replica (created with
// AsReplicaOf): its state is owned by the replication runtime and the
// HTTP layer must reject writes.
func (t *Task) ReadOnly() bool { return t.replicaOf != "" }

// LeaderURL returns the leader base URL a replica task follows, or ""
// for a leader-role task.
func (t *Task) LeaderURL() string { return t.replicaOf }

// SetReplicaStatus publishes the replication runtime's current status
// for the task's health surface. The task keeps its own copy, so the
// runtime may go on mutating the value it passed; the latest call wins.
func (t *Task) SetReplicaStatus(st ReplicaStatus) {
	t.replica.Store(&st)
}

// ReplicaStatus reports the task's replication telemetry; ok is false
// for leader-role tasks and for replicas whose runtime has not published
// a status yet (a follower between CreateTask and replica.New).
func (t *Task) ReplicaStatus() (ReplicaStatus, bool) {
	p := t.replica.Load()
	if p == nil {
		return ReplicaStatus{}, false
	}
	return *p, true
}

// Ready reports whether the task can serve its role, with the replica
// status the verdict was read from (zero for a leader and for a follower
// with no status yet). A leader always can. A follower is ready once its
// runtime reports it tailing the feed: bootstrapped, serving reads,
// trailing by a known lag. A replica whose runtime has not published a
// status, or one still bootstrapping, is not ready yet; one retrying a
// lost leader keeps serving its last-applied state and stays ready.
func (t *Task) Ready() (bool, ReplicaStatus) {
	if !t.ReadOnly() {
		return true, ReplicaStatus{}
	}
	st, ok := t.ReplicaStatus()
	return ok && (st.State == ReplicaTailing || st.State == ReplicaRetrying), st
}

// ReplicationLag reports how many iterations the replica trails the
// leader: the leader's iteration counter from the last completed feed
// exchange minus the locally applied iteration, clamped at zero (the
// local counter can briefly lead the EOS-frame observation). ok is
// false when no status is published or no exchange has completed yet —
// lag is then unknown, not zero.
func (t *Task) ReplicationLag() (int, bool) {
	st, ok := t.ReplicaStatus()
	if !ok || st.LeaderIteration == 0 {
		return 0, false
	}
	lag := st.LeaderIteration - t.server.Iteration()
	if lag < 0 {
		lag = 0
	}
	return lag, true
}
