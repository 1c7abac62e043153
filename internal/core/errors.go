package core

import "errors"

var (
	// ErrAuth is returned when a device's credentials are rejected
	// (Algorithm 2 authenticates every checkout and checkin).
	ErrAuth = errors.New("crowdml: authentication failed")

	// ErrStopped is returned when the server's stopping criteria
	// (t ≥ Tmax or error estimate ≤ ρ) have been met.
	ErrStopped = errors.New("crowdml: learning task has stopped")

	// ErrBadCheckin is returned when a checkin payload is malformed
	// (wrong gradient length or label-count arity).
	ErrBadCheckin = errors.New("crowdml: malformed checkin")

	// ErrBufferFull is returned by Device.AddSample when the secure local
	// buffer has reached its maximum size B and collection is paused
	// (Device Routine 1: "stop collection to prevent resource outage").
	ErrBufferFull = errors.New("crowdml: device buffer full")

	// ErrBadSample is returned by Device.AddSample for a sample the
	// privacy mechanism cannot cover: a label outside [0, C), a feature
	// count other than D, a non-finite feature, or ‖x‖₁ > 1 (Theorem 1's
	// sensitivity bound assumes ‖x‖₁ ≤ 1). The sample is not buffered.
	ErrBadSample = errors.New("crowdml: sample outside the model's domain")

	// ErrCheckinAborted is returned to checkins waiting in an apply batch
	// whose leader panicked in a user-supplied Updater before applying
	// them. The panic itself propagates out of the leader's own Checkin
	// call; waiters get this error instead of hanging, and the server
	// remains usable. (A panicking OnCommit aborts nothing: its batch is
	// already applied, and every waiter gets its real result.)
	ErrCheckinAborted = errors.New("crowdml: checkin aborted by a panic in the batch apply")
)
