package core

import (
	"fmt"

	"github.com/crowdml/crowdml/internal/optimizer"
)

// ServerState is a serializable snapshot of everything Algorithm 2
// accumulates: the parameter vector, the iteration counter, and the
// per-device progress counters. The paper's prototype persisted this state
// in MySQL (Section V-A); package store provides the file-backed
// equivalent so a restarted server resumes the task instead of discarding
// the crowd's contributions.
//
// Device tokens are intentionally NOT part of the state: credentials are
// provisioning data, not learning state, and persisting them would widen
// the blast radius of a leaked checkpoint.
type ServerState struct {
	// ModelName, Classes and Dim identify the task shape for sanity
	// checking on restore.
	ModelName string `json:"modelName"`
	Classes   int    `json:"classes"`
	Dim       int    `json:"dim"`
	// Params is the flattened C×D parameter matrix.
	Params []float64 `json:"params"`
	// Iteration is the SGD iteration counter t.
	Iteration int `json:"iteration"`
	// Stopped records the learning stop: the stopping criteria were met
	// or Stop was called. A Halt is never recorded.
	Stopped bool `json:"stopped"`
	// TotalSamples, TotalErrors and TotalLabelCounts are the crowd-wide
	// counters behind the Eq. (14) estimates.
	TotalSamples     int   `json:"totalSamples"`
	TotalErrors      int   `json:"totalErrors"`
	TotalLabelCounts []int `json:"totalLabelCounts"`
	// UpdaterName identifies the updater that produced UpdaterState
	// (optimizer.Updater.Name()). ImportState only hands the state
	// vector back when the configured updater's name matches; otherwise
	// the state is reset — restoring an AdaGrad checkpoint into a task
	// reconfigured for Momentum must not silently reinterpret
	// accumulators as velocity.
	UpdaterName string `json:"updaterName,omitempty"`
	// UpdaterState is the updater's internal state, for updaters that
	// implement optimizer.StateExporter (AdaGrad's per-coordinate
	// accumulators, Momentum's velocity). Empty for stateless updaters
	// like the paper's SGD schedules. With it in the checkpoint, recovery
	// is bit-exact for stateful updaters too: ImportState hands the
	// vector back and journal-tail replay advances it deterministically.
	UpdaterState []float64 `json:"updaterState,omitempty"`
	// Devices holds the per-device counters, keyed by device ID.
	Devices map[string]DeviceStats `json:"devices"`
}

// StateBuffer is the memory one ExportStateInto call leaves behind for the
// next: the parameter, totals and updater vectors, the Devices map (its
// buckets survive the clear) and the slab every device's label counts are
// carved from. The zero value is ready to use. A buffer belongs to one
// caller at a time, and each export into it overwrites the last — the
// *ServerState a call returns is valid until the next call with the same
// buffer.
type StateBuffer struct {
	st   ServerState
	slab []int
}

// ExportState snapshots the server's learning state into memory of its
// own: ExportStateInto(nil).
func (s *Server) ExportState() *ServerState { return s.ExportStateInto(nil) }

// ExportStateInto snapshots the server's learning state, reusing buf's
// memory (nil means a fresh buffer: the result is then the caller's to
// keep). It takes the apply lock, so the exported parameters, iteration
// counter, crowd totals and per-device counters all come from the same
// quiescent point between batches — and with a warm buffer the lock is
// held for a copy into memory that already exists, not for building a map
// of the crowd.
func (s *Server) ExportStateInto(buf *StateBuffer) *ServerState {
	if buf == nil {
		buf = new(StateBuffer)
	}
	st := &buf.st
	s.wMu.Lock()
	defer s.wMu.Unlock()
	classes, dim := s.cfg.Model.Shape()
	st.TotalLabelCounts = st.TotalLabelCounts[:0]
	for k := range s.totalNky {
		st.TotalLabelCounts = append(st.TotalLabelCounts, int(s.totalNky[k].Load()))
	}
	st.ModelName = s.cfg.Model.Name()
	st.Classes, st.Dim = classes, dim
	st.Params = append(st.Params[:0], s.w.Data()...)
	st.Iteration = int(s.t.Load())
	st.Stopped = s.learningStopped()
	st.TotalSamples = int(s.totalNs.Load())
	st.TotalErrors = int(s.totalNe.Load())
	st.UpdaterName = s.cfg.Updater.Name()
	// The updater only ever runs under wMu (applyBatchLocked, Replay), so
	// this export is from the same quiescent point as the rest.
	st.UpdaterState = st.UpdaterState[:0]
	switch u := s.cfg.Updater.(type) {
	case optimizer.StateAppender:
		st.UpdaterState = u.AppendState(st.UpdaterState)
	case optimizer.StateExporter:
		st.UpdaterState = u.ExportState()
	}
	if len(st.UpdaterState) == 0 {
		st.UpdaterState = nil // "no state" is nil, whatever the buffer held
	}
	// One map and one slab for every device's label counts: a checkpoint
	// of a large crowd is two allocations the first time and none after.
	// Devices may enroll while this runs (that takes no apply lock), so the
	// count is a hint: one that no longer fits the slab gets a slice of its
	// own, and the next export sizes the slab for it.
	n := s.devices.count()
	if st.Devices == nil {
		st.Devices = make(map[string]DeviceStats, n)
	} else {
		clear(st.Devices)
	}
	if cap(buf.slab) < n*classes {
		buf.slab = make([]int, 0, n*classes)
	}
	slab := buf.slab[:0]
	s.devices.forEach(func(id string, d *DeviceStats) {
		if cap(slab)-len(slab) < len(d.LabelCounts) {
			slab = make([]int, 0, len(d.LabelCounts))
		}
		lo := len(slab)
		slab = append(slab, d.LabelCounts...)
		row := *d
		// Capped at its own length: an append on one entry reallocates
		// instead of running into its neighbour's counts.
		row.LabelCounts = slab[lo:len(slab):len(slab)]
		st.Devices[id] = row
	})
	return st
}

// ImportState restores a previously exported state. The snapshot must
// match the server's model name and shape. Devices present in the snapshot
// are re-created with their counters but WITHOUT credentials; they must
// re-register (see ServerState's security note).
//
// ImportState is a startup-time operation: restore the checkpoint before
// the server starts taking traffic. It excludes concurrent batch
// application via the apply lock, but lock-free stats readers racing the
// restore may observe a mix of old and new counters.
func (s *Server) ImportState(st *ServerState) error {
	if st == nil {
		return fmt.Errorf("core: nil state")
	}
	classes, dim := s.cfg.Model.Shape()
	if st.ModelName != s.cfg.Model.Name() || st.Classes != classes || st.Dim != dim {
		return fmt.Errorf("core: state for %s (%dx%d) does not match server model %s (%dx%d)",
			st.ModelName, st.Classes, st.Dim, s.cfg.Model.Name(), classes, dim)
	}
	if len(st.Params) != classes*dim {
		return fmt.Errorf("core: state params length %d, want %d", len(st.Params), classes*dim)
	}
	if len(st.TotalLabelCounts) != classes {
		return fmt.Errorf("core: state label counts length %d, want %d",
			len(st.TotalLabelCounts), classes)
	}
	for id, entry := range st.Devices {
		if len(entry.LabelCounts) != classes {
			return fmt.Errorf("core: device %s label counts length %d, want %d",
				id, len(entry.LabelCounts), classes)
		}
	}
	s.wMu.Lock()
	defer s.wMu.Unlock()
	if se, ok := s.cfg.Updater.(optimizer.StateExporter); ok {
		// The state vector is only meaningful to the updater that wrote
		// it: on a name mismatch (the task was reconfigured — AdaGrad →
		// Momentum, or a changed hyperparameter) the updater is reset
		// instead, because silently reinterpreting one updater's vector
		// as another's would corrupt the trajectory without any error.
		// An empty vector likewise resets — restoring from a checkpoint
		// written under stateless SGD starts the accumulators fresh,
		// exactly as a reconfigured task should. The converse (a
		// snapshot carrying state the configured updater cannot absorb)
		// is ignored for the same reason: the operator's current
		// configuration wins.
		state := st.UpdaterState
		if st.UpdaterName != s.cfg.Updater.Name() {
			state = nil
		}
		if err := se.ImportState(state); err != nil {
			return fmt.Errorf("core: restore updater state: %w", err)
		}
	}
	copy(s.w.Data(), st.Params)
	s.t.Store(int64(st.Iteration))
	s.totalNs.Store(int64(st.TotalSamples))
	s.totalNe.Store(int64(st.TotalErrors))
	for k := range s.totalNky {
		s.totalNky[k].Store(int64(st.TotalLabelCounts[k]))
	}
	s.stopped.Store(st.Stopped)
	for id, row := range st.Devices {
		row.LabelCounts = append([]int(nil), row.LabelCounts...)
		s.devices.importStats(id, row)
	}
	// A restore can rewind the iteration counter, so version numbers in
	// the retained delta ring would no longer identify the bases clients
	// hold. Republish, then drop every base: delta checkouts fall back to
	// full frames until fresh snapshots accumulate.
	s.publishSnapshotLocked()
	s.ring.Reset()
	return nil
}
